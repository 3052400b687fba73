"""The semilinear group GammaL(2,q^n) acting on polynomial graphs and, through
slopes, on subsets of the projective line PG(1,q^n).

A SemilinearMap is an invertible 2x2 matrix (a,b,c,d) over F_{q^n} together
with a companion automorphism x -> x^(p^e).  Acting on a graph point
(x, f(x)) it produces (a x^s + b f(x)^s, c x^s + d f(x)^s); on the slope
z = f(x)/x it therefore acts as the Moebius-semilinear map

    z  ->  (c + d z^s) / (a + b z^s),

with the value INF when the denominator vanishes.  Slope values use the
field's int encoding plus the INF marker below.

Both actions run on field-wide arrays.  `transform_poly` tabulates the
graph map over all of F_{q^n}, inverts it by scatter and interpolates
(`qpoly.interpolate_through_inverse`, which `QPoly.inverse` shares);
`moebius_image` returns the image of a slope set as an ImageSet, or None
when a point goes to INF, so every witness check is an ImageSet compare.

Two paths decide whether some phi carries a slope set S onto a set T, and
both return the same lex-least witness, canonically scaled and re-checked,
or None after exhausting the group.  `find_set_equivalence` searches one
pair: it anchors the three smallest points of S^sigma and walks the ordered
triples of T, stopping at the first witness, so an equivalent pair is cheap
(about 0.05 s at F_243) and an inequivalent 121-point pair costs the whole
walk (about 2 s).  `SetEquivalenceIndex` serves one S against many T: it
keys every unordered triple of S once by probing its cross-ratio set and
then answers each T from six key lookups per automorphism, about a
millisecond a query after a build of under half a second at F_243.  One-off
pairs use the search; `linset.verify_new_example`, which tests one set
against every mu, uses the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    DegenerateSet,
    InconsistentStructure,
    NotAdmissible,
    SingularMatrix,
)
from .gf import FieldCtx
from .imageset import ImageSet, image_of_ratio
from .qpoly import QPoly, interpolate_through_inverse

INF = -1  # the projective point (0 : 1), used as a slope marker

_SEARCH_CHUNK = 1 << 18


@dataclass(frozen=True)
class SemilinearMap:
    ctx: FieldCtx
    a: int
    b: int
    c: int
    d: int
    sigma_exp: int = 0

    def __post_init__(self):
        if self.det() == 0:
            raise SingularMatrix("matrix part of a semilinear map must be invertible")
        object.__setattr__(self, "sigma_exp", self.sigma_exp % self.ctx.m)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "SemilinearMap":
        return cls(ctx, 1, 0, 0, 1, 0)

    @property
    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def det(self) -> int:
        ctx = self.ctx
        return ctx.sub(ctx.mul(self.a, self.d), ctx.mul(self.b, self.c))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self o other (apply `other` first)."""
        ctx = self.ctx
        e = self.sigma_exp
        oa, ob, oc, od = (ctx.frobenius(v, e) for v in (other.a, other.b, other.c, other.d))
        return SemilinearMap(
            ctx,
            ctx.add(ctx.mul(self.a, oa), ctx.mul(self.b, oc)),
            ctx.add(ctx.mul(self.a, ob), ctx.mul(self.b, od)),
            ctx.add(ctx.mul(self.c, oa), ctx.mul(self.d, oc)),
            ctx.add(ctx.mul(self.c, ob), ctx.mul(self.d, od)),
            (self.sigma_exp + other.sigma_exp) % ctx.m,
        )

    def inverse(self) -> "SemilinearMap":
        ctx = self.ctx
        e_inv = (ctx.m - self.sigma_exp) % ctx.m
        a, b, c, d = (ctx.frobenius(v, e_inv) for v in (self.a, self.b, self.c, self.d))
        # projective inverse: adjugate of the sigma^{-1}-twisted matrix
        return SemilinearMap(ctx, d, ctx.neg(b), ctx.neg(c), a, e_inv)

    def canonical_scaled(self) -> "SemilinearMap":
        """Scale so the first nonzero entry in row-major order is 1."""
        ctx = self.ctx
        lead = next(v for v in (self.a, self.b, self.c, self.d) if v)
        s = ctx.inv(lead)
        return SemilinearMap(
            ctx,
            ctx.mul(self.a, s),
            ctx.mul(self.b, s),
            ctx.mul(self.c, s),
            ctx.mul(self.d, s),
            self.sigma_exp,
        )

    def apply_slope(self, z: int) -> int:
        """The slope action; z may be INF, and INF may be returned."""
        ctx = self.ctx
        if z == INF:
            num, den = self.d, self.b
        else:
            w = ctx.frobenius(z, self.sigma_exp)
            num = ctx.add(self.c, ctx.mul(self.d, w))
            den = ctx.add(self.a, ctx.mul(self.b, w))
        if den == 0:
            return INF
        return ctx.div(num, den)

    def serialize(self) -> str:
        f = self.ctx.fmt
        return (
            f"[[{f(self.a)},{f(self.b)}],[{f(self.c)},{f(self.d)}]];"
            f"sigma={self.ctx.p}^{self.sigma_exp}"
        )

    def __repr__(self):
        return f"SemilinearMap({self.serialize()})"


def is_admissible(f: QPoly, phi: SemilinearMap, im: ImageSet | None = None) -> bool:
    """True iff the transported polynomial f_phi exists.

    Equivalent to invertibility of k_f(x) = a x^s + b f(x)^s: either b = 0,
    or -(a/b)^(s^-1) avoids Im(f(x)/x).
    """
    ctx = f.ctx
    if phi.b == 0:
        return True
    w = ctx.neg(ctx.div(phi.a, phi.b))
    w = ctx.frobenius(w, (ctx.m - phi.sigma_exp) % ctx.m)
    if im is None:
        im = image_of_ratio(f)
    return w not in im


# ------------------------------------------------------- graph transport

def transform_poly(f: QPoly, phi: SemilinearMap, verify: bool = False) -> QPoly:
    """The transported q-polynomial f_phi with graph M * (graph f)^sigma.

    Tabulates k_f(x) = a x^s + b f(x)^s and h_f(x) = c x^s + d f(x)^s over
    all of F_{q^n} and returns h_f o k_f^{-1} through the table inversion
    `interpolate_through_inverse` (k_f inverted by scatter, interpolated at
    the basis g^t, t < n, through the cached Moore inverse).  Time and
    memory are O(q^n): a handful of vector passes and tables of q^n int64
    entries.  Raises NotAdmissible when k_f is not a bijection, which is
    exactly when is_admissible(f, phi) is False.  With verify=True the
    graph identity f_phi(k_f(x)) = h_f(x) is re-checked on every field
    element, reusing the tables.
    """
    ctx = f.ctx
    e = phi.sigma_exp
    X = np.arange(ctx.size, dtype=np.int64)
    xs = ctx.vfrob(X, e)
    fs = ctx.vfrob(f.eval_on(X), e)
    kv = ctx.vadd(ctx.vmul(phi.a, xs), ctx.vmul(phi.b, fs))
    hv = ctx.vadd(ctx.vmul(phi.c, xs), ctx.vmul(phi.d, fs))
    coeffs = interpolate_through_inverse(ctx, kv, hv)
    if coeffs is None:
        raise NotAdmissible("k_f is singular for this map (footnote condition fails)")
    g = QPoly(ctx, coeffs)
    if verify and not np.array_equal(g.eval_on(kv), hv):
        raise InconsistentStructure("transported polynomial fails graph identity")
    return g


# ------------------------------------------------------------ slope action

def moebius_image(S: ImageSet, phi: SemilinearMap) -> ImageSet | None:
    """{(c + d z^s)/(a + b z^s) : z in S}, or None when some z goes to INF."""
    ctx = S.ctx
    w = ctx.vfrob(S.indices(), phi.sigma_exp)
    den = ctx.vadd(phi.a, ctx.vmul(phi.b, w))
    if not den.all():
        return None
    num = ctx.vadd(phi.c, ctx.vmul(phi.d, w))
    return ImageSet.from_indices(ctx, ctx.vmul(num, ctx.vinv(den)))


def _checked_witness(S: ImageSet, T: ImageSet, e: int, a, b, c, d) -> SemilinearMap:
    """The map (a, b, c, d; p^e), canonically scaled, once it is checked to
    carry S onto T."""
    phi = SemilinearMap(S.ctx, int(a), int(b), int(c), int(d), e).canonical_scaled()
    if moebius_image(S, phi) != T:
        raise InconsistentStructure("set-equivalence witness failed its self-check")
    return phi


def _cross_ratio_matrix(ctx: FieldCtx, z1, z2, z3):
    # matrix (a, b, c, d) sending slopes (z1, z2, z3) to (0, 1, INF); the
    # slopes may be scalars or arrays of candidate triples
    d21 = ctx.vadd(z2, ctx.vneg(z1))
    d23 = ctx.vadd(z2, ctx.vneg(z3))
    return ctx.vneg(ctx.vmul(z3, d21)), d21, ctx.vneg(ctx.vmul(z1, d23)), d23


def _carry(ctx: FieldCtx, P, Q):
    # adj(Q) . P: the matrix sending P's triple to Q's, through (0, 1, INF)
    pa, pb, pc, pd = P
    qa, qb, qc, qd = Q
    nqb = ctx.vneg(qb)
    nqc = ctx.vneg(qc)
    return (
        ctx.vadd(ctx.vmul(qd, pa), ctx.vmul(nqb, pc)),
        ctx.vadd(ctx.vmul(qd, pb), ctx.vmul(nqb, pd)),
        ctx.vadd(ctx.vmul(nqc, pa), ctx.vmul(qa, pc)),
        ctx.vadd(ctx.vmul(nqc, pb), ctx.vmul(qa, pd)),
    )


def find_set_equivalence(
    S: ImageSet, T: ImageSet, chunk: int = _SEARCH_CHUNK
) -> SemilinearMap | None:
    """Search GammaL(2,q^n) for phi with moebius_image(S, phi) = T.

    Anchors the three smallest points of S^sigma, enumerates ordered distinct
    triples of T in lexicographic order per automorphism, solves the unique
    Moebius map through the anchors, and keeps candidates that carry all of
    S^sigma into T.  The first (lex-least) survivor is canonicalized,
    re-verified by direct application, and returned; None means the search
    space is exhausted.
    """
    if len(S) < 3:
        raise DegenerateSet(f"need at least 3 points, got {len(S)}")
    if len(S) != len(T):
        return None
    ctx = S.ctx
    t_idx = T.indices()
    t_mask = T.mask
    mlen = t_idx.size
    total = mlen**3

    for e in range(ctx.m):
        s_sig = np.sort(ctx.vfrob(S.indices(), e))
        rest = s_sig[3:]
        P = _cross_ratio_matrix(ctx, *s_sig[:3])

        for lo in range(0, total, chunk):
            G = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            i1 = G // (mlen * mlen)
            i2 = (G // mlen) % mlen
            i3 = G % mlen
            distinct = (i1 != i2) & (i1 != i3) & (i2 != i3)
            if not distinct.any():
                continue
            G = G[distinct]
            Q = _cross_ratio_matrix(
                ctx, t_idx[i1[distinct]], t_idx[i2[distinct]], t_idx[i3[distinct]]
            )
            ma, mb, mc, md = _carry(ctx, P, Q)  # s-anchors to (t1, t2, t3)
            det = ctx.vadd(ctx.vmul(ma, md), ctx.vneg(ctx.vmul(mb, mc)))
            alive = det != 0

            for w in rest:
                if not alive.any():
                    break
                keep = np.flatnonzero(alive)
                if keep.size * 4 < alive.size:
                    G, ma, mb, mc, md = (arr[keep] for arr in (G, ma, mb, mc, md))
                    alive = np.ones(G.size, dtype=bool)
                w = int(w)
                den = ctx.vadd(ma, ctx.vmul(mb, w))
                num = ctx.vadd(mc, ctx.vmul(md, w))
                val = ctx.vmul(num, ctx.vinv(den))
                alive &= (den != 0) & t_mask[val]

            if alive.any():
                k = int(np.flatnonzero(alive)[0])  # G ascends, so first = lex-least
                return _checked_witness(S, T, e, ma[k], mb[k], mc[k], md[k])
    return None


# ------------------------------------------------- one set against many sets

_PROBES = 64  # key bits: one per probe point


def _probes(ctx: FieldCtx) -> np.ndarray:
    # g^1 .. g^64, which avoid 0 and 1; all of F minus {0, 1} up to 66 elements
    return np.arange(2, min(ctx.size, _PROBES + 2), dtype=np.int64)


def _probe_keys(ctx: FieldCtx, mask, z1, z2, z3, probes) -> np.ndarray:
    """One 64-bit key per triple (z1[i], z2[i], z3[i]) of the set `mask`:
    bit j is set iff probes[..., j] lies in N = M(set) minus {0, 1, INF},
    M the map sending the triple to (0, 1, INF).  `probes` is one row for
    every triple, or one row per triple."""
    # M(z) = r (z - z1)/(z - z3) with r = (z2 - z3)/(z2 - z1), so
    # M^-1(y) = z3 + K/(y - r) with K = r (z3 - z1); y = r goes to INF
    r = ctx.vmul(ctx.vadd(z2, ctx.vneg(z3)), ctx.vinv(ctx.vadd(z2, ctx.vneg(z1))))
    k = ctx.vmul(r, ctx.vadd(z3, ctx.vneg(z1)))
    den = ctx.vadd(probes, ctx.vneg(r)[:, None])
    x = ctx.vadd(z3[:, None], ctx.vmul(k[:, None], ctx.vinv(den)))
    bits = mask[x] & (den != 0)
    packed = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    row = np.packbits(bits, axis=1, bitorder="little")
    packed[:, : row.shape[1]] = row
    return packed.view("<u8").ravel()


class SetEquivalenceIndex:
    """One set S, indexed once, tested against many sets T of its size.

    For an ordered triple s of S let M_s send s to (0, 1, INF), and let
    N(S;s) = M_s(S) minus {0, 1, INF}.  Cross-ratios are PGL-invariant and
    commute with Frobenius, so phi = A o sigma^e carries S onto T exactly
    when N(T;t) = sigma^e(N(S;s)) for the triple t = phi(s); fixing t0 of
    T, every phi sends the sorted triple phi^-1(t0) of S to one of the six
    orderings of t0.  The index keys each unordered triple i < j < k of S
    by 64 probes y_j outside {0, 1} (bit j is y_j in N(S;s)) and keeps the
    keys sorted.  A query keys the six orderings of t0 against every
    sigma^e(y_j) and looks the keys up; a key match is only a candidate,
    kept once its map carries all of S onto T, so a None answer is as
    exhaustive as `find_set_equivalence`.

    The index pays for itself against several sets: at F_243 a 121-point
    set has 287,980 triples and its index takes under half a second to
    build, after which a query takes about a millisecond.
    """

    def __init__(self, S: ImageSet):
        if len(S) < 3:
            raise DegenerateSet(f"need at least 3 points, got {len(S)}")
        ctx = S.ctx
        self.S = S
        self._probes = _probes(ctx)
        s_idx = S.indices()
        size = s_idx.size
        pj, pk = np.triu_indices(size, 1)  # pairs j < k in lex order
        per = max(1, _SEARCH_CHUNK // self._probes.size)
        keys, codes = [], []
        for i in range(size - 2):
            # the pairs after i are a suffix of the lex order
            for lo in range(int(np.searchsorted(pj, i + 1)), pj.size, per):
                j, k = pj[lo:lo + per], pk[lo:lo + per]
                keys.append(_probe_keys(
                    ctx, S.mask, s_idx[i], s_idx[j], s_idx[k], self._probes
                ))
                codes.append((i * size + j) * size + k)
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._codes = np.concatenate(codes)[order]

    def _hits(self, T: ImageSet) -> np.ndarray:
        """Every (e, M) with M(S^sigma^e) = T, in the order of the search,
        lex-least (e, i1, i2, i3) first, where T[i1], T[i2], T[i3] are the
        images of the three smallest points of S^sigma^e."""
        S = self.S
        found = [np.empty((0, 8), dtype=np.int64)]
        if len(T) != len(S):
            return found[0]
        ctx = S.ctx
        s_idx = S.indices()
        t_idx = T.indices()
        size = s_idx.size
        orders = np.array(list(permutations(t_idx[:3])), dtype=np.int64)
        for e in range(ctx.m):
            qkeys = _probe_keys(
                ctx, T.mask, *orders.T, ctx.vfrob(self._probes, e)[None, :]
            )
            lo = np.searchsorted(self._keys, qkeys, side="left")
            hi = np.searchsorted(self._keys, qkeys, side="right")
            row = np.repeat(np.arange(len(orders)), hi - lo)
            if not row.size:
                continue
            code = self._codes[np.concatenate(
                [np.arange(a, b) for a, b in zip(lo, hi)]
            )]
            src = ctx.vfrob(s_idx[[code // (size * size), code // size % size,
                                   code % size]], e)
            dst = orders[row].T
            ma, mb, mc, md = _carry(
                ctx, _cross_ratio_matrix(ctx, *src), _cross_ratio_matrix(ctx, *dst)
            )
            # full-image check; the three smallest points of S^sigma come first
            w = np.sort(ctx.vfrob(s_idx, e))
            block = max(1, _SEARCH_CHUNK // size)
            for b0 in range(0, ma.size, block):
                a, b, c, d = (x[b0:b0 + block, None] for x in (ma, mb, mc, md))
                den = ctx.vadd(a, ctx.vmul(b, w))
                val = ctx.vmul(ctx.vadd(c, ctx.vmul(d, w)), ctx.vinv(den))
                ok = ((den != 0) & T.mask[val]).all(axis=1)
                found.append(np.column_stack((
                    np.full(ok.sum(), e), np.searchsorted(t_idx, val[ok, :3]),
                    a[ok], b[ok], c[ok], d[ok],
                )))
        hits = np.concatenate(found)
        return hits[np.lexsort(hits[:, 3::-1].T)]

    def witnesses(self, T: ImageSet) -> list[SemilinearMap]:
        """Every phi in PGammaL(2,q^n) with moebius_image(S, phi) = T,
        canonically scaled, in the order `find_set_equivalence` meets them;
        a self-query lists the stabilizer of S."""
        ctx = self.S.ctx
        return [
            SemilinearMap(ctx, a, b, c, d, e).canonical_scaled()
            for e, _, _, _, a, b, c, d in self._hits(T).tolist()
        ]

    def find(self, T: ImageSet) -> SemilinearMap | None:
        """The witness `find_set_equivalence(S, T)` returns, or None."""
        hits = self._hits(T)
        if not hits.size:
            return None
        e, _, _, _, a, b, c, d = hits[0].tolist()
        return _checked_witness(self.S, T, e, a, b, c, d)
