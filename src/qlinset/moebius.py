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
two F_p-linear coordinates of the graph map over all of F_{q^n} with
`qpoly.linear_table`, the entry point behind `QPoly.table`, inverts one by
scatter and interpolates (`qpoly.interpolate_through_inverse`, which
`QPoly.inverse` shares);
`moebius_image` returns the image of a slope set as an ImageSet, or None
when a point goes to INF, so every witness check is an ImageSet compare.

One algorithm decides whether some phi = A o sigma^e carries a slope set S
onto a set T.  For a triple s of S let M_s send s to (0, 1, INF), and let
N(S;s) = M_s(S) minus {0, 1, INF}.  Cross-ratios are PGL-invariant and
commute with Frobenius, so phi works exactly when N(T;phi(s)) =
sigma^e(N(S;s)), and phi sends the sorted triple phi^-1(t0) of S to one of
the six orderings of the three smallest points t0 of T.  Each triple
i < j < k of S is keyed by probes y_j outside {0, 1} (bit j: y_j in
N(S;s)), and the orderings of t0 by every sigma^e(y_j), 6m anchor keys.  A
key match is kept once its map carries all of S onto T, so a key never
decides an answer.  One scan of the triples of S serves any number of sets
T: it keeps only the triples whose first 16 key bits match an anchor key of
some T.  `set_equivalence_witnesses` lists, for each T, every witness,
lex-least first, canonically scaled and re-checked (S against [S] lists the
stabilizer; `linset.verify_new_example` checks one set against every mu), and
`find_set_equivalence` returns the lex-least witness of one pair, or None
once the group is exhausted.
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
from .qpoly import QPoly, interpolate_through_inverse, linear_table

INF = -1  # the projective point (0 : 1), used as a slope marker

@dataclass(frozen=True)
class SemilinearMap:
    ctx: FieldCtx
    a: int
    b: int
    c: int
    d: int
    sigma_exp: int = 0

    def __post_init__(self):
        for name in "abcd":
            v = getattr(self, name)
            if not 0 <= v < self.ctx.size:
                raise ValueError(f"{name} = {v} is no element index in [0, {self.ctx.size})")
        if self.det() == 0:
            raise SingularMatrix("matrix part of a semilinear map must be invertible")
        object.__setattr__(self, "sigma_exp", self.sigma_exp % self.ctx.m)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "SemilinearMap":
        return cls(ctx, 1, 0, 0, 1, 0)

    def det(self) -> int:
        ctx = self.ctx
        return ctx.sub(ctx.mul(self.a, self.d), ctx.mul(self.b, self.c))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self o other (apply `other` first)."""
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ValueError("maps live in different field contexts")
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


def is_admissible(f: QPoly, phi: SemilinearMap) -> bool:
    """True iff the transported polynomial f_phi exists.

    Equivalent to invertibility of k_f(x) = a x^s + b f(x)^s: either b = 0,
    or -(a/b)^(s^-1) avoids Im(f(x)/x).
    """
    ctx = f.ctx
    if phi.ctx is not ctx:
        raise ValueError("polynomial and map live in different field contexts")
    if phi.b == 0:
        return True
    w = ctx.neg(ctx.div(phi.a, phi.b))
    w = ctx.frobenius(w, (ctx.m - phi.sigma_exp) % ctx.m)
    return w not in image_of_ratio(f)


# ------------------------------------------------------- graph transport

def transform_poly(f: QPoly, phi: SemilinearMap, verify: bool = False) -> QPoly:
    """The transported q-polynomial f_phi with graph M * (graph f)^sigma.

    k_f(x) = a x^s + b f(x)^s and h_f(x) = c x^s + d f(x)^s are F_p-linear,
    so both are tabulated over all of F_{q^n} by one `qpoly.linear_table`
    call from their values at the basis g^j, j < m = h*n, each a sum of
    terms: a (g^j)^s and b times the Frobenius images of f's
    `QPoly.basis_terms` for k_f, c and d in their place for h_f.
    Returns h_f o k_f^{-1} through the table inversion
    `interpolate_through_inverse` (k_f inverted by scatter, interpolated at
    the basis g^t, t < n, through its trace-dual basis, cached per field).
    Time and memory are O(q^n): two tables of q^n int64 entries and their
    inversion.  Raises NotAdmissible when k_f is not a bijection, which is
    exactly when is_admissible(f, phi) is False.  With verify=True the graph
    identity f_phi(k_f(x)) = h_f(x) is re-checked on every field element,
    reading f_phi's own table at k_f.
    """
    ctx = f.ctx
    if phi.ctx is not ctx:
        raise ValueError("polynomial and map live in different field contexts")
    e = phi.sigma_exp
    # the terms of k_f(g^j) and h_f(g^j), j < m: (a, c) (g^j)^s and
    # (b, d) (a_i g^(j q^i))^s
    xs = ctx.vfrob(np.arange(ctx.m)[:, None] % ctx.order + 1, e)
    fs = ctx.vfrob(f.basis_terms(), e)
    ac, bd = np.array([[phi.a, phi.c], [phi.b, phi.d]])[:, :, None, None]
    kv, hv = linear_table(ctx, np.concatenate((ctx.vmul(ac, xs), ctx.vmul(bd, fs)), axis=-1))
    coeffs = interpolate_through_inverse(ctx, kv, hv)
    if coeffs is None:
        raise NotAdmissible("k_f is singular for this map (footnote condition fails)")
    g = QPoly(ctx, coeffs)
    if verify and not np.array_equal(g.table()[kv], hv):
        raise InconsistentStructure("transported polynomial fails graph identity")
    return g


# ------------------------------------------------------------ slope action

def moebius_image(S: ImageSet, phi: SemilinearMap) -> ImageSet | None:
    """{(c + d z^s)/(a + b z^s) : z in S}, or None when some z goes to INF."""
    ctx = S.ctx
    if phi.ctx is not ctx:
        raise ValueError("set and map live in different field contexts")
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


# ------------------------------------------------------------ set equivalence

_BLOCK = 1 << 16  # array elements per vector pass
_STREAM_BITS = 16  # key bits a scan prunes on; a false match fails the image check
_NO_HITS = np.empty((0, 8), dtype=np.int64)


def _probes(ctx: FieldCtx, bits: int) -> np.ndarray:
    # g^1 .. g^bits, which avoid 0 and 1; all of F minus {0, 1} in small fields
    return np.arange(2, min(ctx.size, bits + 2), dtype=np.int64)


def _triple_keys(ctx: FieldCtx, mask, z1, z2, z3, probes, want=None):
    """Positions and keys of the triples (z1[i], z2[i], z3[i]) of the set
    `mask`; bit j of a key is [probes[..., j] in N(set; triple)], with one
    row of probes for every triple or, without `want`, one row each.  With
    `want`, a triple is dropped once its first _STREAM_BITS bits so far match
    no wanted key, checked by table after each bit once the prefixes
    outnumber the keys."""
    # M(z) = r (z - z1)/(z - z3) with r = (z2 - z3)/(z2 - z1), so
    # M^-1(y) = z3 + K/(y - r) with K = r (z3 - z1); y = r goes to INF
    r = ctx.vmul(ctx.vadd(z2, ctx.vneg(z3)), ctx.vinv(ctx.vadd(z2, ctx.vneg(z1))))
    nr, k = ctx.vneg(r), ctx.vmul(r, ctx.vadd(z3, ctx.vneg(z1)))
    pos = np.arange(z1.size)
    keys = np.zeros(z1.size, dtype=np.int64)
    for b in range(probes.shape[-1]):
        den = ctx.vadd(probes[..., b], nr)
        bit = mask[ctx.vadd(z3, ctx.vmul(k, ctx.vinv(den)))] & (den != 0)
        keys |= np.left_shift(bit, b, dtype=np.int64)
        if want is not None and want.size < 2 << b and b < _STREAM_BITS:
            table = np.zeros(2 << b, dtype=bool)
            table[want & ((2 << b) - 1)] = True
            keep = np.flatnonzero(table[keys])
            pos, keys, nr, k, z3 = (x[keep] for x in (pos, keys, nr, k, z3))
    return pos, keys


def _anchor_keys(T: ImageSet, probes):
    """The six orderings of the three smallest points of T, and their keys
    against sigma^e of the probes, one row of keys per automorphism."""
    ctx = T.ctx
    orders = np.array(list(permutations(T.indices()[:3])), dtype=np.int64)
    rows = np.repeat([ctx.vfrob(probes, e) for e in range(ctx.m)], len(orders), axis=0)
    _, keys = _triple_keys(ctx, T.mask, *np.tile(orders.T, ctx.m), rows)
    return orders, keys.reshape(ctx.m, len(orders))


def _keyed_triples(S: ImageSet, probes, want):
    """Keys and codes (i |S| + j) |S| + k of the unordered triples i < j < k
    of S, sorted by key, less those `_triple_keys` drops for `want`; every
    triple whose key is wanted is kept."""
    ctx = S.ctx
    s_idx = S.indices()
    size = s_idx.size
    pj, pk = np.triu_indices(size, 1)  # pairs j < k in lex order
    first = np.searchsorted(pj, np.arange(1, size - 1))  # the pairs after i
    start = np.concatenate(([0], np.cumsum(pj.size - first)))
    keys, codes = [], []
    for lo in range(0, int(start[-1]), _BLOCK):
        t = np.arange(lo, min(lo + _BLOCK, int(start[-1])))
        i = np.searchsorted(start, t, side="right") - 1
        p = first[i] + t - start[i]
        pos, key = _triple_keys(ctx, S.mask, *s_idx[[i, pj[p], pk[p]]], probes, want)
        keys.append(key)
        codes.append((i[pos] * size + pj[p[pos]]) * size + pk[p[pos]])
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate(codes)[order]


def _hits(S: ImageSet, keys, codes, T: ImageSet, orders, anchors) -> np.ndarray:
    """Every (e, i1, i2, i3, a, b, c, d) whose M = (a, b, c, d) carries
    S^sigma^e onto T, sending its three smallest points to T[i1], T[i2],
    T[i3], among the triples of S with sorted `keys` and their `codes`, for
    T of the size of S with the `orders` and `anchors` of `_anchor_keys`; by
    (e, i1, i2, i3), the order in which sending those points to each ordered
    triple of T, e by e, would meet them."""
    ctx = S.ctx
    s_idx = S.indices()
    t_idx = T.indices()
    size = s_idx.size
    found = [_NO_HITS]
    for e, qkeys in enumerate(anchors):
        lo = np.searchsorted(keys, qkeys, side="left")
        hi = np.searchsorted(keys, qkeys, side="right")
        row = np.repeat(np.arange(len(orders)), hi - lo)
        if not row.size:
            continue
        code = codes[np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])]
        src = ctx.vfrob(s_idx[[code // (size * size), code // size % size,
                               code % size]], e)
        ma, mb, mc, md = _carry(
            ctx, _cross_ratio_matrix(ctx, *src), _cross_ratio_matrix(ctx, *orders[row].T)
        )
        # full-image check; the three smallest points of S^sigma come first
        w = np.sort(ctx.vfrob(s_idx, e))
        block = max(1, _BLOCK // size)
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


def _scan(S: ImageSet, Ts) -> list[np.ndarray]:
    """The `_hits` of S against each T in Ts, from one scan of the triples
    of S pruned against the union of the anchor keys of the Ts of its size.

    Keys carry _STREAM_BITS bits, and one more per doubling of the number of
    targets, so that each target's lookups stay as selective as one
    target's.  ValueError when some T lives in another field context."""
    if any(T.ctx is not S.ctx for T in Ts):
        raise ValueError("sets live in different field contexts")
    if len(S) < 3:
        raise DegenerateSet(f"need at least 3 points, got {len(S)}")
    probes = _probes(S.ctx, _STREAM_BITS + max(len(Ts) - 1, 0).bit_length())
    anchors = [_anchor_keys(T, probes) if len(T) == len(S) else None for T in Ts]
    want = [a[1].ravel() for a in anchors if a is not None]
    if not want:
        return [_NO_HITS] * len(Ts)
    keys, codes = _keyed_triples(S, probes, np.unique(np.concatenate(want)))
    return [_NO_HITS if a is None else _hits(S, keys, codes, T, *a)
            for T, a in zip(Ts, anchors)]


def find_set_equivalence(S: ImageSet, T: ImageSet) -> SemilinearMap | None:
    """The lex-least phi in PGammaL(2,q^n) with moebius_image(S, phi) = T,
    canonically scaled and re-checked, or None.

    The one-target case of `set_equivalence_witnesses`, on 16-bit keys, with
    only the first hit built and checked.  Every pair costs one scan of the
    triples of S, equivalent or not: about 0.05 s for 121-point sets at
    F_243, and 2.3 s at a peak RSS of 45 MB for 341-point sets at F_{4^5}
    (2-core box).
    """
    hits = _scan(S, [T])[0]
    if not hits.size:
        return None
    e, _, _, _, a, b, c, d = hits[0].tolist()
    return _checked_witness(S, T, e, a, b, c, d)


def set_equivalence_witnesses(S: ImageSet, Ts) -> list[list[SemilinearMap]]:
    """For each T in Ts, every phi in PGammaL(2,q^n) with moebius_image(S,
    phi) = T, lex-least first as `find_set_equivalence` ranks them, each
    canonically scaled and re-checked; S against [S] lists the stabilizer
    of S.

    One scan of the triples of S serves every target, so a target's list is
    the same alone or in any batch.  All 121 mu sets of the new example at
    F_243 take about 0.2 s against its set L, and all 682 at F_{4^5} about
    7.5 s at a peak RSS of 230 MB; the stabilizer of L takes about 0.06 s at
    F_243 and 1.5 s at F_{4^5} (2-core box).
    """
    return [
        [_checked_witness(S, T, e, a, b, c, d) for e, _, _, _, a, b, c, d in hits.tolist()]
        for T, hits in zip(Ts, _scan(S, Ts))
    ]
