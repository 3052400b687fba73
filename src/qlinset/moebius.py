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
onto a set T.  For a triple s of distinct points of a set z let M_s send s
to (0, 1, INF), and let N(z;s) = M_s(z) minus {0, 1, INF}.  Cross-ratios
are PGL-invariant and commute with Frobenius, so a witness phi has
N(T;phi(s)) = N(sigma^e(S);sigma^e(s)) at every ordered triple s of S.
The key of a triple is the B = min(56, q^n - 2) bits [y_b in N(z;s)] for
the probes y_b = g^(b+1).  S is keyed once, on a star: for every e, the
ordered triples (u_0, u_y, u_z) of u = sigma^e(S), (m - 1)(m - 2) keys for
m points.  Each T is keyed at one ordered triple per point a, (t_a, t_j,
t_k) with j < k the two least indices other than a: m keys.  A witness
sends s_0 to exactly one t_a and pulls t_j, t_k back to one s_y, s_z, so it
meets exactly one pair of equal keys.  A key takes no field arithmetic per
bit.  With M0(w) = (w - z_i)/(w - z_k), bit b of (z_i, z_j, z_k) is
[g^(b+1) M0(z_j) in M0(z minus z_k)].  So each pair (i, k) gets one row of
bits indexed by log, built from one table of logs of the differences of
the set, and the key is the window of that row that starts at
log M0(z_j) + 1: one unaligned 64-bit read and a shift (`_window_keys`).
The star keys are pruned on their low 16 bits against a table of the point
keys of every target, then matched on all B bits.  A key match is kept
once its map carries all of S onto T, so a key never decides an answer.
The scan streams: each block of star keys, all under one automorphism, is
pruned, matched and checked as it comes, so it holds one block of matches
at a time, and only the witnesses outlive their block.
`set_equivalence_witnesses` lists, for each T, every witness, lex-least
first (S against [S] lists the stabilizer; `linset.verify_new_example`
checks one set against every mu), each list scaled to first nonzero entry
1 and re-checked against T in one array pass by the scan's own test;
`find_set_equivalence` returns the lex-least witness of one pair, or None
once the group is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

def _slope_values(ctx: FieldCtx, a, b, c, d, w):
    """(c + d w)/(a + b w) and its mask a + b w != 0, for one matrix or a column stack."""
    den = ctx.vadd(a, ctx.vmul(b, w))
    return ctx.vmul(ctx.vadd(c, ctx.vmul(d, w)), ctx.vinv(den)), den != 0


def moebius_image(S: ImageSet, phi: SemilinearMap) -> ImageSet | None:
    """{(c + d z^s)/(a + b z^s) : z in S}, or None when some z goes to INF."""
    ctx = S.ctx
    if phi.ctx is not ctx:
        raise ValueError("set and map live in different field contexts")
    w = ctx.vfrob(S.indices(), phi.sigma_exp)
    val, finite = _slope_values(ctx, phi.a, phi.b, phi.c, phi.d, w)
    return ImageSet.from_indices(ctx, val) if finite.all() else None


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
_ROW_BITS = 1 << 18  # row bits and log entries of the pairs keyed per block
_KEY_BITS = 56  # the most a 64-bit window read yields after its shift
_PRUNE_BITS = 16  # low key bits that star keys are pruned on
_NO_HITS = np.empty((0, 8), dtype=np.int64)


def _log_differences(ctx: FieldCtx, rows, pts):
    # log(pts[..., w] - rows[..., r]) at [..., r, w], -1 where they are
    # equal; int32, as every log is below MAX_FIELD_SIZE
    return (ctx.vadd(pts[..., None, :], ctx.vneg(rows[..., :, None])) - 1).astype(np.int32)


def _window_keys(ctx: FieldCtx, L, pi, pk, pair, j, bits: int):
    """Keys of the triples (z_i, z_j, z_k) = (z[pi[pair]], z[j], z[pk[pair]])
    of a set z, where row r of L holds log(z_w - z_r') at w, -1 at w = r',
    for the point z_r' of that row.  Bit b is [y_b in N(z; triple)] for the
    probe y_b = g^(b+1), b < bits <= 56.

    With M0(w) = (w - z_i)/(w - z_k), N(z; triple) is M0(z minus z_k) scaled
    by 1/M0(z_j), so bit b is [g^(b+1) M0(z_j) in M0(z minus z_k)]: bit
    log M0(z_j) + 1 + b of the pair's row, whose bit x is [g^x in M0(z
    minus z_k)], and whose first bits repeat past g^(q^n-1) = 1.  M0(w) = 0
    at w = z_i and is never 1, so the probe that the triple's map sends to
    INF, the y_b with y_b M0(z_j) = 1, reads 0.  A key is then one unaligned
    64-bit read of its pair's packed row and a shift."""
    order = ctx.order
    row_bytes = order // 8 + 8
    width = 8 * row_bytes
    li, lk = L[pi], L[pk]
    logs = li - lk  # log M0(z_w) for each pair, mod order:
    logs += order & (logs >> 31)  # order added where the int32 is negative
    pos = logs.take(pair * L.shape[1] + j) + 1
    # no log: M0 = 0 at w = z_i and INF at w = z_k; those land in a dropped column
    logs[(li < 0) | (lk < 0)] = width
    row_bits = np.zeros((pi.size, width + 1), dtype=bool)
    row_bits.ravel()[logs + (width + 1) * np.arange(pi.size)[:, None]] = True
    row_bits[:, order:width] = row_bits[:, :width - order]
    packed = np.packbits(row_bits[:, :width], axis=1, bitorder="little").ravel()
    word = sliding_window_view(packed, 8).view("<u8")[pair * row_bytes + (pos >> 3), 0]
    key = word >> (pos & 7).astype(np.uint64) & np.uint64((1 << bits) - 1)
    return key.astype(np.int64)


def _pairs_per_block(ctx: FieldCtx, size: int) -> int:
    # a pair costs its row of bits and its two log rows over the set
    return max(1, _ROW_BITS // (8 * (ctx.order // 8 + 8) + size))


def _point_triple(a):
    # the two least indices j < k other than each point index a
    return (a == 0).astype(np.int64), np.where(a < 2, 2, 1)


def _point_keys(ctx: FieldCtx, pts, bits: int):
    """Keys of the sets in the rows of `pts` at one ordered triple per point
    a, (t_a, t_j, t_k) with j, k from `_point_triple`: row t, column a.  A
    whole number of sets is keyed per block, from one table of logs of
    differences of each."""
    count, size = pts.shape
    a = np.arange(size)
    j, k = _point_triple(a)
    step = max(1, _pairs_per_block(ctx, size) // size)
    keys = []
    for lo in range(0, count, step):
        block = pts[lo:lo + step]
        L = _log_differences(ctx, block, block).reshape(-1, size)
        base = size * np.arange(len(block))[:, None]
        keys.append(_window_keys(ctx, L, (base + a).ravel(), (base + k).ravel(),
                                 np.arange(L.shape[0]), np.tile(j, len(block)), bits))
    return np.concatenate(keys).reshape(count, size)


def _star_keys(S: ImageSet, bits: int):
    """(e, u, blocks) for each automorphism e, ascending: u = sigma^e(S),
    and the blocks (key, y, z) of `_star_blocks` of u."""
    ctx = S.ctx
    s_idx = S.indices()
    for e in range(ctx.m):
        u = ctx.vfrob(s_idx, e)
        yield e, u, _star_blocks(ctx, u, bits)


def _star_blocks(ctx: FieldCtx, u, bits: int):
    """Blocks (key, y, z) of the keys of the ordered triples (u_0, u_y, u_z),
    y != z both nonzero, of the points u: the pairs (0, z) are keyed in
    blocks by `_window_keys`, on one table of logs of differences of u."""
    size = u.size
    step = _pairs_per_block(ctx, size)
    y = np.arange(1, size - 1)  # the y of pair z, with z itself skipped
    L = _log_differences(ctx, u, u)
    for lo in range(1, size, step):
        z = np.arange(lo, min(lo + step, size))
        pair = np.repeat(np.arange(z.size), y.size)
        j = np.tile(y, z.size)
        j += j >= z[pair]
        yield _window_keys(ctx, L, np.zeros_like(z), z, pair, j, bits), j, z[pair]


def _carried(ctx: FieldCtx, w, T: ImageSet, M):
    """Which maps M = (a, b, c, d), stacked as columns, carry the points w
    into T, and the images of w[:3] under the maps that do; in blocks of
    _BLOCK // |w| maps.  An invertible map carries w into T of the same size
    exactly when it carries w onto T."""
    block = max(1, _BLOCK // w.size)
    ok, head = [], []
    for lo in range(0, M[0].size, block):
        val, finite = _slope_values(ctx, *(x[lo:lo + block, None] for x in M), w)
        ok.append((finite & T.mask[val]).all(axis=1))
        head.append(val[ok[-1], :3])
    return np.concatenate(ok), np.concatenate(head)


def _hits(T: ImageSet, e: int, u, point, y, z) -> np.ndarray:
    """Every (e, i1, i2, i3, a, b, c, d) whose M = (a, b, c, d) carries
    u = S^sigma^e onto T, sending its three smallest points to T[i1], T[i2],
    T[i3], among the maps that send each star triple (u_0, u_y, u_z) to the
    triple of T keyed at its `point`."""
    ctx = T.ctx
    t_idx = T.indices()
    j, k = _point_triple(point)
    M = _carry(ctx, _cross_ratio_matrix(ctx, u[0], u[y], u[z]),
               _cross_ratio_matrix(ctx, t_idx[point], t_idx[j], t_idx[k]))
    # the three smallest points of S^sigma come first
    ok, head = _carried(ctx, np.sort(u), T, M)
    return np.column_stack((np.full(ok.sum(), e), np.searchsorted(t_idx, head),
                            *(x[ok] for x in M)))


def _scan(S: ImageSet, Ts):
    """For each automorphism e, ascending, the `_hits` of S^sigma^e against
    each T in Ts, by (i1, i2, i3): the order in which sending the three
    smallest points of S^sigma^e to each ordered triple of T would meet
    them.  So the first nonempty list of a T starts with its lex-least hit.
    Each block of star keys of S is pruned on its low _PRUNE_BITS bits
    against the point keys of every T of its size and matched on every bit.
    Its matches are numbered in key order and handed to `_hits` in runs of
    at most _BLOCK, each run's index arrays built only when it comes (one
    key's matches may span runs), so only hits outlive a run; keys have
    min(56, q^n - 2) bits.
    Nothing is yielded when no T has the size of S.

    A witness phi = M o sigma^e matches once, at the star triple that
    `_point_triple` of a = phi(s_0) pulls back.  ValueError when some T
    lives in another field context."""
    if any(T.ctx is not S.ctx for T in Ts):
        raise ValueError("sets live in different field contexts")
    if len(S) < 3:
        raise DegenerateSet(f"need at least 3 points, got {len(S)}")
    ctx = S.ctx
    size = len(S)
    same = [i for i, T in enumerate(Ts) if len(T) == size]
    if not same:
        return
    bits = min(_KEY_BITS, ctx.size - 2)
    tkeys = _point_keys(ctx, np.stack([Ts[i].indices() for i in same]), bits).ravel()
    wanted = np.zeros(1 << min(bits, _PRUNE_BITS), dtype=bool)
    wanted[tkeys & (wanted.size - 1)] = True
    points = np.argsort(tkeys)  # row * size + a, by key
    tkeys = tkeys[points]
    for e, u, blocks in _star_keys(S, bits):
        found = [[_NO_HITS] for _ in Ts]
        for key, y, z in blocks:
            keep = np.flatnonzero(wanted[key & (wanted.size - 1)])
            lo = np.searchsorted(tkeys, key[keep])
            count = np.searchsorted(tkeys, key[keep], side="right") - lo
            # the matches of keep[s] are numbered ends[s] - count[s] .. ends[s] - 1
            ends = np.cumsum(count)
            for at in range(0, int(ends[-1]) if ends.size else 0, _BLOCK):
                match = np.arange(at, min(at + _BLOCK, ends[-1]))
                s = np.searchsorted(ends, match, side="right")
                row, point = np.divmod(points[lo[s] + match - ends[s] + count[s]], size)
                star = keep[s]
                for r in np.flatnonzero(np.bincount(row)).tolist():
                    part = np.flatnonzero(row == r)
                    found[same[r]].append(_hits(Ts[same[r]], e, u, point[part],
                                                y[star[part]], z[star[part]]))
        found = [np.concatenate(hits) for hits in found]
        yield [hits[np.lexsort(hits[:, 3::-1].T)] for hits in found]


def _witnesses(S: ImageSet, T: ImageSet, hits) -> list[SemilinearMap]:
    """One SemilinearMap per row (e, i1, i2, i3, a, b, c, d) of `_hits`, in
    order: (a, b, c, d) scaled to first nonzero entry 1, then re-checked by
    `_carried` to carry S^sigma^e onto T; InconsistentStructure if one fails."""
    ctx = S.ctx
    e, M = hits[:, 0], hits[:, 4:]
    M = ctx.vmul(M, ctx.vinv(M[np.arange(len(M)), (M != 0).argmax(axis=1)])[:, None])
    for s in np.flatnonzero(np.bincount(e)).tolist():
        if not _carried(ctx, ctx.vfrob(S.indices(), s), T, tuple(M[e == s].T))[0].all():
            raise InconsistentStructure("set-equivalence witness failed its self-check")
    return [SemilinearMap(ctx, *m, s) for s, m in zip(e.tolist(), M.tolist())]


def find_set_equivalence(S: ImageSet, T: ImageSet) -> SemilinearMap | None:
    """The lex-least phi in PGammaL(2,q^n) with moebius_image(S, phi) = T,
    scaled and re-checked by `_witnesses`, or None.

    The one-target case of `set_equivalence_witnesses`, which stops after
    the first automorphism e with a hit, as every hit under e ranks before
    every hit under a later automorphism; only the first hit is built and
    checked.  A pair that is not equivalent costs the star keys of S under
    every automorphism and one row per point of T: about 0.01-0.02 s for
    121-point sets at F_243, 0.08-0.11 s at a peak RSS of 41 MB for
    341-point sets at F_{4^5}, and 0.3-0.45 s at 87 MB for 781-point sets
    at F_{5^5} (2-core box, fresh interpreter).  An equivalent pair with a
    witness under sigma^0 stops after the star keys of S itself: about
    0.016 s at F_{4^5} and 0.1 s at F_{5^5}.
    """
    for [hits] in _scan(S, [T]):
        if hits.size:
            return _witnesses(S, T, hits[:1])[0]
    return None


def set_equivalence_witnesses(S: ImageSet, Ts) -> list[list[SemilinearMap]]:
    """For each T in Ts, every phi in PGammaL(2,q^n) with moebius_image(S,
    phi) = T, lex-least first as `find_set_equivalence` ranks them; each
    target's list is scaled and re-checked by `_witnesses` in one array
    pass.  S against [S] lists the stabilizer of S.

    One set of star keys of S serves every target, so a target's list is
    the same alone or in any batch; each target adds one row per point.
    The scan streams its key matches block by block, at most _BLOCK of them
    per check, so memory follows one block of keys and the witnesses, not
    every match: the 1778 maps fixing x^q at F_128, where nearly every key
    matches, take 3-4 s at a peak RSS of 52 MB, and the 4080 at F_256
    190-200 s at 50 MB.
    All 121 mu sets of the new example at F_243 take about 0.05-0.10 s
    against its set L, all 682 at F_{4^5} 1.7-2.0 s at a peak RSS of 46 MB,
    all 2343 at F_{5^5} 40 s at 134 MB; the stabilizer of L 0.02 s, 0.1-0.14
    s and 0.3-0.45 s there, that of x^q (1210 and 6820 maps) 0.03-0.05 s at
    F_243 and 0.26-0.45 s at F_{4^5} (2-core box, fresh interpreter).
    """
    per_e = list(_scan(S, Ts))
    return [_witnesses(S, T, np.concatenate([_NO_HITS] + [hits[i] for hits in per_e]))
            for i, T in enumerate(Ts)]
