"""The semilinear group GammaL(2,q^n) acting on polynomial graphs and, through
slopes, on subsets of the projective line PG(1,q^n).

A SemilinearMap is an invertible 2x2 matrix (a,b,c,d) over F_{q^n} together
with a companion automorphism x -> x^(p^e).  Acting on a graph point
(x, f(x)) it produces (a x^s + b f(x)^s, c x^s + d f(x)^s); on the slope
z = f(x)/x it therefore acts as the Moebius-semilinear map

    z  ->  (c + d z^s) / (a + b z^s),

with the value INF when the denominator vanishes.  Slope values use the
field's int encoding plus the INF marker below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSet,
    InconsistentStructure,
    NotAdmissible,
    SingularMatrix,
)
from .gf import FieldCtx
from .imageset import ImageSet, image_of_ratio
from .qpoly import QPoly, moore_interpolate, solve

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

def _fp_coords(ctx: FieldCtx, e: int) -> list[int]:
    """F_p-coordinates of e in the basis 1, x, ..., x^(m-1) of the packed
    encoding, each written as an element of the prime field."""
    v = int(ctx._pck[e])
    out = []
    for _ in range(ctx.m):
        v, r = divmod(v, ctx.p)
        out.append(int(ctx._idx[r]))
    return out


def _from_fp_coords(ctx: FieldCtx, coords) -> int:
    v = 0
    for c in reversed(coords):
        v = v * ctx.p + int(ctx._pck[c])
    return int(ctx._idx[v])


def transform_poly(f: QPoly, phi: SemilinearMap, verify: bool = False) -> QPoly:
    """The transported q-polynomial f_phi with graph M * (graph f)^sigma.

    Writes k_f(x) = a x^s + b f(x)^s and h_f(x) = c x^s + d f(x)^s, solves
    k_f(x) = g^t (t < n) as an F_p-linear system, and interpolates
    h_f o k_f^{-1} back into q-polynomial coefficients.  With verify=True the graph identity is
    re-checked on every field element.  Raises NotAdmissible when k_f is
    singular, which is exactly when is_admissible(f, phi) is False.
    """
    ctx = f.ctx
    e = phi.sigma_exp

    def k_map(x):
        xs = ctx.frobenius(x, e)
        fs = ctx.frobenius(f.eval(x), e)
        return ctx.add(ctx.mul(phi.a, xs), ctx.mul(phi.b, fs))

    def h_map(x):
        xs = ctx.frobenius(x, e)
        fs = ctx.frobenius(f.eval(x), e)
        return ctx.add(ctx.mul(phi.c, xs), ctx.mul(phi.d, fs))

    # k_f is F_p-linear but not F_q-linear when sigma moves F_q, so the
    # system is written in F_p-coordinates, embedded in the prime field
    cols = [_fp_coords(ctx, k_map(int(ctx._idx[ctx.p**j]))) for j in range(ctx.m)]
    points = [ctx.from_exp(t) for t in range(ctx.n)]
    targets = [_fp_coords(ctx, beta) for beta in points]
    sol = solve(ctx, list(zip(*cols)), list(zip(*targets)))
    if sol is None:
        raise NotAdmissible("k_f is singular for this map (footnote condition fails)")
    values = [
        h_map(_from_fp_coords(ctx, [row[t] for row in sol])) for t in range(ctx.n)
    ]
    g = QPoly(ctx, moore_interpolate(ctx, points, values))

    if verify:
        X = np.arange(ctx.size, dtype=np.int64)
        xs = ctx.vfrob(X, e)
        fs = ctx.vfrob(f.eval_on(X), e)
        kv = ctx.vadd(ctx.vmul(phi.a, xs), ctx.vmul(phi.b, fs))
        hv = ctx.vadd(ctx.vmul(phi.c, xs), ctx.vmul(phi.d, fs))
        if not np.array_equal(g.eval_on(kv), hv):
            raise InconsistentStructure("transported polynomial fails graph identity")
    return g


# ------------------------------------------------------------ slope action

def moebius_image(S: ImageSet, phi: SemilinearMap) -> frozenset:
    """{(c + d z^s)/(a + b z^s) : z in S} as slopes, INF included when hit."""
    ctx = S.ctx
    z = S.indices()
    w = ctx.vfrob(z, phi.sigma_exp)
    den = ctx.vadd(phi.a, ctx.vmul(phi.b, w))
    num = ctx.vadd(phi.c, ctx.vmul(phi.d, w))
    vals = np.where(den == 0, INF, ctx.vmul(num, ctx.vinv(den)))
    return frozenset(int(v) for v in vals)


def _cross_ratio_matrix(ctx: FieldCtx, z1, z2, z3):
    # matrix (a, b, c, d) sending slopes (z1, z2, z3) to (0, 1, INF); the
    # slopes may be scalars or arrays of candidate triples
    d21 = ctx.vadd(z2, ctx.vneg(z1))
    d23 = ctx.vadd(z2, ctx.vneg(z3))
    return ctx.vneg(ctx.vmul(z3, d21)), d21, ctx.vneg(ctx.vmul(z1, d23)), d23


def find_set_equivalence(
    S: ImageSet, T: ImageSet, chunk: int = _SEARCH_CHUNK
) -> SemilinearMap | None:
    """Search GammaL(2,q^n) for phi with moebius_image(S, phi) = T (INF-free).

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
        pa, pb, pc, pd = _cross_ratio_matrix(ctx, *s_sig[:3])

        for lo in range(0, total, chunk):
            G = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            i1 = G // (mlen * mlen)
            i2 = (G // mlen) % mlen
            i3 = G % mlen
            distinct = (i1 != i2) & (i1 != i3) & (i2 != i3)
            if not distinct.any():
                continue
            G = G[distinct]
            qa, qb, qc, qd = _cross_ratio_matrix(
                ctx, t_idx[i1[distinct]], t_idx[i2[distinct]], t_idx[i3[distinct]]
            )
            # M = adj(Q) . P  maps s-anchors to (t1, t2, t3)
            nqb = ctx.vneg(qb)
            nqc = ctx.vneg(qc)
            ma = ctx.vadd(ctx.vmul(qd, pa), ctx.vmul(nqb, pc))
            mb = ctx.vadd(ctx.vmul(qd, pb), ctx.vmul(nqb, pd))
            mc = ctx.vadd(ctx.vmul(nqc, pa), ctx.vmul(qa, pc))
            md = ctx.vadd(ctx.vmul(nqc, pb), ctx.vmul(qa, pd))
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
                phi = SemilinearMap(
                    ctx, int(ma[k]), int(mb[k]), int(mc[k]), int(md[k]), e
                ).canonical_scaled()
                if moebius_image(S, phi) != T.as_frozenset():
                    raise InconsistentStructure(
                        "set-equivalence witness failed its self-check"
                    )
                return phi
    return None
