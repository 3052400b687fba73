"""Decision criteria for q-polynomials over F_{q^5} with equal ratio images.

Covers the coefficient identities e0..e6 forced by equal image sets, the
explicit trace-equivalence and pseudoregulus-equivalence tests with their
constructive witnesses, the monomial certification, and the complete
same-image classifiers for n <= 4 and n = 5.  Classifiers never abort on a
theory violation: an `inconsistent` outcome is data, produced only after
both the scalar-conjugate branch and the monomial branch have been
exhausted, and every returned witness is re-verified by reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImagesDiffer,
    InconsistentStructure,
    NotAdmissible,
    NotMonomial,
    NotStrictlyLinear,
    PreconditionViolated,
    TooLargeForExhaustive,
    WrongDegree,
)
from .gf import FieldCtx
from .imageset import (
    _power_sums_from_values,
    equal_image_tuples,
    image_of_ratio,
    images_equal,
    poly_from_tuple,
)
from .moebius import SemilinearMap, find_set_equivalence, transform_poly
from .qpoly import QPoly, monomial, trace_poly

_SAME_IMAGE_GUARD = 2**26
_POWER_SUM_BLOCK = 1 << 20


# ------------------------------------------------------------ e-relations

E_LABELS = ("e0", "e1", "e2", "e3", "e4", "e5", "e6")


@dataclass(frozen=True)
class ERelationReport:
    holds: tuple[bool, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def all_hold(self) -> bool:
        return all(self.holds)

    def failing(self) -> list[str]:
        return [E_LABELS[i] for i, ok in enumerate(self.holds) if not ok]

    def to_dict(self, ctx: FieldCtx) -> dict:
        return {
            lab: {"holds": self.holds[i], "lhs": ctx.fmt(self.lhs[i]), "rhs": ctx.fmt(self.rhs[i])}
            for i, lab in enumerate(E_LABELS)
        }


def _e_side_values(ctx: FieldCtx, a) -> tuple[int, ...]:
    """The seven coefficient expressions for one polynomial, transcribed
    term by term with no algebraic simplification."""
    q = ctx.q
    pw = ctx.pow_int
    mul = ctx.mul
    add = ctx.add

    def prod(*terms):
        acc = 1
        for x, e in terms:
            acc = mul(acc, pw(x, e) if x else 0)
        return acc

    a0, a1, a2, a3, a4 = a
    v0 = a0
    v1 = prod((a1, 1), (a4, q))
    v2 = prod((a2, 1), (a3, q**2))
    v3 = add(prod((a1, 1 + q), (a3, q**2)), prod((a2, 1), (a4, q + q**2)))
    v4 = add(prod((a1, 1), (a2, q + q**3)), prod((a3, 1 + q**3), (a4, q)))
    e5_terms = [
        prod((a1, 1 + q + q**2), (a2, q**3)),
        prod((a2, 1 + q), (a3, q**2 + q**3)),
        prod((a1, q), (a3, 1 + q**2 + q**3)),
        prod((a1, q**2), (a2, 1), (a3, q**3), (a4, q)),
        prod((a2, 1 + q + q**3), (a4, q**2)),
        prod((a1, q), (a2, q**3), (a3, 1), (a4, q**2)),
        prod((a1, 1), (a2, q), (a3, q**2), (a4, q**3)),
        prod((a1, 1 + q**2), (a4, q + q**3)),
        prod((a3, 1), (a4, q + q**2 + q**3)),
    ]
    v5 = 0
    for t in e5_terms:
        v5 = add(v5, t)
    e6_tr_terms = [
        prod((a1, q), (a2, q**2 + q**3 + q**4), (a3, 1)),
        prod((a1, q + q**3), (a2, q**4), (a3, 1 + q**2)),
        prod((a1, q + q**2), (a2, q**3 + q**4), (a4, 1)),
        prod((a1, q + q**2 + q**4), (a3, q**3), (a4, 1)),
        prod((a2, q), (a3, q**2 + q**3 + q**4), (a4, 1)),
        prod((a1, q**2), (a3, q**3 + q**4), (a4, 1 + q)),
        prod((a2, q + q**3), (a3, q**4), (a4, 1 + q**2)),
        prod((a1, q**2), (a2, q**4), (a4, 1 + q + q**3)),
    ]
    tr_arg = 0
    for t in e6_tr_terms:
        tr_arg = add(tr_arg, t)
    v6 = 0
    for x in (a1, a2, a3, a4):
        v6 = add(v6, ctx.norm_rel(x, 1) if x else 0)
    v6 = add(v6, ctx.trace_rel(tr_arg, 1))
    return (v0, v1, v2, v3, v4, v5, v6)


def check_e_relations(f: QPoly, g: QPoly) -> ERelationReport:
    """Evaluate the seven identities e0..e6 between the coefficients of f, g."""
    ctx = f.ctx
    if ctx.n != 5:
        raise WrongDegree(f"e-relations are stated for n = 5, got n = {ctx.n}")
    lhs = _e_side_values(ctx, f.coeffs)
    rhs = _e_side_values(ctx, g.coeffs)
    return ERelationReport(
        tuple(x == y for x, y in zip(lhs, rhs)), lhs, rhs
    )


def power_sums_all_equal(f: QPoly, g: QPoly) -> bool:
    """True iff the ratio power sums of f and g agree for every d in
    [1, q^n - 1]."""
    ctx = f.ctx
    rf = f.ratio_values()
    rg = g.ratio_values()
    # every d at once, in blocks of about 2^20 table entries
    step = max(1, _POWER_SUM_BLOCK // ctx.order)
    for lo in range(1, ctx.size, step):
        ds = np.arange(lo, min(lo + step, ctx.size), dtype=np.int64)
        if not np.array_equal(
            _power_sums_from_values(ctx, rf, ds), _power_sums_from_values(ctx, rg, ds)
        ):
            return False
    return True


# ---------------------------------------------------- explicit n=5 witnesses

@dataclass(frozen=True)
class Trace5Witness:
    phi: SemilinearMap
    lam: int  # transform_poly(f, phi) = Tr(lam^{q^4} x) / lam^{q^4}


def _trace5_ratio_conditions(ctx: FieldCtx, a) -> bool:
    # (a1/a2)^q = a2/a3 and (a2/a3)^q = a3/a4
    h = ctx.h
    r12 = ctx.div(a[1], a[2])
    r23 = ctx.div(a[2], a[3])
    r34 = ctx.div(a[3], a[4])
    return ctx.frobenius(r12, h) == r23 and ctx.frobenius(r23, h) == r34


def _solve_q_minus_1_root(ctx: FieldCtx, alpha: int) -> int:
    """Some lam with lam^(q-1) = alpha; requires N(alpha) = 1."""
    k = alpha - 1
    d = ctx.q - 1
    if k % d:
        raise ValueError("alpha is not a (q-1)-th power")
    return ctx.from_exp(k // d)


def trace5_test(f: QPoly) -> Trace5Witness | None:
    """Decide GammaL-equivalence of f's image to Im(Tr(x)/x) over F_{q^5}.

    Holds iff a1 a2 a3 a4 != 0, (a1/a2)^q = a2/a3, (a2/a3)^q = a3/a4 and
    N(a1) = N(a2); on success returns the explicit witness matrix, already
    re-verified by reconstruction.
    """
    ctx = f.ctx
    if ctx.n != 5:
        raise WrongDegree(f"trace test is stated for n = 5, got n = {ctx.n}")
    a = f.coeffs
    if 0 in a[1:]:
        return None
    if not _trace5_ratio_conditions(ctx, a):
        return None
    if ctx.norm_rel(a[1], 1) != ctx.norm_rel(a[2], 1):
        return None
    lam = _solve_q_minus_1_root(ctx, ctx.div(a[2], a[1]))
    # matrix ((1, 0), (1 - lam^(1-q^4) a0/a1, lam^(1-q^4)/a1)), sigma = id
    w = ctx.pow_int(lam, 1 - ctx.q**4)
    c = ctx.sub(1, ctx.mul(w, ctx.div(a[0], a[1])))
    d = ctx.div(w, a[1])
    phi = SemilinearMap(ctx, 1, 0, c, d, 0)
    mu = ctx.pow_int(lam, ctx.q**4)
    expected = trace_poly(ctx).scale_conjugate(mu)
    if transform_poly(f, phi) != expected:
        raise InconsistentStructure("trace witness failed reconstruction")
    return Trace5Witness(phi, lam)


@dataclass(frozen=True)
class PseudoregResult:
    kind: str  # "cond1" | "cond2" | "trace_fallback" | "none"
    phi: SemilinearMap | None = None
    monomial_exp: int | None = None  # transform_poly(f, phi) = x^{q^monomial_exp}


def pseudoalg_test(f: QPoly) -> PseudoregResult:
    """Decide GammaL-equivalence of f's image to Im(x^{q-1}) over F_{q^5},
    for f with a1 a2 a3 a4 != 0.

    Condition 1 ((a1/a2)^q = a2/a3, (a2/a3)^q = a3/a4, N(a1) != N(a2)) and
    condition 2 ((a4/a1)^{q^2} = a1/a3, (a1/a2)^{q^2} = a3/a4,
    N(a1) != N(a3)) each come with an explicit matrix carrying f to a power
    monomial; if the ratio systems hold but the norm inequality fails, the
    image is the trace image instead (trace_fallback).
    """
    ctx = f.ctx
    if ctx.n != 5:
        raise WrongDegree(f"pseudoregulus test is stated for n = 5, got n = {ctx.n}")
    a = f.coeffs
    if 0 in a[1:]:
        raise PreconditionViolated("requires a1 a2 a3 a4 != 0")
    q, h = ctx.q, ctx.h

    if _trace5_ratio_conditions(ctx, a):
        if ctx.norm_rel(a[1], 1) == ctx.norm_rel(a[2], 1):
            return PseudoregResult("trace_fallback")
        # alpha_j = a_j / a1; matrix product from the constructive proof
        al0 = ctx.div(a[0], a[1])
        al2 = ctx.div(a[2], a[1])
        m1 = (1, ctx.pow_int(al2, q**4), ctx.pow_int(al2, 1 + q + q**2 + q**3), 1)
        m2 = (1, 0, ctx.neg(al0), ctx.inv(a[1]))
        phi = SemilinearMap(ctx, *m1).compose(SemilinearMap(ctx, *m2))
        target = monomial(ctx, 1)
        if transform_poly(f, phi) != target:
            raise InconsistentStructure("condition-1 witness failed reconstruction")
        return PseudoregResult("cond1", phi, 1)

    r41 = ctx.div(a[4], a[1])
    r13 = ctx.div(a[1], a[3])
    r12 = ctx.div(a[1], a[2])
    r34 = ctx.div(a[3], a[4])
    if ctx.frobenius(r41, (2 * h) % ctx.m) == r13 and ctx.frobenius(r12, (2 * h) % ctx.m) == r34:
        if ctx.norm_rel(a[1], 1) == ctx.norm_rel(a[3], 1):
            return PseudoregResult("trace_fallback")
        al0 = ctx.div(a[0], a[3])
        al1 = ctx.div(a[1], a[3])
        m1 = (ctx.pow_int(al1, 1 + q + q**3 + q**4), 1, 1, ctx.pow_int(al1, q**2))
        m2 = (1, 0, ctx.neg(al0), ctx.inv(a[3]))
        phi = SemilinearMap(ctx, *m1).compose(SemilinearMap(ctx, *m2))
        target = monomial(ctx, 2)
        if transform_poly(f, phi) != target:
            raise InconsistentStructure("condition-2 witness failed reconstruction")
        return PseudoregResult("cond2", phi, 2)
    return PseudoregResult("none")


# ------------------------------------------------------ monomial certification

def _monomial_shape(f: QPoly) -> tuple[int, int] | None:
    """(k, alpha) if f = alpha x^{q^k} with alpha != 0 and k >= 1, else None."""
    nz = [(i, c) for i, c in enumerate(f.coeffs) if c]
    if len(nz) != 1 or nz[0][0] == 0:
        return None
    return nz[0][0], nz[0][1]


def monomial_classify(f: QPoly, g: QPoly) -> tuple[int, int]:
    """Given monomial f = alpha x^{q^k} and g with the same ratio image,
    certify g = beta x^{q^s} with gcd(s,n) = gcd(k,n) and matching relative
    norms; returns (beta, s)."""
    ctx = f.ctx
    shape = _monomial_shape(f)
    if shape is None:
        raise NotMonomial("f must be alpha * x^{q^k} with alpha != 0, k >= 1")
    k, alpha = shape
    if not images_equal(f, g):
        raise ImagesDiffer("monomial certification needs equal ratio images")
    gshape = _monomial_shape(g)
    if gshape is None:
        raise InconsistentStructure(
            "equal-image partner of a monomial is not a monomial"
        )
    s, beta = gshape
    t = math.gcd(k, ctx.n)
    if math.gcd(s, ctx.n) != t:
        raise InconsistentStructure(
            f"monomial partner has gcd({s},{ctx.n}) != gcd({k},{ctx.n})"
        )
    if ctx.norm_rel(alpha, t) != ctx.norm_rel(beta, t):
        raise InconsistentStructure("monomial partner has mismatched relative norm")
    return beta, s


# ------------------------------------------------------------- classification

@dataclass(frozen=True)
class ClassifyOutcome:
    kind: str  # scalar_conjugate | adjoint_scalar_conjugate | monomial_pair |
    #            images_differ | inconsistent
    lam: int | None = None
    phi: SemilinearMap | None = None
    i: int | None = None
    j: int | None = None
    alpha: int | None = None
    beta: int | None = None
    diagnostic: str | None = None

    @classmethod
    def scalar_conjugate(cls, lam):
        return cls("scalar_conjugate", lam=lam)

    @classmethod
    def adjoint_scalar_conjugate(cls, lam):
        return cls("adjoint_scalar_conjugate", lam=lam)

    @classmethod
    def monomial_pair(cls, phi, i, j, alpha, beta):
        return cls("monomial_pair", phi=phi, i=i, j=j, alpha=alpha, beta=beta)

    @classmethod
    def inconsistent(cls, diagnostic):
        return cls("inconsistent", diagnostic=diagnostic)

    def to_dict(self, ctx: FieldCtx) -> dict:
        out = {"kind": self.kind}
        if self.lam is not None:
            out["lambda"] = ctx.fmt(self.lam)
        if self.phi is not None:
            out["phi"] = self.phi.serialize()
        if self.i is not None:
            out.update(
                i=self.i,
                j=self.j,
                alpha=ctx.fmt(self.alpha),
                beta=ctx.fmt(self.beta),
            )
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        return out


def _scan_scalar_conjugate(f: QPoly, g: QPoly) -> int | None:
    """Least lambda (by element order) with f(lambda x)/lambda = g, if any."""
    ctx = f.ctx
    for lam in ctx.nonzero():
        if f.scale_conjugate(lam) == g:
            return lam
    return None


def _require_same_image(f: QPoly, g: QPoly):
    if not images_equal(f, g):
        raise ImagesDiffer("ratio image sets differ")


def classify_n_le_4(f: QPoly, g: QPoly) -> ClassifyOutcome:
    """Resolve a same-image pair over F_{q^n}, 2 <= n <= 4, as a scalar
    conjugate g = f(lambda x)/lambda or an adjoint scalar conjugate
    g = f^(lambda x)/lambda; `inconsistent` would falsify the classification
    and is produced only when neither form matches."""
    ctx = f.ctx
    if not 2 <= ctx.n <= 4:
        raise WrongDegree(f"classifier covers 2 <= n <= 4, got n = {ctx.n}")
    if not (f.is_strictly_linear() and g.is_strictly_linear()):
        raise NotStrictlyLinear("both polynomials must be strictly F_q-linear")
    _require_same_image(f, g)
    lam = _scan_scalar_conjugate(f, g)
    if lam is not None:
        return ClassifyOutcome.scalar_conjugate(lam)
    lam = _scan_scalar_conjugate(f.adjoint(), g)
    if lam is not None:
        return ClassifyOutcome.adjoint_scalar_conjugate(lam)
    return ClassifyOutcome.inconsistent(
        "no scalar or adjoint-scalar conjugation matches"
    )


def classify_n5(f: QPoly, g: QPoly) -> ClassifyOutcome:
    """Resolve a same-image pair over F_{q^5}.

    Scans the scalar-conjugate and adjoint-scalar-conjugate branches first;
    otherwise produces phi carrying Im(f(x)/x) onto the power-monomial image
    Im(x^{q-1}) (explicit matrices where the coefficient tests apply, blind
    set-equivalence search as a fallback) and certifies that f_phi and g_phi
    are monomials with equal norms.  Every witness is re-verified.
    """
    ctx = f.ctx
    if ctx.n != 5:
        raise WrongDegree(f"classifier covers n = 5, got n = {ctx.n}")
    if not (f.is_strictly_linear() and g.is_strictly_linear()):
        raise NotStrictlyLinear("both polynomials must be strictly F_q-linear")
    _require_same_image(f, g)

    lam = _scan_scalar_conjugate(f, g)
    if lam is not None:
        return ClassifyOutcome.scalar_conjugate(lam)
    lam = _scan_scalar_conjugate(f.adjoint(), g)
    if lam is not None:
        return ClassifyOutcome.adjoint_scalar_conjugate(lam)

    a = f.coeffs
    nz_high = [i for i in range(1, 5) if a[i]]
    phi = None
    trace_like = False
    if len(nz_high) == 1:
        # f = a0 x + a_i x^{q^i}: normalize to the bare monomial
        i = nz_high[0]
        phi = SemilinearMap(
            ctx, 1, 0, ctx.neg(ctx.div(a[0], a[i])), ctx.inv(a[i]), 0
        )
    elif len(nz_high) == 4:
        res = pseudoalg_test(f)
        if res.kind in ("cond1", "cond2"):
            phi = res.phi
        elif res.kind == "trace_fallback":
            trace_like = True
    if phi is None:
        if trace_like:
            return ClassifyOutcome.inconsistent(
                "trace-equivalent polynomial with no scalar-conjugate partner"
            )
        target = image_of_ratio(monomial(ctx, 1))
        phi = find_set_equivalence(image_of_ratio(f), target)
        if phi is None:
            return ClassifyOutcome.inconsistent(
                "no conjugation matches and the image is not "
                "pseudoregulus-equivalent"
            )

    try:
        f_phi = transform_poly(f, phi, verify=True)
    except NotAdmissible:
        return ClassifyOutcome.inconsistent("produced map is not admissible for f")
    g_phi = transform_poly(g, phi, verify=True)
    fshape = _monomial_shape(f_phi)
    if fshape is None:
        return ClassifyOutcome.inconsistent(
            f"transported f is not a monomial: {f_phi.to_string()}"
        )
    i, alpha = fshape
    try:
        beta, j = monomial_classify(f_phi, g_phi)
    except (InconsistentStructure, ImagesDiffer) as exc:
        return ClassifyOutcome.inconsistent(f"transported pair fails: {exc}")
    if ctx.norm_rel(alpha, 1) != ctx.norm_rel(beta, 1):
        return ClassifyOutcome.inconsistent("monomial coefficients have unequal norms")
    return ClassifyOutcome.monomial_pair(phi, i, j, alpha, beta)


def exhaustive_same_image(f: QPoly, masks: np.ndarray | None = None) -> list[QPoly]:
    """All strictly F_q-linear g with Im(g(x)/x) = Im(f(x)/x), by enumeration
    of every coefficient tuple; guarded at 2^26 tuples."""
    ctx = f.ctx
    if ctx.size**ctx.n > _SAME_IMAGE_GUARD:
        raise TooLargeForExhaustive(
            f"{ctx.size**ctx.n} coefficient tuples exceed 2^26"
        )
    if not f.is_strictly_linear():
        raise NotStrictlyLinear("f must be strictly F_q-linear")
    hits = equal_image_tuples(ctx, f, masks=masks)
    out = []
    for t in hits:
        g = poly_from_tuple(ctx, int(t))
        if g.is_strictly_linear():
            out.append(g)
    return out
