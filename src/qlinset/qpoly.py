"""Algebra of q-polynomials f(x) = sum a_i x^{q^i} over F_{q^n}.

A QPoly stores exactly n coefficients (index i belongs to x^{q^i}) and
represents an F_q-linear map of the big field.  Everything here is pure;
QPoly values are immutable and hashable, so partner lists can be compared
as sets and polynomials can key dictionaries.

Every whole-field table of an F_p-linear map comes from one entry point,
`linear_table`: the q^n values follow from the h*n values at the elements
g^j of the polynomial basis, one base-p digit at a time, by carry-free
additions in the packed (additive) encoding (`gf._packed_linear_table`,
which also builds the field's table of powers), then a reorder by element
index and one gather through the log table.  `QPoly.table` calls `linear_table` for f, from the terms
a_i g^(j q^i) of f(g^j) (`basis_terms`); `ratio_values` divides that table
by x as index subtraction, `QPoly.inverse` inverts it by scatter, and
graph transport (`moebius.transform_poly`) tabulates its two graph
coordinates with it in one call.  The values of f at any array of points
xs are `f.table()[xs]`.

Interpolation at the basis 1, g, ..., g^(n-1) and coordinates in it both go
through the trace-dual basis beta of that basis, cached per field as the
matrix W[t][k] = beta_t^(q^k); no linear system is solved.  The one
elimination left is the rank behind `kernel_dim`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentStructure,
    InvalidParameters,
    NotInvertible,
    ZeroPolynomial,
    ZeroScalar,
)
from .gf import FieldCtx, _packed_linear_table


@dataclass(frozen=True)
class QPoly:
    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        ctx, coeffs = self.ctx, tuple(int(c) for c in self.coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(f"need exactly n = {ctx.n} coefficients, got {len(coeffs)}")
        for i, c in enumerate(coeffs):
            if not 0 <= c < ctx.size:
                raise ValueError(f"coefficient {i} = {c} is no element index in [0, {ctx.size})")
        object.__setattr__(self, "coeffs", coeffs)

    def __hash__(self):
        # coefficients only: ctx hashes by id, which differs from run to run
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly[{self.ctx.p}^{self.ctx.h}^{self.ctx.n}]({self.to_string()})"

    def to_string(self) -> str:
        return ",".join(self.ctx.fmt(c) for c in self.coeffs)

    @classmethod
    def from_string(cls, ctx: FieldCtx, s: str) -> "QPoly":
        return cls(ctx, [ctx.parse(tok) for tok in s.split(",")])

    # ------------------------------------------------------------ evaluation

    def eval(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a:
                acc = ctx.add(acc, ctx.mul(a, ctx.frobenius(x, (ctx.h * i) % ctx.m)))
        return acc

    __call__ = eval

    def basis_terms(self) -> np.ndarray:
        """The (m, n) terms a_i (g^j)^(q^i) = a_i g^(j q^i), j < m = h*n, in
        one vmul: summed over i they are the values f(g^j) that fix f as an
        F_p-linear map."""
        ctx = self.ctx
        e = np.outer(np.arange(ctx.m), [pow(ctx.q, i, ctx.order) for i in range(ctx.n)])
        return ctx.vmul(self.coeffs, e % ctx.order + 1)

    def table(self) -> np.ndarray:
        """f(x) for every element x, indexed by element index: the int64
        array of shape (q^n,) that `linear_table` builds from the
        `basis_terms`.  The values at points xs are `table()[xs]`."""
        return linear_table(self.ctx, self.basis_terms())

    def ratio_values(self) -> np.ndarray:
        """f(x)/x over all nonzero x, ordered by discrete log of x.

        Division is index arithmetic on the `table`: where f(g^k) = g^(t-1)
        has index t > 0, f(g^k)/g^k has index (t - 1 - k) mod (q^n - 1) + 1,
        that is r = t - k, plus q^n - 1 where r <= 0; a zero value stays zero.
        """
        ctx = self.ctx
        t = self.table()[1:]
        out = t - np.arange(ctx.order)
        out += ctx.order * (out <= 0)
        out *= t != 0
        return out

    # --------------------------------------------------------------- algebra

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def compose(self, other: "QPoly") -> "QPoly":
        """Coefficients of self(other(x)) reduced mod x^{q^n} - x."""
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ValueError("polynomials live in different field contexts")
        n = ctx.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = (i + j) % n
                term = ctx.mul(a, ctx.frobenius(b, (ctx.h * i) % ctx.m))
                out[k] = ctx.add(out[k], term)
        return QPoly(ctx, out)

    def adjoint(self) -> "QPoly":
        """The adjoint w.r.t. the bilinear form Tr(xy): Tr(x f(y)) = Tr(y f^(x))."""
        ctx = self.ctx
        n = ctx.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            j = (n - i) % n
            out[j] = ctx.frobenius(a, (ctx.h * j) % ctx.m)
        return QPoly(ctx, out)

    def scale_conjugate(self, lam: int) -> "QPoly":
        """f(lambda x)/lambda; coefficient i becomes a_i * lambda^(q^i - 1)."""
        ctx = self.ctx
        if lam == 0:
            raise ZeroScalar("scaling element must be nonzero")
        if not 0 < lam < ctx.size:
            raise ValueError(f"lambda = {lam} is no element index in [0, {ctx.size})")
        out = [
            ctx.mul(a, ctx.pow_int(lam, e)) if a else 0
            for a, e in zip(self.coeffs, ratio_exponents(ctx))
        ]
        return QPoly(ctx, out)

    def max_field_of_linearity(self) -> int:
        """Largest s | n with a_i = 0 for every i not divisible by s."""
        if self.is_zero():
            raise ZeroPolynomial("the zero map has no field of linearity")
        n = self.ctx.n
        s = n
        for i, a in enumerate(self.coeffs):
            if a and i:
                s = math.gcd(s, i)
        return s

    def is_strictly_linear(self) -> bool:
        return not self.is_zero() and self.max_field_of_linearity() == 1

    # ------------------------------------------------- matrix representation

    def as_matrix(self):
        """Matrix of the induced F_q-linear map in the basis 1, g, ..., g^(n-1).

        Entries are field elements lying in F_q; column j holds the
        coordinates (`_coords_in_gen_basis`) of f(g^j), row j of `basis_terms` summed.
        """
        ctx = self.ctx
        return _coords_in_gen_basis(ctx, ctx.vfold_add(self.basis_terms()[:ctx.n])).tolist()

    def kernel_dim(self) -> int:
        """n minus the rank of `as_matrix`, by elimination over the field."""
        return self.ctx.n - _rank(self.ctx, self.as_matrix())

    def inverse(self) -> "QPoly":
        """Compositional inverse: compose(f, inverse(f)) is the identity.

        Inverts the whole-field `table` of f by scatter, as graph transport
        does (`interpolate_through_inverse`).
        """
        X = np.arange(self.ctx.size, dtype=np.int64)
        coeffs = interpolate_through_inverse(self.ctx, self.table(), X)
        if coeffs is None:
            raise NotInvertible("kernel is nontrivial")
        return QPoly(self.ctx, coeffs)


# ------------------------------------------------------------- constructors

def zero_poly(ctx: FieldCtx) -> QPoly:
    return QPoly(ctx, [0] * ctx.n)


def identity_poly(ctx: FieldCtx) -> QPoly:
    return QPoly(ctx, [1] + [0] * (ctx.n - 1))


def monomial(ctx: FieldCtx, i: int, coeff: int = 1) -> QPoly:
    """coeff * x^{q^i}; InvalidParameters unless 0 <= i < n."""
    if not 0 <= i < ctx.n:
        raise InvalidParameters(f"monomial x^(q^i) needs 0 <= i < n = {ctx.n}; got i = {i}")
    out = [0] * ctx.n
    out[i] = coeff
    return QPoly(ctx, out)


def trace_poly(ctx: FieldCtx) -> QPoly:
    """Tr(x) = x + x^q + ... + x^{q^{n-1}}."""
    return QPoly(ctx, [1] * ctx.n)


# --------------------------------------------------------- ratio exponents

def ratio_exponents(ctx: FieldCtx) -> list[int]:
    """(q^i - 1) mod (q^n - 1) for i < n: a x^{q^i} / x = a x^(q^i - 1)."""
    return [(ctx.q**i - 1) % ctx.order for i in range(ctx.n)]


# ------------------------------------ whole-field tables of F_p-linear maps

def linear_table(ctx: FieldCtx, terms) -> np.ndarray:
    """L(x) for every element x, indexed by element index, for the
    F_p-linear map L with L(g^j) = sum_i terms[..., j, i], j < m = h*n.

    Leading axes of terms are maps tabulated side by side; the result has
    shape terms.shape[:-2] + (q^n,), int64.  As g^j has packed encoding
    p^j, `gf._packed_linear_table` tabulates L in packed order from the
    terms' packed encodings; out[pck] reorders that table by element
    index, and a gather through the log table idx gives the values as
    indices.  Both gathers read the field's own int32 tables.
    """
    pck = ctx._pck
    out = _packed_linear_table(ctx.p, ctx.m, pck.take(np.asarray(terms, dtype=np.int64)))
    return ctx._idx.take(out.take(pck, axis=-1)).astype(np.int64)


# ------------------------------------------------- linear algebra over F_q^n

def _rank(ctx: FieldCtx, mat) -> int:
    """Rank over the field of the square matrix `mat` (a list of rows), by
    elimination."""
    m = [list(row) for row in mat]
    n = len(m)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ctx.inv(m[r][c])
        for i in range(r + 1, n):
            if m[i][c]:
                f = ctx.mul(inv, m[i][c])
                m[i] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(m[i], m[r])]
        r += 1
    return r


def moore_interpolate(ctx: FieldCtx, values):
    """Coefficients of the q-polynomial taking values[t] at g^t, t < n.

    With beta the trace-dual basis of 1, g, ..., g^(n-1) and the cached
    W[t][k] = beta_t^(q^k) (`_dual_basis_matrix`), a_k = sum_t W[t][k] values[t].
    """
    W = _dual_basis_matrix(ctx)
    return ctx.vfold_add(ctx.vmul(W.T, np.asarray(values, dtype=np.int64))).tolist()


def interpolate_through_inverse(ctx: FieldCtx, kv: np.ndarray, hv: np.ndarray):
    """Coefficients of the q-polynomial h o k^-1, or None when k is not a
    bijection.

    kv and hv tabulate the F_q-linear maps k and h over all of F_{q^n}
    (kv[x] = k(x)).  k is inverted by scatter, kinv[k(x)] = x, and h o k^-1
    is interpolated at g^t, t < n.  Time and memory are O(q^n).
    """
    kinv = np.full(ctx.size, -1, dtype=np.int64)
    kinv[kv] = np.arange(ctx.size, dtype=np.int64)
    if (kinv < 0).any():
        return None
    basis = [ctx.from_exp(t) for t in range(ctx.n)]
    return moore_interpolate(ctx, hv[kinv[basis]])


def _conjugates(ctx: FieldCtx, A) -> np.ndarray:
    """A^(q^k), k < n, along a new last axis; vfold_add of it is Tr_{q^n/q}."""
    return np.stack([ctx.vfrob(A, ctx.h * k % ctx.m) for k in range(ctx.n)], axis=-1)


_DUAL_CACHE: "weakref.WeakKeyDictionary[FieldCtx, np.ndarray]" = weakref.WeakKeyDictionary()


def _dual_basis_matrix(ctx: FieldCtx) -> np.ndarray:
    """W[t][k] = beta_t^(q^k), beta the trace-dual basis of 1, g, ..., g^(n-1).

    With (x - g) b(x) the minimal polynomial of g over F_q, that is
    b(x) = prod_{k=1}^{n-1} (x - g^(q^k)), beta_j = b_j / b(g) (Lidl and
    Niederreiter, Finite Fields, ch. 2); b(g) != 0 as the conjugates of g
    are distinct.  W is the inverse of the Moore matrix (g^(j q^k))_{k,j};
    built once per field and checked against Tr(beta_i g^j) = [i = j].
    """
    W = _DUAL_CACHE.get(ctx)
    if W is None:
        n, g = ctx.n, ctx.from_exp(1)
        b, bg = [1], 1
        for k in range(1, n):
            c = ctx.neg(ctx.frobenius(g, ctx.h * k % ctx.m))
            # b(x) <- b(x) (x + c), coefficients low-degree first
            b = [ctx.add(lo, ctx.mul(c, hi)) for lo, hi in zip([0] + b, b + [0])]
            bg = ctx.mul(bg, ctx.add(g, c))
        beta = ctx.vmul(b, ctx.inv(bg))
        basis = np.array([ctx.from_exp(j) for j in range(n)], dtype=np.int64)
        tr = ctx.vfold_add(_conjugates(ctx, ctx.vmul(beta[:, None], basis)))
        if not (tr == np.eye(n)).all():
            raise InconsistentStructure("Tr(beta_i g^j) = [i = j] fails for the dual basis")
        W = _conjugates(ctx, beta)
        _DUAL_CACHE[ctx] = W
    return W


def _coords_in_gen_basis(ctx: FieldCtx, y):
    """Coordinates of y in the F_q-basis 1, g, ..., g^(n-1): c_j =
    Tr_{q^n/q}(beta_j y), beta the trace-dual basis.

    y is an element or an array of them; the coordinates run along a new
    first axis of length n.
    """
    y = np.asarray(y, dtype=np.int64)
    beta = _dual_basis_matrix(ctx)[:, 0]
    return ctx.vfold_add(_conjugates(ctx, ctx.vmul(beta.reshape((-1,) + (1,) * y.ndim), y)))
