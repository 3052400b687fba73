"""q-polynomial algebra: evaluation, composition, adjoint, matrices, inversion."""

import random

import numpy as np
import pytest

from qlinset.errors import (
    InvalidParameters,
    NotAdmissible,
    NotInvertible,
    ZeroPolynomial,
    ZeroScalar,
)
from qlinset.gf import MAX_TABLE_SIZE, build_field
from qlinset.moebius import SemilinearMap, is_admissible, transform_poly
from qlinset.qpoly import (
    QPoly,
    _coords_in_gen_basis,
    _dual_basis_matrix,
    identity_poly,
    interpolate_through_inverse,
    monomial,
    moore_interpolate,
    trace_poly,
    zero_poly,
)


def rand_poly(ctx, r):
    return QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])


def test_eval_identity_and_trace(f32):
    idp = identity_poly(f32)
    tr = trace_poly(f32)
    for x in f32.elements():
        assert idp.eval(x) == x
        assert tr.eval(x) in (0, 1)


def test_eval_matches_repeated_squaring_oracle(f243):
    ctx = f243
    r = random.Random(10)

    def slow_eval(f, x):
        acc = 0
        for i, a in enumerate(f.coeffs):
            t = x
            for _ in range(ctx.h * i):  # p-th power by repeated multiplication
                y = 1
                for _ in range(ctx.p):
                    y = ctx.mul(y, t)
                t = y
            acc = ctx.add(acc, ctx.mul(a, t))
        return acc

    for _ in range(40):
        f = rand_poly(ctx, r)
        x = r.randrange(ctx.size)
        assert f.eval(x) == slow_eval(f, x)


def test_eval_on_matches_scalar(f243):
    r = random.Random(11)
    f = rand_poly(f243, r)
    X = np.arange(f243.size)
    vals = f.table()[X]
    for x in range(0, f243.size, 7):
        assert vals[x] == f.eval(x)


def test_coefficients_outside_the_field_are_rejected(f32):
    # the scalar eval would wrap them mod q^n - 1 and the table index past the field
    for coeffs, bad in (([40, 3, 0, 0, 0], "40"), ([0, 0, -1, 0, 0], "-1"), ([0] * 4 + [32], "32")):
        with pytest.raises(ValueError, match=f"= {bad} "):
            QPoly(f32, coeffs)
    assert QPoly(f32, [31, 0, 0, 0, 0]).coeffs == (31, 0, 0, 0, 0)


def _ratio_by_terms(f):
    """f(x)/x at x = g^k, k < q^n - 1, summed term by term: a_i x^(q^i - 1)."""
    ctx = f.ctx
    k = np.arange(ctx.order, dtype=np.int64)
    acc = np.zeros(ctx.order, dtype=np.int64)
    for i, a in enumerate(f.coeffs):
        if a:
            e = (ctx.q**i - 1) % ctx.order
            acc = ctx.vadd(acc, ctx.vmul(a, k * e % ctx.order + 1))
    return acc


def _table_by_vadd(f):
    """The whole-field table by field additions: in packed order,
    out[c L + v] = out[(c - 1) L + v] + f(g^j) for L = p^j, c = 1..p-1, one
    vadd each, then reordered by element index."""
    ctx = f.ctx
    out = np.zeros(ctx.size, dtype=np.int64)
    L = 1
    for j in range(ctx.m):
        fj = f.eval(ctx.from_exp(j))
        for c in range(1, ctx.p):
            out[c * L:(c + 1) * L] = ctx.vadd(out[(c - 1) * L:c * L], fj)
        L *= ctx.p
    return out[ctx._pck]


def _transform_by_vadd(f, phi):
    """Coefficients of the transported polynomial from whole-field vector
    arithmetic on `_table_by_vadd`, or None when phi is not admissible."""
    ctx, e = f.ctx, phi.sigma_exp
    xs = ctx.vfrob(np.arange(ctx.size, dtype=np.int64), e)
    fs = ctx.vfrob(_table_by_vadd(f), e)
    kv = ctx.vadd(ctx.vmul(phi.a, xs), ctx.vmul(phi.b, fs))
    hv = ctx.vadd(ctx.vmul(phi.c, xs), ctx.vmul(phi.d, fs))
    return interpolate_through_inverse(ctx, kv, hv)


@pytest.mark.parametrize(
    "spec",
    [(2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 3), (7, 1, 3), (3, 2, 2), (3, 1, 8), (2, 1, 13),
     (3, 1, 10)],
    ids=["f32", "f243", "f1024", "f125", "f343", "f81-tower", "f6561", "f8192", "f59049"],
)
def test_table_and_ratio_values_against_oracles(spec):
    # the vadd chain by lookup tables up to MAX_TABLE_SIZE and by index and
    # Zech arithmetic above it; odd p from 3 to 7
    ctx = build_field(*spec)
    r = random.Random(24)
    X = np.arange(ctx.size, dtype=np.int64)
    sample = r.sample(range(ctx.size), 32)
    polys = [zero_poly(ctx), trace_poly(ctx)]
    polys += [monomial(ctx, i, r.randrange(1, ctx.size)) for i in range(ctx.n)]
    polys += [QPoly(ctx, [r.randrange(1, ctx.size) for _ in range(ctx.n)]) for _ in range(4)]
    inverted = transported = 0
    for f in polys:
        tab = f.table()
        oracle = _table_by_vadd(f)
        assert tab.dtype == np.int64 and tab.shape == (ctx.size,)
        assert np.array_equal(tab, oracle), f
        assert [int(tab[x]) for x in sample] == [f.eval(x) for x in sample], f
        # one value per point of PG(n-1, q): f(x)/x at g^k, k < R, repeats
        # q - 1 times over all nonzero x, as F_q^* = <g^R>
        ratios = f.ratio_values()
        R = ctx.order // (ctx.q - 1)
        whole = ctx.vmul(oracle[1:], ctx.vinv(X[1:]))
        assert ratios.shape == (R,), f
        assert np.array_equal(ratios, whole[:R]), f
        assert np.array_equal(whole, np.tile(ratios, ctx.q - 1)), f
        assert np.array_equal(ratios, _ratio_by_terms(f)[:R]), f
        inv = interpolate_through_inverse(ctx, oracle, X)
        if inv is None:
            with pytest.raises(NotInvertible):
                f.inverse()
        else:
            assert f.inverse().coeffs == tuple(inv), f
            inverted += 1
        a, b, c, d = (r.randrange(ctx.size) for _ in range(4))
        if ctx.mul(a, d) == ctx.mul(b, c):
            continue
        phi = SemilinearMap(ctx, a, b, c, d, r.randrange(ctx.m))
        moved = _transform_by_vadd(f, phi)
        if moved is None:
            with pytest.raises(NotAdmissible):
                transform_poly(f, phi)
        else:
            assert transform_poly(f, phi, verify=True).coeffs == tuple(moved), (f, phi)
            transported += 1
    assert inverted and transported


@pytest.mark.parametrize("spec", [(2, 2, 10), (3, 1, 13)], ids=["f4^10", "f3^13"])
def test_table_on_wide_fields_against_scalar_eval(spec):
    # at 3^13 a value's 13 digit sums, 5 bits each, fill more than one int64
    ctx = build_field(*spec)
    r = random.Random(26)
    f = QPoly(ctx, [r.randrange(1, ctx.size) for _ in range(ctx.n)])
    tab = f.table()
    assert tab.dtype == np.int64 and tab.shape == (ctx.size,)
    for x in r.sample(range(ctx.size), 64):
        assert int(tab[x]) == f.eval(x)


@pytest.mark.parametrize("spec", [(3, 1, 8), (2, 1, 13)], ids=["f6561", "f8192"])
def test_inverse_and_transport_above_the_table_limit(spec):
    ctx = build_field(*spec)
    assert ctx.size > MAX_TABLE_SIZE
    r = random.Random(25)
    f = rand_poly(ctx, r)
    while f.kernel_dim():
        f = rand_poly(ctx, r)
    assert f.compose(f.inverse()) == identity_poly(ctx)
    while True:
        a, b, c, d = (r.randrange(1, ctx.size) for _ in range(4))
        if ctx.mul(a, d) == ctx.mul(b, c):
            continue
        phi = SemilinearMap(ctx, a, b, c, d, r.randrange(1, ctx.m))
        if is_admissible(f, phi):
            break
    g = transform_poly(f, phi, verify=True)
    # the graph identity g(a x^s + b f(x)^s) = c x^s + d f(x)^s, by scalar arithmetic
    s = phi.sigma_exp
    for x in r.sample(range(ctx.size), 16):
        xs, fs = ctx.frobenius(x, s), ctx.frobenius(f.eval(x), s)
        k = ctx.add(ctx.mul(a, xs), ctx.mul(b, fs))
        assert g.eval(k) == ctx.add(ctx.mul(c, xs), ctx.mul(d, fs))


def test_compose(f32):
    r = random.Random(12)
    idp = identity_poly(f32)
    xq = monomial(f32, 1)
    assert xq.compose(xq) == monomial(f32, 2)
    for _ in range(30):
        f = rand_poly(f32, r)
        assert f.compose(idp) == f
        assert idp.compose(f) == f
        g = rand_poly(f32, r)
        c = f.compose(g)
        for x in f32.elements():
            assert c.eval(x) == f.eval(g.eval(x))


def test_monomial_rejects_exponents_outside_zero_to_n(f32):
    assert monomial(f32, 4) == QPoly(f32, [0, 0, 0, 0, 1])
    for i in (-1, f32.n):
        with pytest.raises(InvalidParameters, match=f"got i = {i}"):
            monomial(f32, i)


def test_compose_associative(f243):
    r = random.Random(13)
    for _ in range(1000):
        f, g, h = (rand_poly(f243, r) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_adjoint_formula_and_involution(f32):
    assert trace_poly(f32).adjoint() == trace_poly(f32)
    assert monomial(f32, 1).adjoint() == monomial(f32, 4)
    r = random.Random(14)
    for _ in range(100):
        f = rand_poly(f32, r)
        assert f.adjoint().adjoint() == f


def test_adjoint_bilinear_identity_exhaustive(f32):
    r = random.Random(15)
    for _ in range(5):
        f = rand_poly(f32, r)
        fa = f.adjoint()
        for x in f32.elements():
            for y in f32.elements():
                assert f32.trace_rel(f32.mul(x, f.eval(y)), 1) == f32.trace_rel(
                    f32.mul(y, fa.eval(x)), 1
                )


def test_adjoint_bilinear_identity_random(f243):
    r = random.Random(16)
    for _ in range(10_000):
        f = rand_poly(f243, r)
        x, y = r.randrange(f243.size), r.randrange(f243.size)
        assert f243.trace_rel(f243.mul(x, f.eval(y)), 1) == f243.trace_rel(
            f243.mul(y, f.adjoint().eval(x)), 1
        )


def test_adjoint_reverses_composition(f243):
    r = random.Random(17)
    for _ in range(1000):
        f, g = rand_poly(f243, r), rand_poly(f243, r)
        assert f.compose(g).adjoint() == g.adjoint().compose(f.adjoint())


def test_as_matrix_and_rank(f32):
    n = f32.n
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert identity_poly(f32).as_matrix() == eye
    c = 1  # the only F_2 scalar besides 0
    assert QPoly(f32, [c, 0, 0, 0, 0]).as_matrix() == eye
    assert trace_poly(f32).kernel_dim() == n - 1
    assert identity_poly(f32).kernel_dim() == 0


def test_matrix_entries_live_in_subfield(f1024):
    r = random.Random(18)
    for _ in range(10):
        f = rand_poly(f1024, r)
        for row in f.as_matrix():
            for v in row:
                assert f1024.in_subfield(v, 1)


@pytest.mark.parametrize("field", ["f32", "f1024"])
def test_kernel_dim_against_counting_oracle(field, request):
    ctx = request.getfixturevalue(field)
    r = random.Random(19)
    for _ in range(40):
        f = rand_poly(ctx, r)
        kd = f.kernel_dim()
        count = sum(1 for x in ctx.elements() if f.eval(x) == 0)
        assert count == ctx.q**kd


@pytest.mark.parametrize("field", ["f32", "f243", "f1024"])
def test_inverse(field, request):
    ctx = request.getfixturevalue(field)
    idp = identity_poly(ctx)
    assert monomial(ctx, 1).inverse() == monomial(ctx, 4)
    r = random.Random(20)
    done = 0
    singular = 0
    while done < 25:
        f = rand_poly(ctx, r)
        if f.kernel_dim():
            singular += 1
            with pytest.raises(NotInvertible):
                f.inverse()
            continue
        done += 1
        fi = f.inverse()
        assert f.compose(fi) == idp
        assert fi.compose(f) == idp
        for x in ctx.elements():
            assert f.eval(fi.eval(x)) == x
    assert singular, "no singular f drawn: NotInvertible untested"


def test_max_field_of_linearity():
    ctx4 = build_field(2, 1, 4)
    assert monomial(ctx4, 2).max_field_of_linearity() == 2
    assert trace_poly(ctx4).max_field_of_linearity() == 1
    assert QPoly(ctx4, [3, 0, 0, 0]).max_field_of_linearity() == 4
    assert QPoly(ctx4, [3, 0, 5, 0]).max_field_of_linearity() == 2
    assert not QPoly(ctx4, [3, 0, 5, 0]).is_strictly_linear()
    with pytest.raises(ZeroPolynomial):
        zero_poly(ctx4).max_field_of_linearity()


def test_scale_conjugate(f243):
    ctx = f243
    r = random.Random(21)
    for _ in range(50):
        f = rand_poly(ctx, r)
        assert f.scale_conjugate(1) == f
        lam_sub = 1 if ctx.q == 2 else ctx.from_exp(ctx.order // (ctx.q - 1))
        assert ctx.in_subfield(lam_sub, 1)
        assert f.scale_conjugate(lam_sub) == f  # lambda in F_q fixes f
        lam = r.randrange(1, ctx.size)
        g = f.scale_conjugate(lam)
        for x in (0, 1, 5, 77):
            assert g.eval(x) == ctx.div(f.eval(ctx.mul(lam, x)), lam)
    with pytest.raises(ZeroScalar):
        rand_poly(ctx, r).scale_conjugate(0)


def test_scale_conjugate_rejects_scalars_outside_the_field(f243):
    # 300 would act as g^299 = g^57, and -5 as g^(-6)
    f = QPoly(f243, [0, 0, f243.gen, 1, 0])
    for bad in (300, f243.size, -5):
        with pytest.raises(ValueError, match=f"lambda = {bad} is no element index"):
            f.scale_conjugate(bad)
    with pytest.raises(ZeroScalar):
        f.scale_conjugate(0)


def test_string_roundtrip(f32):
    r = random.Random(22)
    for _ in range(20):
        f = rand_poly(f32, r)
        assert QPoly.from_string(f32, f.to_string()) == f


@pytest.mark.parametrize("field", ["f32", "f243", "f1024"])
def test_moore_interpolation_roundtrip(field, request):
    # the basis g^0..g^(n-1) is over F_q: F_4 at F_1024
    ctx = request.getfixturevalue(field)
    r = random.Random(23)
    pts = [ctx.from_exp(j) for j in range(ctx.n)]
    for _ in range(20):
        f = rand_poly(ctx, r)
        vals = [f.eval(p) for p in pts]
        assert tuple(moore_interpolate(ctx, vals)) == f.coeffs


@pytest.mark.parametrize(
    "spec", [(2, 1, 5), (3, 1, 5), (2, 2, 5), (3, 2, 3), (2, 1, 12)],
    ids=["f32", "f243", "f1024", "f729", "f4096"],
)
def test_dual_basis_against_power_trace(spec):
    # Tr(beta_i g^j) = [i = j], the trace summed from x^(q^k) by pow_int,
    # and W[t][k] = beta_t^(q^k)
    ctx = build_field(*spec)
    n, q = ctx.n, ctx.q
    W = _dual_basis_matrix(ctx)
    assert W.shape == (n, n)

    def trace(x):
        acc = 0
        for k in range(n):
            acc = ctx.add(acc, ctx.pow_int(x, q**k) if x else 0)
        return acc

    beta = [int(b) for b in W[:, 0]]
    for i in range(n):
        assert [int(w) for w in W[i]] == [ctx.pow_int(beta[i], q**k) for k in range(n)]
        for j in range(n):
            assert trace(ctx.mul(beta[i], ctx.from_exp(j))) == (1 if i == j else 0)


@pytest.mark.parametrize("field", ["f32", "f1024"])
def test_coords_roundtrip_every_element(field, request):
    # sum_j c_j g^j = y with every c_j in F_q, for each y; the array call
    # agrees with the scalar one
    ctx = request.getfixturevalue(field)
    every = _coords_in_gen_basis(ctx, list(ctx.elements()))
    assert every.shape == (ctx.n, ctx.size)
    for y in ctx.elements():
        cs = [int(c) for c in _coords_in_gen_basis(ctx, y)]
        assert cs == every[:, y].tolist()
        assert all(ctx.in_subfield(c, 1) for c in cs)
        acc = 0
        for j, c in enumerate(cs):
            acc = ctx.add(acc, ctx.mul(c, ctx.from_exp(j)))
        assert acc == y
