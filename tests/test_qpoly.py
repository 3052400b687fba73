"""q-polynomial algebra: evaluation, composition, adjoint, matrices, inversion."""

import random

import pytest

from qlinset.errors import NotInvertible, ZeroPolynomial, ZeroScalar
from qlinset.gf import build_field
from qlinset.qpoly import (
    QPoly,
    _coords_in_gen_basis,
    _dual_basis_matrix,
    identity_poly,
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
    import numpy as np

    r = random.Random(11)
    f = rand_poly(f243, r)
    X = np.arange(f243.size)
    vals = f.eval_on(X)
    for x in range(0, f243.size, 7):
        assert vals[x] == f.eval(x)


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
        if not f.is_invertible():
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
