"""Linear sets of PG(1,q^n): construction, families, scatteredness,
equivalence, and the new-example verification."""

import random

import pytest

from qlinset import imageset as ims
from qlinset import linset as ls
from qlinset.errors import (
    InvalidParameters,
    NotStrictlyLinear,
    PreconditionViolated,
)
from qlinset.gf import build_field
from qlinset.moebius import INF
from qlinset.qpoly import QPoly, monomial, trace_poly


def rand_strict(ctx, r):
    while True:
        f = QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])
        if f.is_strictly_linear():
            return f


def test_linear_set_sizes(f32, f243):
    assert len(ims.image_of_ratio(QPoly(f32, [7, 0, 0, 0, 0]))) == 1
    assert len(ims.image_of_ratio(monomial(f243, 1))) == 121
    assert len(ims.image_of_ratio(trace_poly(f32))) == 17


def test_linear_set_matches_image(f32):
    # L_f is the slope set {f(x)/x : x != 0}, which never contains INF
    r = random.Random(80)
    for _ in range(100):
        f = QPoly(f32, [r.randrange(32) for _ in range(5)])
        L = ims.image_of_ratio(f)
        assert L.indices().tolist() == sorted({f32.div(f.eval(x), x) for x in f32.nonzero()})
        assert INF not in L


def test_linear_sets_coincide_for_adjoint_and_scaling(f32, f243):
    r = random.Random(81)
    for ctx in (f32, f243):
        for _ in range(200):
            f = QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])
            lam = r.randrange(1, ctx.size)
            L = ims.image_of_ratio(f)
            assert L == ims.image_of_ratio(f.scale_conjugate(lam))
            assert L == ims.image_of_ratio(f.adjoint())


def test_is_max_scattered(f32, f243):
    assert ls.is_max_scattered(monomial(f32, 1))
    assert not ls.is_max_scattered(trace_poly(f32))
    delta = f243.gen  # N(delta) = 2
    assert ls.is_max_scattered(ls.family_g(f243, 2, delta))


def test_family_f(f243):
    assert ls.family_f(f243, 2) == monomial(f243, 2)
    with pytest.raises(InvalidParameters):
        ls.family_f(f243, 5)
    # L_{f_1} = L_{f_s} for all s coprime to n
    for ctx in (build_field(2, 1, 5), f243):
        L1 = ims.image_of_ratio(ls.family_f(ctx, 1))
        for s in (2, 3, 4):
            assert ims.image_of_ratio(ls.family_f(ctx, s)) == L1


def test_family_g_validation(f32, f243):
    with pytest.raises(InvalidParameters):
        ls.family_g(f32, 1, 5)  # q = 2: every norm is 0 or 1
    with pytest.raises(InvalidParameters):
        ls.family_g(f243, 1, f243.from_exp(2))  # N = g^242 = 1
    with pytest.raises(InvalidParameters):
        ls.family_g(build_field(3, 1, 3), 1, 2)  # n < 4
    g = ls.family_g(f243, 1, f243.gen)
    assert g.coeffs[1] == f243.gen and g.coeffs[4] == 1


def test_family_h_validation():
    ctx = build_field(3, 1, 6)
    with pytest.raises(InvalidParameters):
        ls.family_h(build_field(3, 1, 5), 1, 2)
    ok_delta = next(d for d in ctx.nonzero() if ctx.norm_rel(d, 3) not in (0, 1))
    h = ls.family_h(ctx, 1, ok_delta)
    assert h.coeffs[1] == ok_delta and h.coeffs[4] == 1
    with pytest.raises(InvalidParameters):
        bad = next(d for d in ctx.nonzero() if ctx.norm_rel(d, 3) == 1)
        ls.family_h(ctx, 1, bad)
    # some delta make the set maximum scattered; derived empirically
    sizes = set()
    for d in list(ctx.nonzero())[:200]:
        if ctx.norm_rel(d, 3) in (0, 1):
            continue
        sizes.add(len(ims.image_of_ratio(ls.family_h(ctx, 1, d))))
    assert ls.max_scattered_size(ctx) in sizes


def test_family_k_validation():
    ctx = build_field(2, 2, 6)  # q = 4 = -1 mod 5
    bs = [b for b in ctx.elements() if ctx.add(ctx.mul(b, b), b) == 1]
    assert bs
    kb = ls.family_k(ctx, bs[0])
    assert kb.coeffs[1] == 1 and kb.coeffs[3] == 1 and kb.coeffs[5] == bs[0]
    with pytest.raises(InvalidParameters):
        ls.family_k(ctx, 1)  # 1 + 1 = 0 != 1
    with pytest.raises(InvalidParameters):
        ls.family_k(build_field(3, 1, 6), 1)  # q = 3 = 3 mod 5


def test_family_k_scattered_at_q5():
    # q = 5 satisfies q = 0 mod 5; the set is maximum scattered there
    ctx = build_field(5, 1, 6)
    b = next(b for b in ctx.elements() if ctx.add(ctx.mul(b, b), b) == 1)
    assert ls.is_max_scattered(ls.family_k(ctx, b))


def test_family_dispatcher(f243):
    assert ls.family(f243, "f_s", s=1) == monomial(f243, 1)
    assert ls.family(f243, "g_sdelta", s=2, delta=f243.gen) == ls.family_g(
        f243, 2, f243.gen
    )
    with pytest.raises(InvalidParameters):
        ls.family(f243, "nope")


def test_pseudoregulus_detection(f32):
    w = ls.is_pseudoregulus_type(monomial(f32, 2))
    assert w is not None
    assert ls.is_pseudoregulus_type(trace_poly(f32)) is None
    with pytest.raises(NotStrictlyLinear):
        ls.is_pseudoregulus_type(QPoly(f32, [1, 0, 0, 0, 0]))


def test_fs_family_pseudoregulus_and_scattered(f32, f243):
    for ctx in (f32, f243):
        for s in (1, 2, 3, 4):
            f = ls.family_f(ctx, s)
            assert ls.is_max_scattered(f)
            assert ls.is_pseudoregulus_type(f) is not None


def test_g1mu_not_pseudoregulus(f243):
    mu = f243.gen
    assert ls.is_pseudoregulus_type(ls.family_g(f243, 1, mu)) is None


def test_pgammal_equivalence_positive(f32):
    r = random.Random(82)
    f = rand_strict(f32, r)
    w = ls.pgammal_equivalent(f, f.scale_conjugate(11))
    assert w is not None
    w = ls.pgammal_equivalent(f, f.adjoint())
    assert w is not None


def test_polynomial_equivalence_implies_set_equivalence(f32):
    from qlinset.moebius import SemilinearMap, is_admissible, transform_poly

    r = random.Random(83)
    done = 0
    while done < 10:
        f = rand_strict(f32, r)
        try:
            phi = SemilinearMap(
                f32, r.randrange(32), r.randrange(32), r.randrange(32),
                r.randrange(32), r.randrange(5),
            )
        except Exception:
            continue
        if not is_admissible(f, phi):
            continue
        g = transform_poly(f, phi)
        if not g.is_strictly_linear():
            continue
        done += 1
        assert ls.pgammal_equivalent(f, g) is not None


def test_new_example_single_mu(f243):
    delta = f243.gen
    g2d = ls.family_g(f243, 2, delta)
    mu = f243.gen
    g1m = ls.family_g(f243, 1, mu)
    assert ls.pgammal_equivalent(g2d, g1m) is None


def test_verify_new_example_sampled(f243):
    rep = ls.verify_new_example(f243, f243.gen, samples=2, seed=3)
    assert rep["max_scattered"] and rep["points"] == 121
    assert rep["all_nonequivalent"]
    assert rep["positive_control"]["witness"] is not None
    assert rep["passed"] and len(rep["verdicts"]) == 2


def test_verify_new_example_preconditions(f32, f243):
    with pytest.raises(PreconditionViolated):
        ls.verify_new_example(f32, 3)  # q = 2
    with pytest.raises(PreconditionViolated):
        ls.verify_new_example(f32)  # q = 2, caught before a default delta is sought
    with pytest.raises(PreconditionViolated):
        ls.verify_new_example(f243, f243.from_exp(2))  # N(delta) = 1
    with pytest.raises(PreconditionViolated):
        ls.verify_new_example(build_field(3, 1, 4), 2)  # n != 5


def test_mus_with_nontrivial_norm(f243):
    mus = ls.mus_with_nontrivial_norm(f243)
    assert len(mus) == 121
    assert all(f243.norm_rel(m, 1) not in (0, 1) for m in mus)
    assert ls.mus_with_nontrivial_norm(build_field(2, 1, 5)) == []


@pytest.mark.parametrize("field", ["f243", "f1024"])
def test_sample_mus_oversampled_returns_every_admissible_mu(field, request):
    # F_243: 121 admissible mu in one norm class; F_1024: 682 in two
    ctx = request.getfixturevalue(field)
    admissible = ls.mus_with_nontrivial_norm(ctx)
    full = ls._sample_mus(ctx, len(admissible), seed=4)
    assert len(full) == len(set(full)) and set(full) == set(admissible)
    assert ls._sample_mus(ctx, len(admissible) + 1, seed=4) == full
    assert ls._sample_mus(ctx, 10 * len(admissible), seed=4) == full
    # a smaller count draws the same sequence and stops early
    assert ls._sample_mus(ctx, 7, seed=4) == full[:7]


def test_new_linset_oversampled_run_is_labelled_by_the_mu_that_ran():
    # 121 admissible mu at F_243: asking for 200 runs each once
    from qlinset.suites import suite_new_linset

    out = suite_new_linset(samples=200)
    assert (out["mu_mode"], out["mu_count"]) == ("sampled(121)", 121)
    assert suite_new_linset(samples=2)["mu_mode"] == "sampled(2)"


def test_new_linset_positive_control_witness_is_pinned():
    # reports stay byte-identical: the search returns the lex-least witness,
    # and the whole sampled report apart from its wall-clock seconds is fixed
    from qlinset.suites import suite_new_linset

    out = suite_new_linset(samples=2, seed=0)
    assert out["positive_control"] == {
        "mu": "g^217", "lambda": "g^1", "witness": "[[g^0,0],[0,g^0]];sigma=3^0",
    }
    assert isinstance(out.pop("elapsed_s"), float)
    for v in out["verdicts"]:
        assert isinstance(v.pop("elapsed_s"), float)
    assert out == {
        "field": "3^1^5/1,0,0,0,2,1",
        "delta": "g^1",
        "delta_norm": "g^121",
        "points": 121,
        "expected_points": 121,
        "max_scattered": True,
        "mu_mode": "sampled(2)",
        "mu_count": 2,
        "verdicts": [
            {"mu": "g^217", "norm": "g^121", "equivalent": False, "witness": None},
            {"mu": "g^99", "norm": "g^121", "equivalent": False, "witness": None},
        ],
        "positive_control": {
            "mu": "g^217", "lambda": "g^1", "witness": "[[g^0,0],[0,g^0]];sigma=3^0",
        },
        "all_nonequivalent": True,
        "passed": True,
    }


def test_delta_precondition_n_delta_5th_power():
    # q = 4: N(delta)^5 = N(delta)^2 in F_4*, which is 1 only for N(delta) = 1,
    # so every delta with nontrivial norm qualifies
    ctx = build_field(2, 2, 5)
    d = ls.default_new_example_delta(ctx)
    nd = ctx.norm_rel(d, 1)
    assert nd not in (0, 1)
    assert ctx.pow_int(nd, 5) != 1
