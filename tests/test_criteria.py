"""The decision criteria: e-relations, trace/pseudoregulus tests, monomial
certification, and the same-image classifiers."""

import random
from collections import Counter

import numpy as np
import pytest

from qlinset import criteria as cr
from qlinset import imageset as ims
from qlinset import suites
from qlinset.errors import (
    ImagesDiffer,
    NotMonomial,
    NotStrictlyLinear,
    PreconditionViolated,
    TooLargeForExhaustive,
    WrongDegree,
)
from qlinset.gf import build_field
from qlinset.moebius import SemilinearMap, is_admissible, transform_poly
from qlinset.qpoly import QPoly, monomial, trace_poly


def rand_poly(ctx, r):
    return QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])


def rand_strict(ctx, r):
    while True:
        f = rand_poly(ctx, r)
        if f.is_strictly_linear():
            return f


# ------------------------------------------------------------- e-relations

def test_e_relations_reflexive(f32):
    r = random.Random(60)
    for _ in range(20):
        f = rand_poly(f32, r)
        assert cr.check_e_relations(f, f).all_hold


def test_e_relations_on_conjugate_pairs(f32, f243):
    r = random.Random(61)
    for ctx in (f32, f243):
        for _ in range(100):
            f = rand_poly(ctx, r)
            lam = r.randrange(1, ctx.size)
            assert cr.check_e_relations(f, f.scale_conjugate(lam)).all_hold
            assert cr.check_e_relations(f, f.adjoint().scale_conjugate(lam)).all_hold


def test_e_relations_negative_case(f32):
    rep = cr.check_e_relations(monomial(f32, 1), trace_poly(f32))
    assert not rep.all_hold
    assert "e1" in rep.failing()


def test_e_relations_wrong_degree():
    ctx = build_field(2, 1, 4)
    with pytest.raises(WrongDegree):
        cr.check_e_relations(trace_poly(ctx), trace_poly(ctx))


def test_e5_e6_follow_from_matching_power_sums(f243):
    # the d = 1+q+q^2+q^3 and d = 1+q+q^2+q^3+q^4 power sums pin down e5/e6:
    # pairs with equal images must agree on those power sums AND on the
    # transcribed identities
    r = random.Random(62)
    q = f243.q
    d5 = 1 + q + q**2 + q**3
    d6 = d5 + q**4
    for _ in range(50):
        f = rand_poly(f243, r)
        g = f.adjoint().scale_conjugate(r.randrange(1, f243.size))
        assert ims.power_sum(f, d5) == ims.power_sum(g, d5)
        assert ims.power_sum(f, d6) == ims.power_sum(g, d6)
        rep = cr.check_e_relations(f, g)
        assert rep.holds[5] and rep.holds[6]


# -------------------------------------------------------------- power sums

def _power_sum_from_values(ctx, values, d):
    # one d at a time, over values at every nonzero x: the exponents l d of
    # the nonzero values, counted mod p, each repeated element folded with
    # vfold_add
    nz = values[values > 0] - 1
    if nz.size == 0:
        return 0
    idx = (nz * (d % ctx.order)) % ctx.order
    counts = np.bincount(idx, minlength=ctx.order) % ctx.p
    sup = np.flatnonzero(counts)
    return int(ctx.vfold_add(np.repeat(sup + 1, counts[sup])))


def test_power_sums_all_equal(f32, f243):
    tr = trace_poly(f32)
    assert cr.power_sums_all_equal(tr, tr)
    assert cr.power_sums_all_equal(tr, tr.adjoint())
    assert not cr.power_sums_all_equal(monomial(f32, 1), tr)
    r = random.Random(63)
    f = rand_poly(f243, r)
    assert cr.power_sums_all_equal(f, f.scale_conjugate(17))


def test_power_sums_and_e_relations_reject_another_field_context(f243):
    # a same-size field, so a mismatch cannot show as an index error
    other = build_field(3, 1, 5, modulus=[1, 0, 0, 2, 1, 1])
    f = trace_poly(f243)
    g = QPoly(other, f.coeffs)
    for check in (cr.power_sums_all_equal, cr.check_e_relations):
        for pair in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="different field contexts"):
                check(*pair)
    # each answers within one context
    assert cr.power_sums_all_equal(g, g) and cr.check_e_relations(g, g).all_hold


def _power_sums_from_values(ctx, values, ds):
    # every d in ds at once, from counted ratio values, one per point of
    # PG(n-1, q): each value is taken by the q - 1 = -1 (mod p) nonzero x of
    # its point, so with c_l the count of the values g^l, weighted by q - 1
    # and reduced mod p, the sum for d is sum_l c_l g^(l d)
    logs, counts = np.unique(values[values > 0] - 1, return_counts=True)
    counts = counts * (ctx.q - 1) % ctx.p
    logs, counts = logs[counts > 0], counts[counts > 0]
    # c_l as an element of the prime field: the element whose packed encoding is c_l
    terms = ctx.vmul(ctx._idx[counts], np.multiply.outer(ds, logs) % ctx.order + 1)
    return ctx.vfold_add(terms)


def _singular(ctx, r):
    # x^q - l^(q-1) x, whose kernel is F_q l, conjugated by a random scalar
    lam = r.randrange(1, ctx.size)
    f = QPoly(ctx, [ctx.neg(ctx.pow_int(lam, ctx.q - 1)), 1] + [0] * (ctx.n - 2))
    return f.scale_conjugate(r.randrange(1, ctx.size))


def test_power_sums_all_d_match_per_d_helper(f32, f243):
    # the all-d table of counted ratio values, checked against the per-d
    # helper over every nonzero x, is the oracle of power_sums_all_equal:
    # on equal-image pairs, random pairs, equal-size pairs with unequal
    # images (c f and f + c x), and pairs of a singular and an invertible f
    r = random.Random(64)
    for ctx in (f32, f243):
        ds = np.arange(1, ctx.size, dtype=np.int64)
        pairs = []
        for k in range(12):
            f = rand_poly(ctx, r)
            if k < 6:
                lam = r.randrange(1, ctx.size)
                pairs.append((f, (f.adjoint() if k % 2 else f).scale_conjugate(lam), True))
            else:
                pairs.append((f, rand_poly(ctx, r), None))
        for _ in range(3):
            f, c = rand_strict(ctx, r), r.randrange(2, ctx.size)
            pairs.append((f, QPoly(ctx, [ctx.mul(c, a) for a in f.coeffs]), False))
            pairs.append((f, QPoly(ctx, [ctx.add(f.coeffs[0], c)] + list(f.coeffs[1:])), False))
            s = _singular(ctx, r)
            pairs.append((s, rand_strict(ctx, r), False))
            # s + c x, c outside -Im(s), is invertible with image Im(s) + c
            outside = np.flatnonzero(~ims.image_of_ratio(s).mask)
            c = ctx.neg(int(outside[r.randrange(outside.size)]))
            pairs.append((s, QPoly(ctx, [ctx.add(s.coeffs[0], c)] + list(s.coeffs[1:])), False))
        verdicts = set()
        for f, g, expected in pairs:
            sums = {}
            for h in (f, g):
                v = h.ratio_values()
                sums[h] = _power_sums_from_values(ctx, v, ds).tolist()
                # one value per point, so the q - 1 nonzero x of each point
                every = np.tile(v, ctx.q - 1)
                assert sums[h] == [_power_sum_from_values(ctx, every, int(d)) for d in ds]
            same = sums[f] == sums[g]
            assert cr.power_sums_all_equal(f, g) == same
            assert expected in (None, same)
            if expected is False and len(ims.image_of_ratio(f)) == len(ims.image_of_ratio(g)):
                verdicts.add("equal size")
            if f.kernel_dim() != g.kernel_dim():
                verdicts.add("one singular")
            verdicts.add(same)
        assert verdicts == {True, False, "equal size", "one singular"}


# ------------------------------------------------------------- trace5 test

def test_trace5_on_trace_itself(f32, f243):
    for ctx in (f32, f243):
        w = cr.trace5_test(trace_poly(ctx))
        assert w is not None
        assert ctx.in_subfield(w.lam, 1)  # all ratios are 1, so lambda in F_q*


def test_trace5_zero_coefficient_rejected(f243):
    assert cr.trace5_test(QPoly(f243, [5, 0, 3, 3, 3])) is None


def test_trace5_wrong_degree():
    ctx = build_field(2, 1, 4)
    with pytest.raises(WrongDegree):
        cr.trace5_test(trace_poly(ctx))


def test_trace5_round_trip_via_gl(f243):
    ctx = f243
    r = random.Random(64)
    tr = trace_poly(ctx)
    tr_im = ims.image_of_ratio(tr)
    done = 0
    while done < 30:
        try:
            psi = SemilinearMap(
                ctx, r.randrange(ctx.size), r.randrange(ctx.size),
                r.randrange(ctx.size), r.randrange(ctx.size), 0,
            )
        except Exception:
            continue
        if not is_admissible(tr, psi):
            continue
        done += 1
        f = transform_poly(tr, psi)
        w = cr.trace5_test(f)
        assert w is not None
        back = transform_poly(f, w.phi)
        mu = ctx.pow_int(w.lam, ctx.q**4)
        assert back == tr.scale_conjugate(mu)
        assert ims.image_of_ratio(back) == tr_im


def test_trace5_negative_random(f243):
    # random dense polynomials essentially never satisfy the ratio system;
    # when the test says no, no GL push of Tr can produce f, cross-checked by
    # comparing image sizes with the trace image
    r = random.Random(65)
    tr_size = len(ims.image_of_ratio(trace_poly(f243)))
    checked = 0
    while checked < 50:
        f = rand_poly(f243, r)
        if 0 in f.coeffs[1:]:
            continue
        if cr.trace5_test(f) is not None:
            continue
        checked += 1
        assert len(ims.image_of_ratio(f)) != tr_size or not ims.images_equal(
            f, trace_poly(f243)
        )


# ---------------------------------------------------------- pseudoalg test

def _cond1_poly(ctx, r, norm_one=False):
    q = ctx.q
    while True:
        a1 = r.randrange(1, ctx.size)
        if norm_one:
            al2 = ctx.pow_int(r.randrange(1, ctx.size), q - 1)
        else:
            al2 = ctx.div(r.randrange(1, ctx.size), a1)
            if ctx.norm_rel(al2, 1) == 1:
                continue
        a0 = r.randrange(ctx.size)
        a2 = ctx.mul(a1, al2)
        a3 = ctx.mul(a1, ctx.pow_int(al2, 1 + q))
        a4 = ctx.mul(a1, ctx.pow_int(al2, 1 + q + q**2))
        return QPoly(ctx, [a0, a1, a2, a3, a4])


def test_pseudoalg_cond1(f243):
    r = random.Random(66)
    target = monomial(f243, 1)
    for _ in range(25):
        f = _cond1_poly(f243, r)
        res = cr.pseudoalg_test(f)
        assert res.kind == "cond1"
        assert transform_poly(f, res.phi) == target


def test_pseudoalg_trace_fallback(f243):
    r = random.Random(67)
    for _ in range(15):
        f = _cond1_poly(f243, r, norm_one=True)
        res = cr.pseudoalg_test(f)
        assert res.kind == "trace_fallback"
        assert cr.trace5_test(f) is not None  # the fallback is real


def test_pseudoalg_cond2(f243):
    ctx = f243
    q = ctx.q
    r = random.Random(68)
    done = 0
    while done < 25:
        a3 = r.randrange(1, ctx.size)
        al1 = ctx.div(r.randrange(1, ctx.size), a3)
        if ctx.norm_rel(al1, 1) == 1:
            continue
        a0 = r.randrange(ctx.size)
        a1 = ctx.mul(a3, al1)
        a2 = ctx.mul(a3, ctx.pow_int(al1, 1 + q + q**3))
        a4 = ctx.mul(a3, ctx.pow_int(al1, 1 + q**3))
        f = QPoly(ctx, [a0, a1, a2, a3, a4])
        done += 1
        res = cr.pseudoalg_test(f)
        assert res.kind == "cond2"
        assert transform_poly(f, res.phi) == monomial(ctx, 2)


def test_pseudoalg_none_and_image_differs(f243):
    r = random.Random(69)
    target_im = ims.image_of_ratio(monomial(f243, 1))
    checked = 0
    while checked < 30:
        f = rand_poly(f243, r)
        if 0 in f.coeffs[1:]:
            continue
        res = cr.pseudoalg_test(f)
        if res.kind != "none":
            continue
        checked += 1
        # no witness exists, so in particular the image itself is not the
        # pseudoregulus image
        assert ims.image_of_ratio(f) != target_im


def test_pseudoalg_precondition(f243):
    with pytest.raises(PreconditionViolated):
        cr.pseudoalg_test(QPoly(f243, [1, 0, 1, 1, 1]))


# ------------------------------------------------------ monomial certification

def test_monomial_classify_identity(f32):
    assert cr.monomial_classify(monomial(f32, 1), monomial(f32, 1)) == (1, 1)


def test_monomial_classify_adjoint_scaled(f32):
    lam = 9
    f = monomial(f32, 1)
    g = f.adjoint().scale_conjugate(lam)  # beta x^{q^4}
    beta, s = cr.monomial_classify(f, g)
    assert s == 4
    assert g == monomial(f32, 4, beta)


def test_monomial_classify_errors(f32):
    with pytest.raises(NotMonomial):
        cr.monomial_classify(trace_poly(f32), trace_poly(f32))
    with pytest.raises(ImagesDiffer):
        cr.monomial_classify(monomial(f32, 1), trace_poly(f32))


def test_monomial_exhaustive_partner_set(f32):
    # every same-image partner of x^q over F_{2^5} is beta x^{q^s} with
    # gcd(s,5)=1 and N(beta)=1; brute force equals theory
    f = monomial(f32, 1)
    partners = cr.exhaustive_same_image(f)
    expected = {
        monomial(f32, s, beta)
        for s in (1, 2, 3, 4)
        for beta in f32.nonzero()
        if f32.norm_rel(beta, 1) == 1
    }
    assert set(partners) == expected
    assert len(partners) == 124
    for g in partners:
        beta, s = cr.monomial_classify(f, g)
        assert g == monomial(f32, s, beta)


# ------------------------------------------------------------- classifiers

def scalar_conjugate_by_loop(f, g):
    """The least lambda with f(lambda x)/lambda = g, by trying every nonzero
    lambda in element order."""
    return next((lam for lam in f.ctx.nonzero() if f.scale_conjugate(lam) == g), None)


@pytest.mark.parametrize("field", ["f16_tower", "f32", "f243"])
def test_scalar_conjugate_solve_matches_the_loop(field, request):
    # conjugates, adjoint conjugates, the same zero pattern with random
    # entries, and conjugates with one coefficient zeroed or filled in
    ctx = request.getfixturevalue(field)
    r = random.Random(f"conjugate/{field}")
    kinds = Counter()
    for _ in range(12):
        f = rand_poly(ctx, r)
        lam = r.randrange(1, ctx.size)
        conj = f.scale_conjugate(lam).coeffs
        i = r.randrange(ctx.n)
        flipped = list(conj)
        flipped[i] = 0 if flipped[i] else r.randrange(1, ctx.size)
        for coeffs in (conj, f.adjoint().scale_conjugate(lam).coeffs, flipped,
                       [r.randrange(1, ctx.size) if c else 0 for c in f.coeffs]):
            g = QPoly(ctx, coeffs)
            want = scalar_conjugate_by_loop(f, g)
            assert cr._scan_scalar_conjugate(f, g) == want
            kinds[want is not None] += 1
    assert kinds[True] >= 12 and kinds[False] >= 12, kinds

def test_classify_n2(small_fields):
    ctx = small_fields[2]
    f = monomial(ctx, 1)
    out = cr.classify_n_le_4(f, f)
    assert out.kind == "scalar_conjugate" and out.lam == 1


def test_classify_n3_adjoint_branch(small_fields):
    ctx = small_fields[3]
    f = monomial(ctx, 1)
    g = monomial(ctx, 2, ctx.from_exp(5))  # norm over F_2 is trivial
    assert ims.images_equal(f, g)
    out = cr.classify_n_le_4(f, g)
    assert out.kind == "adjoint_scalar_conjugate"
    assert f.adjoint().scale_conjugate(out.lam) == g


def test_classify_n_le_4_guards(small_fields, f32):
    ctx = small_fields[4]
    with pytest.raises(WrongDegree):
        cr.classify_n_le_4(trace_poly(f32), trace_poly(f32))
    with pytest.raises(NotStrictlyLinear):
        cr.classify_n_le_4(QPoly(ctx, [1, 0, 0, 0]), trace_poly(ctx))
    with pytest.raises(ImagesDiffer):
        cr.classify_n_le_4(monomial(ctx, 1), trace_poly(ctx))


def test_classify_n4_exhaustive_sample(small_fields):
    ctx = small_fields[4]
    r = random.Random(70)
    for _ in range(5):
        f = rand_strict(ctx, r)
        for g in cr.exhaustive_same_image(f):
            out = cr.classify_n_le_4(f, g)
            assert out.kind != "inconsistent"
            if out.kind == "scalar_conjugate":
                assert f.scale_conjugate(out.lam) == g
            else:
                assert f.adjoint().scale_conjugate(out.lam) == g


@pytest.mark.parametrize("spec", [(3, 1, 3), (5, 1, 3), (3, 2, 2), (2, 4, 2)],
                         ids=["F27", "F125", "F81-tower", "F256-tower"])
def test_n_le_4_partners_are_the_conjugates_beyond_q2(spec):
    # the n <= 4 theorem at q > 2: the exhaustive partners of a strict f are
    # exactly the scalar conjugates of f and of its adjoint, and at n = 2
    # those of f alone
    ctx = build_field(*spec)
    r = random.Random(72 + ctx.size)
    for _ in range(3):
        f = rand_strict(ctx, r)
        scalar = {f.scale_conjugate(lam) for lam in ctx.nonzero()}
        adjoint = {f.adjoint().scale_conjugate(lam) for lam in ctx.nonzero()}
        assert set(cr.exhaustive_same_image(f)) == scalar | adjoint
        if ctx.n == 2:
            assert adjoint <= scalar


def test_classify_n5_scalar_branch(f32):
    tr = trace_poly(f32)
    out = cr.classify_n5(tr, tr.scale_conjugate(9))
    assert out.kind == "scalar_conjugate"
    assert tr.scale_conjugate(out.lam) == tr.scale_conjugate(9)


def test_classify_n5_monomial_branch(f32):
    f = monomial(f32, 1)
    g = monomial(f32, 2, f32.from_exp(4))
    out = cr.classify_n5(f, g)
    assert out.kind == "monomial_pair"
    assert (out.i, out.j) == (1, 2)
    assert f32.norm_rel(out.alpha, 1) == f32.norm_rel(out.beta, 1)
    # witness re-verifies
    assert transform_poly(f, out.phi) == monomial(f32, out.i, out.alpha)
    assert transform_poly(g, out.phi) == monomial(f32, out.j, out.beta)


def test_classify_n5_monomial_branch_q3(f243):
    # beta x^{q^3} with N(beta) = 1 shares its image with x^{q^2}
    ctx = f243
    f = monomial(ctx, 2)
    beta = ctx.pow_int(5, ctx.q - 1)
    g = monomial(ctx, 3, beta)
    assert ims.images_equal(f, g)
    out = cr.classify_n5(f, g)
    assert out.kind in ("monomial_pair", "adjoint_scalar_conjugate")
    if out.kind == "monomial_pair":
        assert ctx.norm_rel(out.alpha, 1) == ctx.norm_rel(out.beta, 1)


def test_classify_n5_guards(f32, f243):
    with pytest.raises(NotStrictlyLinear):
        cr.classify_n5(QPoly(f32, [1, 0, 0, 0, 0]), trace_poly(f32))
    with pytest.raises(ImagesDiffer):
        cr.classify_n5(monomial(f32, 1), trace_poly(f32))
    ctx = build_field(2, 1, 4)
    with pytest.raises(WrongDegree):
        cr.classify_n5(trace_poly(ctx), trace_poly(ctx))


# One same-image pair per classifier branch, with the outcome recorded before
# the two classifiers came to share their conjugacy scans.  The n = 5 pairs
# transport alpha x^{q^s} and beta x^{q^t}, N(alpha) = N(beta), by one map.
PINNED_OUTCOMES = [
    ("n3-scalar", (3, 1, 3), "g^24,0,g^15", "g^24,0,g^1",
     {"kind": "scalar_conjugate", "lambda": "g^8"}),
    ("n3-adjoint", (3, 1, 3), "g^24,0,g^15", "g^24,g^1,0",
     {"kind": "adjoint_scalar_conjugate", "lambda": "g^4"}),
    ("n5-scalar", (3, 1, 5), "g^99,g^83,g^3,g^126,g^132", "g^99,g^209,g^23,g^70,g^90",
     {"kind": "scalar_conjugate", "lambda": "g^63"}),
    ("n5-adjoint", (3, 1, 5), "g^217,g^164,g^204,g^203,g^79", "g^217,g^5,g^173,g^72,g^132",
     {"kind": "adjoint_scalar_conjugate", "lambda": "g^5"}),
    ("n5-binomial", (3, 1, 5), "g^179,0,0,0,g^210", "g^179,0,0,g^154,0",
     {"kind": "monomial_pair", "phi": "[[g^0,0],[g^90,g^32]];sigma=3^0",
      "i": 4, "j": 3, "alpha": "g^0", "beta": "g^186"}),
    ("n5-cond1", (3, 1, 5), "g^224,g^24,g^187,g^192,g^207", "g^224,g^200,g^44,g^181,g^229",
     {"kind": "monomial_pair", "phi": "[[g^165,g^111],[g^153,g^218]];sigma=3^0",
      "i": 1, "j": 2, "alpha": "g^0", "beta": "g^20"}),
    ("n5-cond2", (3, 1, 5), "g^35,g^207,g^191,g^22,g^120", "g^35,g^66,g^111,g^4,g^167",
     {"kind": "monomial_pair", "phi": "[[g^20,g^220],[g^197,g^191]];sigma=3^0",
      "i": 2, "j": 4, "alpha": "g^0", "beta": "g^66"}),
]


@pytest.mark.parametrize("branch, spec, f, g, expected", PINNED_OUTCOMES,
                         ids=[p[0] for p in PINNED_OUTCOMES])
def test_classifier_branches_are_pinned(branch, spec, f, g, expected):
    ctx = build_field(*spec)
    f, g = QPoly.from_string(ctx, f), QPoly.from_string(ctx, g)
    classify = cr.classify_n5 if ctx.n == 5 else cr.classify_n_le_4
    assert classify(f, g).to_dict(ctx) == expected
    # the n = 5 monomial pairs reach the branch they are named after
    if branch == "n5-binomial":
        assert sum(1 for c in f.coeffs[1:] if c) == 1
    elif branch.startswith("n5-cond"):
        assert cr.pseudoalg_test(f).kind == branch[3:]


def test_exhaustive_same_image_trace(f32):
    tr = trace_poly(f32)
    partners = cr.exhaustive_same_image(tr)
    assert set(partners) == {tr.scale_conjugate(lam) for lam in f32.nonzero()}
    assert len(partners) == 31


def test_thm_main_q2_without_masks_matches_with_masks(f32, q2_masks):
    # the suite's three walks against a compare on the mask array, strict
    # partners only, in tuple order
    result, pairs = suites.suite_thm_main_q2(seed=0, return_pairs=True)
    assert result["passed"]
    partners = {}
    for f, g in pairs:
        partners.setdefault(f, []).append(g)
    assert [len(gs) for gs in partners.values()] == [c["partners"] for c in result["per_case"]]
    for f, gs in partners.items():
        target = ims._pack_rows(ims.image_of_ratio(f).mask[None]).view(q2_masks.dtype)[0, 0]
        T = np.flatnonzero(q2_masks == target)
        T = T[ims.strict_linear_mask(f32, ims._tuple_digits(f32, T))]
        assert gs == [ims.poly_from_tuple(f32, int(t)) for t in T]


def test_exhaustive_same_image_guards(f32, f243):
    with pytest.raises(NotStrictlyLinear):
        cr.exhaustive_same_image(QPoly(f32, [3, 0, 0, 0, 0]))
    # (3,1,6): 729^5/728 representatives at 364 points each, past 2^32
    with pytest.raises(TooLargeForExhaustive):
        cr.exhaustive_same_image(trace_poly(build_field(3, 1, 6)))


def test_exhaustive_same_image_counts_partners_on_two_fields():
    tr = trace_poly(build_field(2, 1, 4))
    assert len(cr.exhaustive_same_image(tr)) == 15
    # F_32 under another modulus
    other = QPoly(build_field(2, 1, 5, [1, 0, 1, 0, 0, 1]), [0, 1, 1, 0, 0])
    assert len(cr.exhaustive_same_image(other)) == 62


def test_field_of_linearity_agreement_on_same_image_pairs(f32):
    # whenever two polynomials share the ratio image, their maximum fields of
    # linearity coincide; checked across the non-strict spectrum too
    r = random.Random(71)
    for _ in range(200):
        f = rand_poly(f32, r)
        if f.is_zero():
            continue
        lam = r.randrange(1, f32.size)
        for g in (f.scale_conjugate(lam), f.adjoint().scale_conjugate(lam)):
            assert f.max_field_of_linearity() == g.max_field_of_linearity()
