"""Image sets of f(x)/x: exact contents, bounds, power sums, surveys."""

import random

import numpy as np
import pytest

from qlinset import imageset as ims
from qlinset.errors import TooLargeForExhaustive
from qlinset.gf import build_field
from qlinset.moebius import INF
from qlinset.qpoly import QPoly, identity_poly, monomial, trace_poly, zero_poly


def rand_poly(ctx, r):
    return QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])


def test_image_scalar_map(f32):
    im = ims.image_of_ratio(QPoly(f32, [7, 0, 0, 0, 0]))
    assert im.indices().tolist() == [7]
    assert len(im) == 1


def test_inf_is_never_a_member(f32):
    # the image {g^30} fills the last slot, which INF = -1 would index
    top = f32.from_exp(30)
    im = ims.image_of_ratio(QPoly(f32, [top, 0, 0, 0, 0]))
    assert top in im
    assert INF not in im
    assert f32.size not in im


def test_image_zero_map_is_zero_singleton(f32):
    assert ims.image_of_ratio(zero_poly(f32)).indices().tolist() == [0]


def test_image_monomial_and_trace_sizes(f32, f243):
    assert len(ims.image_of_ratio(monomial(f243, 1))) == 121
    assert len(ims.image_of_ratio(trace_poly(f32))) == 17
    assert len(ims.image_of_ratio(monomial(f32, 1))) == 31


def test_image_against_naive_oracle(f32):
    r = random.Random(30)
    for _ in range(25):
        f = rand_poly(f32, r)
        naive = {f32.div(f.eval(x), x) for x in f32.nonzero()}
        assert sorted(naive) == ims.image_of_ratio(f).indices().tolist()


def test_images_equal_under_scaling_and_adjoint(f243):
    r = random.Random(31)
    for _ in range(100):
        f = rand_poly(f243, r)
        lam = r.randrange(1, f243.size)
        assert ims.images_equal(f, f.scale_conjugate(lam))
        assert ims.images_equal(f, f.adjoint().scale_conjugate(lam))


def test_images_differ(f32):
    assert not ims.images_equal(monomial(f32, 1), trace_poly(f32))


def test_adjoint_image_invariance_exhaustive_q2():
    # Im(f(x)/x) = Im(f^(x)/x) for EVERY f over F_{2^n}, n <= 4 (n=5 uses the
    # shared mask fixture in the acceptance suite)
    for n in (2, 3, 4):
        ctx = build_field(2, 1, n)
        masks = ims.all_ratio_masks(ctx)
        T = np.arange(ctx.size**ctx.n, dtype=np.int64)
        perm = ims.adjoint_tuple_perm(ctx, T)
        assert np.array_equal(masks, masks[perm])


def test_adjoint_image_invariance_exhaustive_q2_n5(f32, q2_masks):
    T = np.arange(f32.size**f32.n, dtype=np.int64)
    perm = ims.adjoint_tuple_perm(f32, T)
    assert np.array_equal(q2_masks, q2_masks[perm])


def _masks_of_every_tuple(ctx):
    # the reference: the mask kernel run on the whole tuple space
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    return ims._chunk_ratio_masks(ctx, T, ims._bit_table(ctx))


@pytest.mark.parametrize(
    "spec",
    [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2),
     (2, 2, 2), (2, 2, 3)],
    ids=["F4", "F8", "F16", "F9", "F27", "F25", "F49", "F16-tower", "F64"],
)
def test_orbit_walk_masks_match_every_tuple(spec):
    ctx = build_field(*spec)
    masks = ims.all_ratio_masks(ctx)
    expected = _masks_of_every_tuple(ctx)
    assert masks.dtype == expected.dtype
    assert np.array_equal(masks, expected)


def test_orbit_walk_masks_on_random_tuples_q2_n5(f32, q2_masks):
    T = np.random.default_rng(40).integers(0, f32.size**f32.n, size=2**16)
    expected = ims._chunk_ratio_masks(f32, T, ims._bit_table(f32))
    assert q2_masks.dtype == expected.dtype
    assert np.array_equal(q2_masks[T], expected)


def _tuples_with_mask(masks, f):
    target = ims.mask_of_imageset(ims.image_of_ratio(f))
    return np.flatnonzero(masks == masks.dtype.type(target))


def test_equal_image_tuples_by_orbit_q2_n5(f32, q2_masks):
    r = random.Random(41)
    dense = QPoly(f32, [r.randrange(f32.size)] + [r.randrange(1, f32.size) for _ in range(4)])
    for f in (trace_poly(f32), monomial(f32, 1), dense):
        got = ims.equal_image_tuples(f32, f)
        assert np.array_equal(got, _tuples_with_mask(q2_masks, f))


def test_equal_image_tuples_by_orbit_every_f_q2_n3(small_fields):
    ctx = small_fields[3]
    masks = _masks_of_every_tuple(ctx)
    for t in range(ctx.size**ctx.n):
        f = ims.poly_from_tuple(ctx, t)
        got = ims.equal_image_tuples(ctx, f)
        assert got.dtype == np.int64
        assert np.array_equal(got, _tuples_with_mask(masks, f)), t


@pytest.mark.parametrize("spec", [(3, 1, 3), (3, 2, 2)], ids=["F27", "F81-wide"])
def test_survey_by_orbit_matches_every_tuple(spec):
    ctx = build_field(*spec)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    T = T[ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))]
    sizes = ims._sizes_for_tuples(ctx, T)
    expected = [
        (int(s), int((sizes == s).sum()), ims.tuple_to_coeffs(ctx, int(T[sizes == s].min())))
        for s in np.unique(sizes)
    ]
    assert [tuple(row) for row in ims.survey_image_sizes(ctx)] == expected


def test_power_sum_identity_poly(f32, f243):
    # sum over nonzero x of 1^d = (q^n - 1) * 1 = -1
    assert ims.power_sum(identity_poly(f32), 3) == f32.neg(1)
    assert ims.power_sum(identity_poly(f243), 10) == f243.neg(1)


def test_power_sum_scalar_map(f243):
    c = f243.from_exp(9)
    f = QPoly(f243, [c, 0, 0, 0, 0])
    for d in (1, 2, 7, 242):
        assert ims.power_sum(f, d) == f243.neg(f243.pow_int(c, d))


def test_power_sum_against_slow_loop(f243):
    r = random.Random(32)
    for _ in range(5):
        f = rand_poly(f243, r)
        for d in (1, 5, 81, 242):
            acc = 0
            for x in f243.nonzero():
                v = f243.div(f.eval(x), x)
                acc = f243.add(acc, f243.pow_int(v, d) if v else 0)
            assert acc == ims.power_sum(f, d)


def test_power_sum_bounds(f32):
    with pytest.raises(ValueError):
        ims.power_sum(identity_poly(f32), 0)
    with pytest.raises(ValueError):
        ims.power_sum(identity_poly(f32), 32)


def test_monomial_power_sums_over_base_fields():
    # over F_q: sum of x^d is -1 when (q-1) | d, else 0; all prime powers <= 32
    for q, (p, h) in {
        2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
        9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 17: (17, 1),
        19: (19, 1), 23: (23, 1), 25: (5, 2), 27: (3, 3), 29: (29, 1),
        31: (31, 1), 32: (2, 5),
    }.items():
        ctx = build_field(p, h, 1)
        for d in range(1, 2 * (q - 1) + 2):
            acc = 0
            for x in ctx.nonzero():
                acc = ctx.add(acc, ctx.pow_int(x, d))
            expected = ctx.neg(1) if d % (q - 1) == 0 else 0
            assert acc == expected, (q, d)


def test_equal_images_imply_equal_power_sums(f32, f243):
    r = random.Random(33)
    for ctx in (f32, f243):
        for _ in range(10):
            f = rand_poly(ctx, r)
            lam = r.randrange(1, ctx.size)
            g = f.adjoint().scale_conjugate(lam)
            assert ims.images_equal(f, g)
            for d in (1, 2, ctx.q + 1, ctx.size - 2):
                assert ims.power_sum(f, d) == ims.power_sum(g, d)


def test_direction_bounds_exhaustive_2_4():
    ctx = build_field(2, 1, 4)
    lo, hi = ims.direction_bounds(ctx)
    assert (lo, hi) == (9, 15)
    masks = ims.all_ratio_masks(ctx)
    sizes = np.bitwise_count(masks).astype(np.int64)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    strict = ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))
    assert int(strict.sum()) == 65280  # 16^4 minus the F_{q^2}-or-worse tuples
    assert sizes[strict].min() >= lo and sizes[strict].max() <= hi


def test_strict_mask_matches_poly_predicate():
    ctx = build_field(2, 1, 4)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    mask = ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))
    r = random.Random(34)
    for t in r.sample(range(T.size), 500):
        f = ims.poly_from_tuple(ctx, t)
        expected = (not f.is_zero()) and f.max_field_of_linearity() == 1
        assert bool(mask[t]) == expected


def test_survey_2_4_spectrum():
    rows = ims.survey_image_sizes(build_field(2, 1, 4))
    assert [(r.size, r.count) for r in rows] == [
        (9, 13200), (11, 36000), (13, 15600), (15, 480),
    ]


def test_survey_2_3_spectrum_frozen():
    # derived by this exhaustive run: only the two extreme sizes occur
    rows = ims.survey_image_sizes(build_field(2, 1, 3))
    assert [(r.size, r.count) for r in rows] == [(5, 392), (7, 112)]
    lo, hi = ims.direction_bounds(build_field(2, 1, 3))
    assert all(lo <= r.size <= hi for r in rows)


def test_survey_2_2_all_maximal():
    rows = ims.survey_image_sizes(build_field(2, 1, 2))
    assert [(r.size, r.count) for r in rows] == [(3, 12)]


def test_survey_representatives_are_lex_least():
    ctx = build_field(2, 1, 3)
    rows = ims.survey_image_sizes(ctx)
    for row in rows:
        t = ims.coeffs_to_tuple(ctx, row.representative)
        f = ims.poly_from_tuple(ctx, t)
        assert len(ims.image_of_ratio(f)) == row.size
        # nothing smaller attains the same size
        for earlier in range(t):
            g = ims.poly_from_tuple(ctx, earlier)
            if g.is_zero() or not g.is_strictly_linear():
                continue
            assert len(ims.image_of_ratio(g)) != row.size


def test_survey_sample_mode_deterministic():
    ctx = build_field(3, 1, 4)
    a = ims.survey_image_sizes(ctx, mode="sample", samples=2000, seed=7)
    b = ims.survey_image_sizes(ctx, mode="sample", samples=2000, seed=7)
    assert a == b
    lo, hi = ims.direction_bounds(ctx)
    assert all(lo <= r.size <= hi for r in a)


def test_survey_guard():
    with pytest.raises(TooLargeForExhaustive):
        ims.survey_image_sizes(build_field(3, 1, 5))  # 3^25 tuples > 2^32


def test_equal_image_tuples_generic_path_agrees_with_mask_path():
    # q=3, n=2: both the bitmask path (N=9<=64) and the filtered path exist;
    # force the filtered path and compare
    ctx = build_field(3, 1, 2)
    r = random.Random(35)
    for _ in range(5):
        f = rand_poly(ctx, r)
        while not f.is_strictly_linear():
            f = rand_poly(ctx, r)
        via_mask = ims.equal_image_tuples(ctx, f)
        via_filter = ims._equal_image_tuples_filtered(ctx, ims.image_of_ratio(f))
        assert sorted(via_mask.tolist()) == sorted(via_filter.tolist())


def _naive_image(ctx, t):
    f = ims.poly_from_tuple(ctx, t)
    return frozenset(ctx.div(f.eval(x), x) for x in ctx.nonzero())


@pytest.mark.parametrize("n", [2, 3])
def test_tuple_kernels_against_naive_oracle(n):
    # F_9 and F_27: odd characteristic, small enough for bitmask images
    ctx = build_field(3, 1, n)
    T = np.arange(ctx.size**n, dtype=np.int64)
    naive = [_naive_image(ctx, int(t)) for t in T]
    masks = ims._chunk_ratio_masks(ctx, T, ims._bit_table(ctx))
    assert [int(m) for m in masks] == [sum(1 << e for e in im) for im in naive]
    assert ims._sizes_for_tuples(ctx, T).tolist() == [len(im) for im in naive]
    r = random.Random(36 + n)
    for t in r.sample(range(T.size), 3):
        target = ims.ImageSet.from_indices(ctx, naive[t])
        expected = [u for u, im in enumerate(naive) if im == naive[t]]
        assert ims._equal_image_tuples_filtered(ctx, target).tolist() == expected


def test_wide_field_sizes_against_naive_oracle():
    # F_81 has too many elements for a bitmask: sizes come from value lists
    ctx = build_field(3, 1, 4)
    assert ims._mask_dtype(ctx.size) is None
    r = random.Random(38)
    T = np.asarray(r.sample(range(ctx.size**ctx.n), 200), dtype=np.int64)
    sizes = ims._sizes_for_tuples(ctx, T)
    assert sizes.tolist() == [len(_naive_image(ctx, int(t))) for t in T]
