"""Image sets of f(x)/x: exact contents, bounds, power sums, surveys."""

import random

import numpy as np
import pytest

from qlinset import imageset as ims
from qlinset import suites
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


def test_from_indices_rejects_indices_outside_the_field(f32):
    # INF = -1 would otherwise land in the last slot, g^30
    for bad in ([INF, 1], [1, f32.size], [-f32.size]):
        with pytest.raises(ValueError):
            ims.ImageSet.from_indices(f32, bad)
    with pytest.raises(ValueError):
        ims.ImageSet.from_indices(f32, np.array([0, f32.size]))
    # an array, a list and a set give one set
    sets = [ims.ImageSet.from_indices(f32, pts)
            for pts in (np.array([31, 0, 31]), [0, 31], {31, 0})]
    assert sets[0] == sets[1] == sets[2] and sets[0].indices().tolist() == [0, 31]
    assert len(ims.ImageSet.from_indices(f32, [])) == 0


def test_image_zero_map_is_zero_singleton(f32):
    assert ims.image_of_ratio(zero_poly(f32)).indices().tolist() == [0]


@pytest.mark.parametrize(
    "spec",
    [(2, 1, 2), (3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 2, 2), (2, 1, 4), (2, 1, 5), (3, 1, 5),
     (3, 1, 1), (2, 2, 1)],
    ids=["F4", "F9", "F25", "F27", "F16-tower", "F16", "F32", "F243", "F3-n1", "F4-n1"],
)
def test_a0_is_the_sum_of_the_image(spec):
    # seeded f that are F_{q^d}-linear for every divisor d of n (their
    # nonzero a_i, i > 0, at multiples of d), and the zero map
    ctx = build_field(*spec)
    r = random.Random(46)
    fs = [zero_poly(ctx)]
    for d in range(1, ctx.n + 1):
        if ctx.n % d == 0:
            fs += [QPoly(ctx, [r.randrange(ctx.size) if i % d == 0 else 0 for i in range(ctx.n)])
                   for _ in range(6)]
    for f in fs:
        assert f.coeffs[0] == ctx.vfold_add(ims.image_of_ratio(f).indices()), f.coeffs


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
    # every tuple, in blocks of 2^20 so that the digit arrays stay small
    total = f32.size**f32.n
    for lo in range(0, total, 1 << 20):
        T = np.arange(lo, min(lo + (1 << 20), total), dtype=np.int64)
        assert np.array_equal(q2_masks[T], q2_masks[ims.adjoint_tuple_perm(f32, T)])


@pytest.mark.parametrize(
    "spec, count",
    [((2, 1, 3), None), ((2, 2, 2), None), ((3, 1, 3), 2000), ((2, 1, 5), 2000),
     ((3, 1, 5), 2000)],
    ids=["F8", "F16-tower", "F27", "F32", "F243"],
)
def test_adjoint_tuple_perm_matches_qpoly_adjoint(spec, count):
    # every tuple, or `count` seeded ones, against the polynomial's adjoint
    ctx = build_field(*spec)
    total = ctx.size**ctx.n
    if count is None:
        T = np.arange(total, dtype=np.int64)
    else:
        T = np.random.default_rng(43).integers(0, total, size=count, dtype=np.int64)
    expected = [ims.coeffs_to_tuple(ctx, ims.poly_from_tuple(ctx, int(t)).adjoint().coeffs)
                for t in T]
    assert ims.adjoint_tuple_perm(ctx, T).tolist() == expected


def _kernel_masks(ctx, T):
    # the row kernel on the tuples T, each row of one or two words read as
    # one integer, the encoding all_ratio_masks returns
    rows = ims._chunk_ratio_masks(ctx, ims._tuple_digits(ctx, T), ims._bit_table(ctx))
    return rows.view(f"<u{4 * rows.shape[1]}")[:, 0]


def _kernel_sizes(ctx, T):
    # image sizes of the tuples T: popcounts of their kernel rows
    rows = ims._chunk_ratio_masks(ctx, ims._tuple_digits(ctx, T), ims._bit_table(ctx))
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _masks_of_every_tuple(ctx):
    # the reference: the mask kernel run on the whole tuple space
    return _kernel_masks(ctx, np.arange(ctx.size**ctx.n, dtype=np.int64))


@pytest.mark.parametrize(
    "spec",
    [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2),
     (2, 2, 2), (2, 2, 3), (2, 1, 1), (3, 1, 1), (2, 5, 1), (7, 1, 1)],
    ids=["F4", "F8", "F16", "F9", "F27", "F25", "F49", "F16-tower", "F64",
         "F2-n1", "F3-n1", "F32-n1", "F7-n1"],
)
def test_orbit_walk_masks_match_every_tuple(spec):
    ctx = build_field(*spec)
    masks = ims.all_ratio_masks(ctx)
    expected = _masks_of_every_tuple(ctx)
    assert masks.dtype == expected.dtype
    assert np.array_equal(masks, expected)


@pytest.mark.parametrize(
    "spec, words", [((2, 1, 5), 1), ((3, 1, 3), 1), ((2, 2, 3), 2), ((7, 1, 2), 2)],
    ids=["F32", "F27", "F64", "F49"],
)
def test_translate_moves_every_member_by_c(spec, words):
    # seeded sets S, the empty and the full set, against c + S element by
    # element, for every c
    ctx = build_field(*spec)
    assert ims._words(ctx) == words
    members = np.random.default_rng(44).random((64, ctx.size)) < 0.3
    members[:2] = [[False], [True]]
    as_int = f"<u{4 * words}"
    rows = ims._pack_rows(members).view(as_int)[:, 0]
    for c in range(ctx.size):
        moved = np.zeros_like(members)
        for e in range(ctx.size):
            moved[:, ctx.add(c, e)] = members[:, e]
        expected = ims._pack_rows(moved).view(as_int)[:, 0]
        assert np.array_equal(ims._translate(ctx, rows, c), expected), c


def test_orbit_walk_masks_on_random_tuples_q2_n5(f32, q2_masks):
    T = np.random.default_rng(40).integers(0, f32.size**f32.n, size=2**16)
    expected = _kernel_masks(f32, T)
    assert q2_masks.dtype == expected.dtype == np.uint32
    assert np.array_equal(q2_masks[T], expected)


def _tuples_with_mask(masks, f):
    target = ims._pack_rows(ims.image_of_ratio(f).mask[None]).view(masks.dtype)[0, 0]
    return np.flatnonzero(masks == target)


def test_equal_image_tuples_by_orbit_q2_n5(f32, q2_masks):
    r = random.Random(41)
    dense = QPoly(f32, [r.randrange(f32.size)] + [r.randrange(1, f32.size) for _ in range(4)])
    for f in (trace_poly(f32), monomial(f32, 1), dense):
        got = ims.equal_image_tuple_lists(f32, [f])[0]
        assert np.array_equal(got, _tuples_with_mask(q2_masks, f))


def test_equal_image_tuples_by_orbit_every_f_q2_n3(small_fields):
    ctx = small_fields[3]
    masks = _masks_of_every_tuple(ctx)
    for t in range(ctx.size**ctx.n):
        f = ims.poly_from_tuple(ctx, t)
        got = ims.equal_image_tuple_lists(ctx, [f])[0]
        assert got.dtype == np.int64
        assert np.array_equal(got, _tuples_with_mask(masks, f)), t


@pytest.mark.parametrize(
    "spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 2)],
    ids=["F4", "F8", "F16", "F27", "F16-tower"],
)
def test_one_walk_for_many_targets_matches_the_masks(spec):
    # 20 seeded strict f, a seeded non-strict f, a scalar map c x, a strict
    # f with a_0 != 0, and the zero map, whose image {0} only the zero
    # tuple shares, in one walk
    ctx = build_field(*spec)
    masks = ims.all_ratio_masks(ctx)
    r = random.Random(45)
    fs = []
    while len(fs) < 20:
        f = rand_poly(ctx, r)
        if f.is_strictly_linear():
            fs.append(f)
    f = rand_poly(ctx, r)
    while f.is_strictly_linear():
        f = rand_poly(ctx, r)
    fs.append(f)
    fs.append(QPoly(ctx, [r.randrange(1, ctx.size)] + [0] * (ctx.n - 1)))
    f = rand_poly(ctx, r)
    while not f.is_strictly_linear():
        f = rand_poly(ctx, r)
    fs.append(QPoly(ctx, [r.randrange(1, ctx.size)] + list(f.coeffs[1:])))
    fs.append(zero_poly(ctx))
    got = ims.equal_image_tuple_lists(ctx, fs)
    assert len(got) == len(fs)
    for f, tuples in zip(fs, got, strict=True):
        assert tuples.dtype == np.int64
        assert np.array_equal(tuples, _tuples_with_mask(masks, f))
        assert np.array_equal(tuples, ims.equal_image_tuple_lists(ctx, [f])[0])
    assert got[-3].tolist() == [ims.coeffs_to_tuple(ctx, fs[-3].coeffs)]
    assert got[-1].tolist() == [0]
    assert ims.equal_image_tuple_lists(ctx, []) == []


@pytest.mark.parametrize(
    "spec", [(3, 1, 3), (3, 2, 2), (2, 1, 1), (3, 1, 1), (2, 2, 1)],
    ids=["F27", "F81-wide", "F2-n1", "F3-n1", "F4-n1"],
)
def test_survey_by_orbit_matches_every_tuple(spec):
    ctx = build_field(*spec)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    T = T[ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))]
    sizes = _kernel_sizes(ctx, T)
    expected = [
        (int(s), int((sizes == s).sum()), tuple(ims._tuple_digits(ctx, int(T[sizes == s].min()))))
        for s in np.unique(sizes)
    ]
    if ctx.n == 1:
        # the scalar maps, the only strict tuples, each of image size 1
        assert expected == [(1, ctx.order, (1,))]
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
    # 500 sampled tuples at (2,1,4); every tuple at n = 1, where each
    # nonzero tuple is strict
    r = random.Random(34)
    for spec, picks in (((2, 1, 4), lambda size: r.sample(range(size), 500)),
                        ((3, 1, 1), range), ((2, 2, 1), range)):
        ctx = build_field(*spec)
        T = np.arange(ctx.size**ctx.n, dtype=np.int64)
        mask = ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))
        for t in picks(T.size):
            f = ims.poly_from_tuple(ctx, t)
            expected = (not f.is_zero()) and f.max_field_of_linearity() == 1
            assert bool(mask[t]) == expected, (spec, t)


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
    a = ims.survey_image_sizes(ctx, samples=2000, seed=7)
    b = ims.survey_image_sizes(ctx, samples=2000, seed=7)
    assert a == b
    lo, hi = ims.direction_bounds(ctx)
    assert all(lo <= r.size <= hi for r in a)


def _bounds_by_direct_count(seed, samples):
    # suite_bounds computed without the survey: every tuple's mask at (2,4)
    # with the strict filter, and at (3,5) strict draws until `samples`
    # strict tuples are checked
    ctx = build_field(2, 1, 4)
    lo, hi = ims.direction_bounds(ctx)
    sizes = np.bitwise_count(ims.all_ratio_masks(ctx)).astype(np.int64)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    s_sizes = sizes[ims.strict_linear_mask(ctx, ims._tuple_digits(ctx, T))]
    exhaustive = {
        "field": ctx.spec_string,
        "checked": int(s_sizes.size),
        "window": [lo, hi],
        "observed": [int(s_sizes.min()), int(s_sizes.max())],
        "ok": bool((s_sizes >= lo).all() and (s_sizes <= hi).all()),
    }
    ctx3 = build_field(3, 1, 5)
    lo3, hi3 = ims.direction_bounds(ctx3)
    rng = np.random.default_rng(seed)
    total = ctx3.size**ctx3.n
    drawn, s_min, s_max, ok3 = 0, hi3, lo3, True
    while drawn < samples:
        batch = rng.integers(0, total, size=min(4096, samples - drawn), dtype=np.int64)
        batch = batch[ims.strict_linear_mask(ctx3, ims._tuple_digits(ctx3, batch))]
        if batch.size == 0:
            continue
        sz = _kernel_sizes(ctx3, batch)
        drawn += batch.size
        s_min, s_max = min(s_min, int(sz.min())), max(s_max, int(sz.max()))
        ok3 &= bool((sz >= lo3).all() and (sz <= hi3).all())
    sampled = {
        "field": ctx3.spec_string,
        "checked": drawn,
        "window": [lo3, hi3],
        "observed": [s_min, s_max],
        "ok": ok3,
    }
    return {"passed": exhaustive["ok"] and ok3, "exhaustive": exhaustive, "sampled": sampled}


@pytest.mark.parametrize("samples", [3000, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_suite_bounds_matches_direct_count(seed, samples):
    got = suites.suite_bounds(seed=seed, samples=samples)
    del got["elapsed_s"]
    assert got == _bounds_by_direct_count(seed, samples)


def test_suite_bounds_matches_direct_count_over_two_sampled_blocks():
    # 40,000 draws at F_243 span two blocks of _REP_BLOCK words
    test_suite_bounds_matches_direct_count(0, 40_000)


def test_survey_guard():
    with pytest.raises(TooLargeForExhaustive):
        ims.survey_image_sizes(build_field(3, 1, 5))  # 3^25 tuples > 2^32
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"samples = {samples}"):
            ims.survey_image_sizes(build_field(3, 1, 5), samples=samples)


def _naive_image(ctx, t):
    f = ims.poly_from_tuple(ctx, t)
    return frozenset(ctx.div(f.eval(x), x) for x in ctx.nonzero())


@pytest.mark.parametrize(
    "spec, words",
    [((3, 1, 2), 1), ((3, 1, 3), 1), ((7, 1, 2), 2), ((3, 2, 2), 3)],
    ids=["F9", "F27", "F49", "F81-tower"],
)
def test_tuple_kernels_against_naive_oracle(spec, words):
    # odd characteristic, image rows of one to three words
    ctx = build_field(*spec)
    assert ims._words(ctx) == words
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    naive = [_naive_image(ctx, int(t)) for t in T]
    digits = ims._tuple_digits(ctx, T)
    rows = ims._chunk_ratio_masks(ctx, digits, ims._bit_table(ctx))
    assert rows.shape == (T.size, words)
    assert [int.from_bytes(row.tobytes(), "little") for row in rows] == [
        sum(1 << e for e in im) for im in naive
    ]
    assert _kernel_sizes(ctx, T).tolist() == [len(im) for im in naive]
    r = random.Random(36 + ctx.size)
    for t in r.sample(range(T.size), 3):
        expected = [u for u, im in enumerate(naive) if im == naive[t]]
        got = ims.equal_image_tuple_lists(ctx, [ims.poly_from_tuple(ctx, t)])[0]
        assert got.tolist() == expected


def _xor_rows(ctx, T):
    # characteristic 2: f(x)/x is the sum of the terms a_i x^(q^i - 1), each
    # a scalar product, summed as XOR of packed coefficient vectors; the
    # image row of each tuple, bit e for element index e
    xs = np.arange(1, ctx.size)
    acc = np.zeros((T.size, xs.size), dtype=np.int64)
    for i, d in enumerate(ims._tuple_digits(ctx, T)):
        terms = [[ctx.mul(a, ctx.pow_int(int(x), ctx.q**i - 1)) for x in xs] for a in range(ctx.size)]
        acc ^= ctx.packed(terms)[d]
    members = np.zeros((T.size, 32 * ims._words(ctx)), dtype=bool)
    members[np.arange(T.size)[:, None], ctx.unpacked(acc)] = True
    return np.packbits(members, axis=1, bitorder="little").view("<u4")


def _row_set(row):
    value = int.from_bytes(row.tobytes(), "little")
    return frozenset(e for e in range(value.bit_length()) if value >> e & 1)


@pytest.mark.parametrize(
    "spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2)],
    ids=["F4", "F8", "F16", "F16-tower"],
)
def test_tuple_kernels_against_naive_oracle_char2(spec):
    # every tuple, against sums that use neither vadd nor _scale_row; the
    # XOR sums themselves against scalar evaluation on a seeded sample
    ctx = build_field(*spec)
    T = np.arange(ctx.size**ctx.n, dtype=np.int64)
    expected = _xor_rows(ctx, T)
    rows = ims._chunk_ratio_masks(ctx, ims._tuple_digits(ctx, T), ims._bit_table(ctx))
    assert np.array_equal(rows, expected)
    assert np.array_equal(ims.all_ratio_masks(ctx), expected[:, 0])
    for t in random.Random(42).sample(range(T.size), min(T.size, 256)):
        assert _row_set(expected[t]) == _naive_image(ctx, t)


def test_tuple_kernels_against_naive_oracle_q2_n5(f32, q2_masks):
    T = np.random.default_rng(42).integers(0, f32.size**f32.n, size=2**10)
    rows = ims._chunk_ratio_masks(f32, ims._tuple_digits(f32, T), ims._bit_table(f32))
    naive = [_naive_image(f32, int(t)) for t in T]
    assert [_row_set(row) for row in rows] == naive
    assert [_row_set(m) for m in q2_masks[T]] == naive


@pytest.mark.parametrize("rep_block", [ims._REP_BLOCK, 200])
@pytest.mark.parametrize(
    "spec", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (7, 1, 2)],
    ids=["F8", "F27", "F16-tower", "F49"],
)
def test_representative_blocks_are_open_grids(spec, rep_block, monkeypatch):
    # at 200 words the blocks fix leading digits and split a digit's range
    monkeypatch.setattr(ims, "_REP_BLOCK", rep_block)
    ctx = build_field(*spec)
    every = np.arange(ctx.size**ctx.n, dtype=np.int64)
    digits = np.stack(ims._tuple_digits(ctx, every))
    first = digits[(digits != 0).argmax(axis=0), every]
    blocks = list(ims._representative_blocks(ctx))
    reps = every[(first == 1) & (digits[0] == 0)]
    assert np.array_equal(np.concatenate([T for T, _ in blocks]), reps)
    for T, grid in blocks:
        assert T.size * ims._words(ctx) <= rep_block
        shape = np.broadcast_shapes(*map(np.shape, grid))
        for g, d in zip(grid, ims._tuple_digits(ctx, T), strict=True):
            assert np.array_equal(np.broadcast_to(g, shape).ravel(), d)
    assert np.array_equal(ims.all_ratio_masks(ctx), _masks_of_every_tuple(ctx))


def test_equal_image_tuple_lists_rejects_a_polynomial_of_another_context(f32):
    other = build_field(2, 1, 5, modulus=[1, 1, 1, 0, 1, 1])
    assert other is not f32
    f = QPoly(other, [15, 19, 18, 5, 12])
    with pytest.raises(ValueError, match="different field contexts"):
        ims.equal_image_tuple_lists(f32, [f])
    got = ims.equal_image_tuple_lists(other, [f])[0]
    assert got.size == 62
    assert ims.coeffs_to_tuple(other, f.coeffs) in got


def test_wide_field_sizes_against_naive_oracle():
    # F_81 needs three words per image row
    ctx = build_field(3, 1, 4)
    assert ims._words(ctx) == 3
    r = random.Random(38)
    T = np.asarray(r.sample(range(ctx.size**ctx.n), 200), dtype=np.int64)
    sizes = _kernel_sizes(ctx, T)
    assert sizes.tolist() == [len(_naive_image(ctx, int(t))) for t in T]


@pytest.mark.parametrize("spec", [(3, 1, 10), (2, 2, 10)], ids=["3^10", "4^10"])
def test_image_of_ratio_on_wide_fields(spec):
    # 59049 and 2^20 elements, far above MAX_TABLE_SIZE: the whole-field
    # table runs on index and Zech arithmetic
    ctx = build_field(*spec)
    r = random.Random(40)
    f = QPoly(ctx, [r.randrange(1, ctx.size) for _ in range(ctx.n)])
    assert f.is_strictly_linear()
    im = ims.image_of_ratio(f)
    lo, hi = ims.direction_bounds(ctx)
    assert lo <= len(im) <= hi
    for x in r.sample(range(1, ctx.size), 16):
        assert ctx.div(f.eval(x), x) in im
