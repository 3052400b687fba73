"""Field engine: construction, arithmetic, Frobenius, trace/norm, subfields."""

import gc
import pickle
import random
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from qlinset import gf
from qlinset.errors import DivisionByZero, InvalidModulus, NotADivisor, NotPrime, TooLarge
from qlinset.gf import MAX_TABLE_SIZE, FieldCtx, build_field
from qlinset.imageset import image_of_ratio
from qlinset.qpoly import QPoly, trace_poly


def test_build_field_sizes():
    assert build_field(2, 1, 5).size == 32
    assert build_field(3, 1, 5).size == 243
    assert build_field(2, 2, 2).size == 16


def test_build_field_multiplicative_order(f32):
    assert f32.order == 31
    g = f32.gen
    assert f32.pow_int(g, 31) == 1
    assert all(f32.pow_int(g, k) != 1 for k in range(1, 31))


def test_modulus_is_deterministic_and_frozen():
    # lexicographically least primitive polynomials, constant term first
    assert build_field(2, 1, 5).modulus == (1, 0, 0, 1, 0, 1)  # 1 + x^3 + x^5
    assert build_field(3, 1, 5).modulus == (1, 0, 0, 0, 2, 1)
    assert build_field(2, 2, 2).modulus == (1, 0, 0, 1, 1)
    assert build_field(2, 1, 5).spec_string == "2^1^5/1,0,0,1,0,1"


def test_modulus_override_roundtrip():
    ref = build_field(2, 1, 5)
    again = build_field(2, 1, 5, modulus=list(ref.modulus))
    assert again.modulus == ref.modulus
    # x^5 + x^2 + 1 is primitive too, and gives a different log table
    other = build_field(2, 1, 5, modulus=[1, 0, 1, 0, 0, 1])
    assert other.modulus == (1, 0, 1, 0, 0, 1)
    assert other.size == 32
    with pytest.raises(InvalidModulus):
        build_field(2, 1, 5, modulus=[1, 1, 1, 1, 1, 1])  # reducible
    with pytest.raises(InvalidModulus):
        # x^4+x^3+x^2+x+1 is irreducible but its root has order 5, not 15
        build_field(2, 1, 4, modulus=[1, 1, 1, 1, 1])


def _brute_force_modulus(p, m):
    # every monic f = low + x^m with low[0] != 0 in base-p order of
    # (c_0, ..., c_{m-1}); the first where x has order exactly p^m - 1,
    # found by multiplying by x until the power returns to 1
    one = [1] + [0] * (m - 1)
    for t in range(p**m):
        low = [t // p ** (m - 1 - i) % p for i in range(m)]
        if low[0] == 0:
            continue
        power, k = one, 0
        while True:
            top = power[-1]  # x^m = -(c_0 + ... + c_{m-1} x^(m-1))
            power = [(-top * low[0]) % p] + [
                (power[i - 1] - top * low[i]) % p for i in range(1, m)
            ]
            k += 1
            if power == one:
                break
        if k == p**m - 1:
            return tuple(low + [1])


@pytest.mark.parametrize(
    "p,m",
    [(2, m) for m in range(1, 11)]
    + [(3, m) for m in range(1, 7)]
    + [(5, m) for m in range(1, 5)]
    + [(7, 2), (7, 3), (11, 2), (13, 2)],
)
def test_search_modulus_against_brute_force(p, m):
    # at (7,3), (11,2) and (13,2) the brute force walks the whole block
    # c_0 = 1, which the norm filter skips: -1 generates none of F_7^*,
    # F_11^* and F_13^*
    assert tuple(gf._search_modulus(p, m, p**m - 1)) == _brute_force_modulus(p, m)


def test_search_modulus_of_the_wide_fields():
    assert tuple(gf._search_modulus(3, 10, 3**10 - 1)) == (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)
    # x^20 + x^17 + 1
    assert gf._search_modulus(2, 20, 2**20 - 1) == [1] + [0] * 16 + [1, 0, 0, 1]
    # deep in the candidate range: the blocks c_0 = 1 (and c_0 = 2 at 7^8)
    # fail the norm filter
    assert tuple(gf._search_modulus(5, 10, 5**10 - 1)) == (2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1)
    assert tuple(gf._search_modulus(7, 8, 7**8 - 1)) == (3, 0, 0, 0, 0, 0, 0, 1, 1)


def _packed_powers_by_recurrence(p, modulus):
    # packed x^k mod modulus for k = 0 .. p^m - 2, one multiply-by-x step at
    # a time: the sequential construction, independent of the table build
    m = len(modulus) - 1
    cur, out = [1] + [0] * (m - 1), []
    for _ in range(p**m - 1):
        out.append(sum(c * p**i for i, c in enumerate(cur)))
        top = cur[-1]
        cur = [(-top * modulus[0]) % p] + [
            (cur[i - 1] - top * modulus[i]) % p for i in range(1, m)
        ]
    return out


def _times_x(p, modulus, packed):
    # packed x * v mod modulus for each packed v, on unpacked digits
    m = len(modulus) - 1
    digits = [(packed // p**i) % p for i in range(m)]
    top = digits[-1]
    out = (-top * modulus[0]) % p
    for i in range(1, m):
        out += (digits[i - 1] - top * modulus[i]) % p * p**i
    return out


@pytest.mark.parametrize(
    "p,m,modulus",
    [(2, m, None) for m in range(1, 11)]
    + [(3, m, None) for m in range(1, 7)]
    + [(5, m, None) for m in range(1, 5)]
    + [(7, 2, None), (3, 10, None), (2, 20, None), (2, 5, [1, 0, 1, 0, 0, 1])]
    # 13 digit fields of 5 bits need two int64 words, and 3^13 entries more
    # than one reduction block of 2^20
    + [(3, 13, None)],
)
def test_alog_table_against_recurrence(p, m, modulus):
    # entry k of _pck[1:] is x^k: entry 0 is 1 and each entry is x times the
    # one before it, the last wrapping back to entry 0, checked independently
    # of the baby-step giant-step build; small tables also against the
    # sequential walk
    ctx = build_field(p, 1, m, modulus)
    powers = ctx._pck[1:]
    assert ctx._pck[0] == 0 and powers[0] == 1
    assert np.array_equal(_times_x(p, ctx.modulus, powers), np.roll(powers, -1))
    if powers.size <= 2**12:
        want = np.array(_packed_powers_by_recurrence(p, ctx.modulus), dtype=np.int64)
        assert np.array_equal(powers, want)
    assert np.array_equal(ctx._idx[ctx._pck], np.arange(ctx.size))


@pytest.mark.parametrize("p,m", [(2, 8), (3, 5), (5, 3), (7, 1), (65521, 1)])
def test_packed_linear_table_against_times_x(p, m):
    # the maps v -> x v and v -> x^2 v side by side, from their values
    # x^(j+1) and x^(j+2) at x^j; the table stays int32 at every p, as an
    # int64 kernel costs twice the time at p = 2; at m = 1 it is c L(1) mod p
    ctx = build_field(p, 1, m)
    terms = np.stack([ctx._pck[2:2 + m], ctx._pck[3:3 + m]])[..., None]
    table = gf._packed_linear_table(p, m, terms)
    assert table.dtype == np.int32 and table.shape == (2, p**m)
    x_times = _times_x(p, ctx.modulus, np.arange(p**m))
    assert np.array_equal(table[0], x_times)
    assert np.array_equal(table[1], _times_x(p, ctx.modulus, x_times))


def test_search_skips_an_irreducible_non_primitive_candidate():
    # At 2^8 the first batch of 16 candidates holds x^8 + x^7 + x^5 + x^4 + 1,
    # which is irreducible (no factor of degree <= 4) but gives x order 51,
    # ahead of the lex-least primitive modulus in the same batch.
    below = (1, 0, 0, 0, 1, 1, 0, 1, 1)
    assert len(set(_packed_powers_by_recurrence(2, below))) == 51
    modulus = tuple(gf._search_modulus(2, 8, 255))
    assert below < modulus and modulus == _brute_force_modulus(2, 8)
    assert sum(c << (7 - i) for i, c in enumerate(modulus[:8])) < 2**7 + 16


def test_non_primitive_modulus_root_fails_the_log_table(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2, but x has order 5, not
    # 15: the table of powers repeats and the log table cannot be complete
    monkeypatch.setattr(gf, "_search_modulus", lambda p, m, order: [1, 1, 1, 1, 1])
    with pytest.raises(RuntimeError, match="log table incomplete"):
        FieldCtx(2, 1, 4)


def test_construction_guards():
    for p in (0, 1, 4, 9, 15):
        with pytest.raises(NotPrime):
            build_field(p, 1, 3)
    assert build_field(13, 1, 2).p == 13
    with pytest.raises(TooLarge):
        build_field(2, 1, 25)


def test_scalar_arithmetic(f32):
    g = f32.gen
    assert f32.inv(1) == 1
    assert f32.mul(g, f32.pow_int(g, f32.order - 1)) == 1
    r = random.Random(0)
    for _ in range(100):
        x = r.randrange(f32.size)
        assert f32.add(x, f32.neg(x)) == 0
    with pytest.raises(DivisionByZero):
        f32.inv(0)


def test_addition_against_packed_oracle(f243):
    # Zech addition must agree with coefficient-wise addition mod p
    ctx = f243
    r = random.Random(1)
    for _ in range(2000):
        a, b = r.randrange(ctx.size), r.randrange(ctx.size)
        pa, pb = int(ctx._pck[a]), int(ctx._pck[b])
        ps = 0
        mult = 1
        for _ in range(ctx.m):
            ps += ((pa % ctx.p + pb % ctx.p) % ctx.p) * mult
            pa //= ctx.p
            pb //= ctx.p
            mult *= ctx.p
        assert ctx.add(a, b) == int(ctx._idx[ps])


def test_scalar_add_above_the_table_limit():
    # above MAX_TABLE_SIZE scalar add reads the Zech array, not a list copy
    ctx = build_field(3, 1, 8)
    assert ctx.size > MAX_TABLE_SIZE
    rng = random.Random(8)
    pairs = [(rng.randrange(ctx.size), rng.randrange(ctx.size)) for _ in range(2000)]
    pairs += [(a, ctx.neg(a)) for a, _ in pairs[:10]]
    sums = [ctx.add(a, b) for a, b in pairs]
    assert all(type(s) is int for s in sums)
    A, B = (np.array(col) for col in zip(*pairs))
    assert sums == ctx.vadd(A, B).tolist()


def test_frobenius_matches_brute_force(f243):
    ctx = f243
    r = random.Random(2)

    def slow_pow_p_e(x, e):
        for _ in range(e):
            y = 1
            for _ in range(ctx.p):
                y = ctx.mul(y, x)
            x = y
        return x

    for _ in range(50):
        x = r.randrange(ctx.size)
        e = r.randrange(ctx.m)
        assert ctx.frobenius(x, e) == slow_pow_p_e(x, e)
    g = ctx.gen
    assert ctx.frobenius(g, ctx.h) != g  # g lies in no proper subfield


def test_frobenius_identity_and_period(f32):
    r = random.Random(3)
    for _ in range(50):
        x = r.randrange(f32.size)
        assert f32.frobenius(x, 0) == x
        y = f32.frobenius(x, f32.h)
        y = f32.frobenius(y, (f32.h * (f32.n - 1)) % f32.m)
        assert y == x


def test_frobenius_is_automorphism(f1024):
    ctx = f1024
    r = random.Random(4)
    for _ in range(10_000):
        a, b, e = r.randrange(ctx.size), r.randrange(ctx.size), r.randrange(ctx.m)
        assert ctx.frobenius(ctx.add(a, b), e) == ctx.add(
            ctx.frobenius(a, e), ctx.frobenius(b, e)
        )
        assert ctx.frobenius(ctx.mul(a, b), e) == ctx.mul(
            ctx.frobenius(a, e), ctx.frobenius(b, e)
        )


def test_trace_definition_and_range(f32):
    ctx = f32
    assert ctx.trace_rel(1, 1) == 1  # n = 5 terms in characteristic 2
    for x in ctx.elements():
        t = ctx.trace_rel(x, 1)
        assert ctx.in_subfield(t, 1)
        # direct orbit sum oracle
        acc, cur = 0, x
        for _ in range(ctx.n):
            acc = ctx.add(acc, cur)
            cur = ctx.frobenius(cur, ctx.h)
        assert acc == t
    with pytest.raises(NotADivisor):
        ctx.trace_rel(1, 2)


def test_trace_surjectivity_counts(f32):
    counts = Counter(f32.trace_rel(x, 1) for x in f32.elements())
    assert counts == {0: 16, 1: 16}  # each value hit q^(n-1) times


def test_norm_multiplicative_and_counts(f243):
    ctx = f243
    r = random.Random(5)
    assert ctx.norm_rel(1, 1) == 1
    assert ctx.norm_rel(0, 1) == 0
    for _ in range(200):
        x, y = r.randrange(ctx.size), r.randrange(ctx.size)
        assert ctx.norm_rel(ctx.mul(x, y), 1) == ctx.mul(
            ctx.norm_rel(x, 1), ctx.norm_rel(y, 1)
        )
    counts = Counter(ctx.norm_rel(x, 1) for x in ctx.nonzero())
    assert sorted(counts.values()) == [121, 121]  # (3^5-1)/2 each


def test_norm_against_orbit_product(f16_tower):
    ctx = f16_tower
    for s in (1, 2):
        for x in ctx.elements():
            prod, cur = 1, x
            for _ in range(ctx.n // s):
                prod = ctx.mul(prod, cur)
                cur = ctx.frobenius(cur, (ctx.h * s) % ctx.m)
            assert prod == ctx.norm_rel(x, s)
            assert ctx.in_subfield(ctx.norm_rel(x, s), s) or ctx.norm_rel(x, s) == 0


def test_trace_norm_orbit_formula_exhaustive(f243):
    # both maps agree with their defining Frobenius-orbit sum/product on
    # every element, for every divisor of n
    ctx = f243
    for s in (1, 5):
        for x in ctx.elements():
            acc, prod, cur = 0, 1, x
            for _ in range(ctx.n // s):
                acc = ctx.add(acc, cur)
                prod = ctx.mul(prod, cur)
                cur = ctx.frobenius(cur, (ctx.h * s) % ctx.m)
            assert acc == ctx.trace_rel(x, s)
            assert prod == ctx.norm_rel(x, s)


def test_tower_subfield_is_frobenius_fixed(f16_tower):
    ctx = f16_tower  # F_2 in F_4 in F_16
    f4 = [x for x in ctx.elements() if ctx.in_subfield(x, 1)]
    assert len(f4) == 4
    for x in f4:
        assert ctx.pow_int(x, 4) == x if x else True


def test_subfield_degree(f32):
    ctx = f32
    assert ctx.subfield_degree(0) == 1
    assert ctx.subfield_degree(ctx.gen) == ctx.m
    e = ctx.from_exp((ctx.size - 1) // (ctx.p - 1))
    assert ctx.subfield_degree(e) == 1

    # oracle: smallest d (any d, not only divisors) with x^(p^d) = x
    def slow_degree(x):
        cur = x
        for d in range(1, ctx.m + 1):
            cur = ctx.frobenius(cur, 1)
            if cur == x:
                return d
        raise AssertionError

    for x in ctx.elements():
        assert ctx.subfield_degree(x) == slow_degree(x)


def test_power_map_image_size():
    # x -> x^(q-1) has image of size (q^n-1)/(q-1), exhaustively for small fields
    for (p, h, n) in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)]:
        ctx = build_field(p, h, n)
        img = {ctx.pow_int(x, ctx.q - 1) for x in ctx.nonzero()}
        assert len(img) == (ctx.size - 1) // (ctx.q - 1)


def test_vector_ops_match_scalar(f243):
    ctx = f243
    rng = np.random.default_rng(6)
    A = rng.integers(0, ctx.size, 3000)
    B = rng.integers(0, ctx.size, 3000)
    va, vm = ctx.vadd(A, B), ctx.vmul(A, B)
    vn, vi = ctx.vneg(A), ctx.vinv(A)
    vf = ctx.vfrob(A, 3)
    for i in range(A.size):
        a, b = int(A[i]), int(B[i])
        assert va[i] == ctx.add(a, b)
        assert vm[i] == ctx.mul(a, b)
        assert vn[i] == ctx.neg(a)
        assert vi[i] == (ctx.inv(a) if a else 0)
        assert vf[i] == ctx.frobenius(a, 3)
    total = 0
    for a in A.tolist():
        total = ctx.add(total, a)
    assert ctx.vfold_add(A) == total


def test_element_parse_format(f32):
    assert f32.fmt(0) == "0"
    assert f32.fmt(1) == "g^0"
    assert f32.parse("g^3") == 4
    assert f32.parse("0") == 0
    assert f32.parse("1") == 1
    with pytest.raises(ValueError):
        f32.parse("h^2")


# ------------------------------------------- lookup tables against an oracle

def _digitwise_sum(ctx, pa, pb):
    """Packed a + b by base-p digits, reading no log or Zech table."""
    if ctx.p == 2:
        return pa ^ pb
    out = np.zeros_like(pa)
    for i in range(ctx.m):
        w = ctx.p**i
        out += (pa // w % ctx.p + pb // w % ctx.p) % ctx.p * w
    return out


@pytest.mark.parametrize("spec", [(3, 1, 2), (2, 2, 2), (2, 1, 5), (3, 1, 5), (2, 2, 5)],
                         ids=["F9", "F16-tower", "F32", "F243", "F1024"])
def test_vector_tables_on_every_pair(spec):
    ctx = build_field(*spec)
    assert ctx.size <= MAX_TABLE_SIZE and ctx._tables() is not None
    X = np.arange(ctx.size, dtype=np.int64)
    A, B = (M.ravel() for M in np.meshgrid(X, X, indexing="ij"))
    sums, prods = ctx.vadd(A, B), ctx.vmul(A, B)
    assert sums.dtype == prods.dtype == np.int64
    assert np.array_equal(ctx.packed(sums), _digitwise_sum(ctx, ctx.packed(A), ctx.packed(B)))
    assert prods.tolist() == [ctx.mul(a, b) for a, b in zip(A.tolist(), B.tolist())]
    assert ctx.vneg(X).tolist() == [ctx.neg(a) for a in X.tolist()]
    assert ctx.vinv(X).tolist() == [ctx.inv(a) if a else 0 for a in X.tolist()]
    for e in range(ctx.m):
        assert ctx.vfrob(X, e).tolist() == [ctx.frobenius(a, e) for a in X.tolist()]
    # scalar x array, array x scalar and row x column broadcast like numpy
    for a in (0, 1, ctx.size - 1):
        full = np.full(ctx.size, a, dtype=np.int64)
        assert np.array_equal(ctx.vadd(a, X), ctx.vadd(full, X))
        assert np.array_equal(ctx.vmul(X, a), ctx.vmul(X, full))
    grid = ctx.vadd(X[:, None], X[None, :])
    assert np.array_equal(grid.ravel(), sums)
    assert int(ctx.vadd(2, 3)) == ctx.add(2, 3)


@pytest.mark.parametrize("spec", [(2, 1, 11), (5, 1, 5), (2, 1, 12), (3, 1, 8), (2, 1, 20)],
                         ids=["F2048", "F3125", "F4096", "F6561", "F1048576"])
def test_vector_ops_on_random_pairs(spec):
    # 2048..4096 elements gather from tables; 6561 and 2^20 use index and
    # Zech arithmetic, 2^20 on Zech indices far above 2^16
    ctx = build_field(*spec)
    assert ctx._pck.dtype == ctx._idx.dtype == ctx._zech.dtype == np.int32
    assert (ctx._tables() is not None) == (ctx.size <= MAX_TABLE_SIZE)
    rng = np.random.default_rng(7)
    A = rng.integers(0, ctx.size, 100_000)
    B = rng.integers(0, ctx.size, 100_000)
    sums = ctx.vadd(A, B)
    assert sums.dtype == np.int64
    assert np.array_equal(ctx.packed(sums), _digitwise_sum(ctx, ctx.packed(A), ctx.packed(B)))
    assert ctx.vmul(A, B).tolist() == [ctx.mul(a, b) for a, b in zip(A.tolist(), B.tolist())]
    X = A[:5000].tolist()
    assert ctx.vneg(A[:5000]).tolist() == [ctx.neg(a) for a in X]
    assert ctx.vinv(A[:5000]).tolist() == [ctx.inv(a) if a else 0 for a in X]
    for e in range(ctx.m):
        assert ctx.vfrob(A[:5000], e).tolist() == [ctx.frobenius(a, e) for a in X]


# ------------------------------------------------------ interned contexts

def test_build_field_is_interned():
    assert build_field(3, 1, 5) is build_field(3, 1, 5)
    ctx = build_field(2, 1, 5)
    assert build_field(2, 1, 5, modulus=list(ctx.modulus)) is ctx
    # an explicit lex-least modulus first, the searched one second
    lex_least = list(FieldCtx(7, 1, 2).modulus)
    explicit = build_field(7, 1, 2, modulus=lex_least)
    assert build_field(7, 1, 2) is explicit
    assert build_field(2, 1, 5, modulus=[1, 0, 1, 0, 0, 1]) is not ctx


def test_unused_context_is_freed():
    ctx = build_field(3, 1, 3)
    ctx._tables()
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None
    assert build_field(3, 1, 3).size == 27


def test_pickle_with_build_field_wrapped(monkeypatch, f243):
    # a profiler may replace gf.build_field by a wrapper that pickle cannot
    # save by reference; contexts still pickle and intern
    real = gf.build_field
    monkeypatch.setattr(gf, "build_field", lambda *a, **k: real(*a, **k))
    assert pickle.loads(pickle.dumps(f243)) is f243


def test_pickle_keeps_identity_and_sends_no_tables(f1024):
    ctx = f1024
    ctx._tables()
    data = pickle.dumps(ctx)
    assert len(data) < 2048
    assert pickle.loads(data) is ctx
    f = QPoly(ctx, [3, 0, 7, 1, 0])
    assert pickle.loads(pickle.dumps(f)) == f
    im = image_of_ratio(f)
    assert pickle.loads(pickle.dumps(im)) == im


def test_context_identity_across_a_worker_process(f243):
    # a fresh interpreter rebuilds the context from its pickle; what it
    # sends back compares equal to the parent's own objects
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        tr = pool.submit(trace_poly, f243).result(timeout=120)
        im = pool.submit(image_of_ratio, tr).result(timeout=120)
    assert tr.ctx is f243
    assert tr == trace_poly(f243)
    assert im == image_of_ratio(trace_poly(f243))
