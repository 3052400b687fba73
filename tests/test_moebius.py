"""Semilinear maps: group laws, admissibility, transport, the slope action,
and the set-equivalence scan, for one target (`find_set_equivalence`) or
many (`set_equivalence_witnesses`), against the ordered-triple walk and the
scan of the unordered triples of S; its star and point keys against the
chain of field operations per probe bit."""

import random
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from qlinset import imageset as ims
from qlinset.errors import DegenerateSet, InconsistentStructure, NotAdmissible, SingularMatrix
from qlinset.gf import build_field
from qlinset.linset import (
    _sample_mus,
    default_new_example_delta,
    family_g,
    mus_with_nontrivial_norm,
    pgammal_equivalent,
)
from qlinset.moebius import (
    INF,
    SemilinearMap,
    _carry,
    _cross_ratio_matrix,
    _hits,
    _log_differences,
    _pairs_per_block,
    _point_keys,
    _point_triple,
    _scan,
    _star_keys,
    _window_keys,
    _witnesses,
    find_set_equivalence,
    is_admissible,
    moebius_image,
    set_equivalence_witnesses,
    transform_poly,
)
from qlinset.qpoly import QPoly, identity_poly, monomial, trace_poly


def rand_poly(ctx, r):
    return QPoly(ctx, [r.randrange(ctx.size) for _ in range(ctx.n)])


def rand_phi(ctx, r, sigma=None):
    while True:
        try:
            return SemilinearMap(
                ctx,
                r.randrange(ctx.size),
                r.randrange(ctx.size),
                r.randrange(ctx.size),
                r.randrange(ctx.size),
                r.randrange(ctx.m) if sigma is None else sigma,
            )
        except SingularMatrix:
            continue


def test_singular_matrix_rejected(f32):
    with pytest.raises(SingularMatrix):
        SemilinearMap(f32, 1, 1, 1, 1, 0)
    with pytest.raises(SingularMatrix):
        SemilinearMap(f32, 0, 0, 0, 0, 0)


def test_entries_outside_the_field_are_rejected(f243):
    # 300 would serialize as g^299 and index past the field's tables
    for bad in (300, f243.size, INF):
        for pos in range(4):
            entries = [1, 0, 0, 1]
            entries[pos] = bad
            with pytest.raises(ValueError, match=f"{'abcd'[pos]} = {bad} is no element index"):
                SemilinearMap(f243, *entries)


def test_entry_points_reject_another_field_context(f243):
    other = build_field(3, 1, 5, modulus=[1, 0, 0, 2, 1, 1])
    assert other is not f243
    f = QPoly(f243, [0, 0, f243.gen, 1, 0])
    g = QPoly(other, f.coeffs)
    S, T = ims.image_of_ratio(f), ims.image_of_ratio(g)
    phi, psi = (SemilinearMap(ctx, 1, 1, 0, 1, 1) for ctx in (f243, other))
    calls = [
        lambda: pgammal_equivalent(f, g),
        lambda: find_set_equivalence(S, T),
        lambda: set_equivalence_witnesses(S, [S, T]),
        lambda: transform_poly(g, phi),
        lambda: moebius_image(T, phi),
        lambda: is_admissible(g, phi),
        lambda: phi.compose(psi),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different field contexts"):
            call()
    # each answers within one context
    ident = SemilinearMap.identity(other)
    assert pgammal_equivalent(g, g) is not None
    assert transform_poly(g, ident) == g and moebius_image(T, ident) == T
    assert is_admissible(g, ident)
    assert psi.compose(ident) == psi


def test_identity_and_composition_on_slopes(f243):
    r = random.Random(40)
    ident = SemilinearMap.identity(f243)
    for _ in range(300):
        z = r.randrange(f243.size)
        assert ident.apply_slope(z) == z
        p1, p2 = rand_phi(f243, r), rand_phi(f243, r)
        assert p2.compose(p1).apply_slope(z) == p2.apply_slope(p1.apply_slope(z))


def test_inverse_on_slopes(f243):
    r = random.Random(41)
    for _ in range(300):
        phi = rand_phi(f243, r)
        z = r.randrange(f243.size)
        w = phi.apply_slope(z)
        assert phi.inverse().apply_slope(w) == z


def test_inf_handling(f32):
    # map sending 0 -> INF: denominator a + b*0 = a = 0
    phi = SemilinearMap(f32, 0, 1, 1, 0, 0)
    assert phi.apply_slope(0) == INF
    assert phi.apply_slope(INF) == 0  # d/b = 0/1


def test_is_admissible(f32):
    r = random.Random(42)
    ident = SemilinearMap.identity(f32)
    for _ in range(20):
        f = rand_poly(f32, r)
        assert is_admissible(f, ident)
        b0 = SemilinearMap(f32, r.randrange(1, 32), 0, r.randrange(32), r.randrange(1, 32), 1)
        assert is_admissible(f, b0)  # b = 0 is always admissible
    # f = x^q, phi with a=0, b=1: admissible iff 0 not in Im(x^{q-1}) -> true
    xq = monomial(f32, 1)
    phi = SemilinearMap(f32, 0, 1, 1, 0, 0)
    assert is_admissible(xq, phi)
    # and the identity map polynomial has image {1}; a/b = -1 hits it
    idp = identity_poly(f32)
    phi_bad = SemilinearMap(f32, 1, 1, 1, 0, 0)  # -(a/b) = 1 in char 2
    assert not is_admissible(idp, phi_bad)
    with pytest.raises(NotAdmissible):
        transform_poly(idp, phi_bad)


def test_transform_identity_and_scaling(f243):
    r = random.Random(43)
    ident = SemilinearMap.identity(f243)
    for _ in range(20):
        f = rand_poly(f243, r)
        assert transform_poly(f, ident, verify=True) == f
        lam = r.randrange(1, f243.size)
        il = f243.inv(lam)
        phi = SemilinearMap(f243, il, 0, 0, il, 0)
        assert transform_poly(f, phi, verify=True) == f.scale_conjugate(lam)


def test_transform_every_automorphism_at_q4(f1024):
    # odd sigma_exp move F_4, so k_f is F_2-linear but not F_4-linear
    r = random.Random(52)
    for e in range(f1024.m):
        done = 0
        while done < 3:
            f = rand_poly(f1024, r)
            phi = rand_phi(f1024, r, sigma=e)
            im = ims.image_of_ratio(f)
            if not is_admissible(f, phi):
                continue
            done += 1
            g = transform_poly(f, phi, verify=True)
            assert ims.image_of_ratio(g) == moebius_image(im, phi)


def test_transform_raises_exactly_when_inadmissible(f32, f243, f1024):
    # transform_poly decides admissibility by its own inverse table
    r = random.Random(53)
    for ctx in (f32, f243, f1024):
        seen = Counter()
        for _ in range(150):
            f = rand_poly(ctx, r)
            phi = rand_phi(ctx, r)
            ok = is_admissible(f, phi)
            seen[ok, phi.sigma_exp != 0] += 1
            try:
                transform_poly(f, phi)
                raised = False
            except NotAdmissible:
                raised = True
            assert raised == (not ok), (ctx, f, phi)
        # both outcomes, with and without a field automorphism
        assert len(seen) == 4 and min(seen.values()) >= 3, (ctx, seen)


def gauss_jordan_solve(ctx, mat, rhs):
    """X with mat X = rhs over the field, for square `mat` and `rhs` given as
    rows; None if `mat` is singular.  Scalar arithmetic only, so that the
    oracle below shares no code with the interpolation it checks."""
    n = len(mat)
    m = [list(a) + list(b) for a, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = ctx.inv(m[c][c])
        m[c] = [ctx.mul(inv, v) for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(m[i], m[c])]
    return [row[n:] for row in m]


def transport_by_fp_solve(f, phi):
    """f_phi by solving k_f(x) = g^t, t < n, as an F_p-linear system in
    coordinates embedded in the prime field, with scalar arithmetic; None
    when the system is singular.  The reference for transform_poly."""
    ctx = f.ctx
    e = phi.sigma_exp

    def coords(v):
        # F_p-coordinates of v in the basis 1, x, ..., x^(m-1) of the packed
        # encoding, each written as an element of the prime field
        v = int(ctx._pck[v])
        out = []
        for _ in range(ctx.m):
            v, c = divmod(v, ctx.p)
            out.append(int(ctx._idx[c]))
        return out

    def from_coords(cs):
        v = 0
        for c in reversed(cs):
            v = v * ctx.p + int(ctx._pck[c])
        return int(ctx._idx[v])

    def graph_map(u, v, x):
        xs = ctx.frobenius(x, e)
        fs = ctx.frobenius(f.eval(x), e)
        return ctx.add(ctx.mul(u, xs), ctx.mul(v, fs))

    cols = [coords(graph_map(phi.a, phi.b, int(ctx._idx[ctx.p**j]))) for j in range(ctx.m)]
    points = [ctx.from_exp(t) for t in range(ctx.n)]
    sol = gauss_jordan_solve(ctx, list(zip(*cols)), list(zip(*(coords(y) for y in points))))
    if sol is None:
        return None
    values = [
        graph_map(phi.c, phi.d, from_coords([row[t] for row in sol]))
        for t in range(ctx.n)
    ]
    # interpolate by solving the Moore system sum_k a_k pt^(q^k) = value
    moore = [[ctx.pow_int(pt, ctx.q**k) for k in range(ctx.n)] for pt in points]
    return QPoly(ctx, [row[0] for row in gauss_jordan_solve(ctx, moore, [[v] for v in values])])


@pytest.mark.parametrize("field", ["f32", "f243", "f1024"])
def test_transform_matches_fp_solve_oracle(field, request):
    # every sigma_exp in turn; at F_1024 odd ones move F_4
    ctx = request.getfixturevalue(field)
    r = random.Random(57)
    seen = Counter()
    for k in range(160):
        f = rand_poly(ctx, r)
        phi = rand_phi(ctx, r, sigma=k % ctx.m)
        want = transport_by_fp_solve(f, phi)
        try:
            got = transform_poly(f, phi, verify=k % 2 == 0)
        except NotAdmissible:
            got = None
        assert got == want, (ctx, f, phi)
        seen[got is None] += 1
    assert len(seen) == 2, (ctx, seen)


@pytest.mark.parametrize("field", ["f32", "f243"])
def test_moebius_image_is_none_exactly_when_inf_is_hit(field, request):
    ctx = request.getfixturevalue(field)
    r = random.Random(58)
    seen = Counter()
    for _ in range(200):
        S = ims.image_of_ratio(rand_poly(ctx, r))
        phi = rand_phi(ctx, r)
        pointwise = [phi.apply_slope(z) for z in S.indices().tolist()]
        got = moebius_image(S, phi)
        seen[got is None] += 1
        if INF in pointwise:
            assert got is None
        else:
            assert got == ims.ImageSet.from_indices(ctx, pointwise)
    assert len(seen) == 2, (ctx, seen)


def test_scaling_transport_commutes(f243):
    # g = f(lam x)/lam  iff  g_phi = f_phi(lam^s x)/lam^s, for any phi
    r = random.Random(44)
    done = 0
    while done < 50:
        f = rand_poly(f243, r)
        lam = r.randrange(1, f243.size)
        g = f.scale_conjugate(lam)
        phi = rand_phi(f243, r)
        if not (is_admissible(f, phi) and is_admissible(g, phi)):
            continue
        done += 1
        lam_s = f243.frobenius(lam, phi.sigma_exp)
        assert transform_poly(g, phi) == transform_poly(f, phi).scale_conjugate(lam_s)


def test_transport_preserves_image_equality(f32, f243):
    # images_equal(f, g) implies images_equal(f_phi, g_phi) for admissible phi
    r = random.Random(45)
    for ctx in (f32, f243):
        done = 0
        while done < 500:
            f = rand_poly(ctx, r)
            lam = r.randrange(1, ctx.size)
            g = f.scale_conjugate(lam) if done % 2 else f.adjoint().scale_conjugate(lam)
            phi = rand_phi(ctx, r)
            if not is_admissible(f, phi):
                continue
            assert is_admissible(g, phi)  # same image, same admissibility
            done += 1
            assert ims.images_equal(transform_poly(f, phi), transform_poly(g, phi))


def test_moebius_image_identity_and_size(f32):
    r = random.Random(46)
    ident = SemilinearMap.identity(f32)
    for _ in range(50):
        f = rand_poly(f32, r)
        S = ims.image_of_ratio(f)
        assert moebius_image(S, ident) == S
        phi = rand_phi(f32, r)
        moved = moebius_image(S, phi)
        assert len({phi.apply_slope(z) for z in S.indices().tolist()}) == len(S)
        assert moved is None or len(moved) == len(S)


def test_scalar_matrices_fix_every_set(f243):
    r = random.Random(47)
    for _ in range(50):
        f = rand_poly(f243, r)
        S = ims.image_of_ratio(f)
        lam = r.randrange(1, f243.size)
        phi = SemilinearMap(f243, lam, 0, 0, lam, 0)
        assert moebius_image(S, phi) == S


def test_transform_image_consistency(f32, f243):
    r = random.Random(48)
    for ctx in (f32, f243):
        done = 0
        while done < 200:
            f = rand_poly(ctx, r)
            phi = rand_phi(ctx, r)
            S = ims.image_of_ratio(f)
            if not is_admissible(f, phi):
                continue
            done += 1
            g = transform_poly(f, phi, verify=True)
            slopes = moebius_image(S, phi)
            assert slopes is not None
            assert slopes == ims.image_of_ratio(g)


def test_group_action_on_polynomials(f32):
    r = random.Random(49)
    done = 0
    while done < 300:
        f = rand_poly(f32, r)
        p1, p2 = rand_phi(f32, r), rand_phi(f32, r)
        if not is_admissible(f, p1):
            continue
        f1 = transform_poly(f, p1)
        comp = p2.compose(p1)
        if not (is_admissible(f1, p2) and is_admissible(f, comp)):
            continue
        done += 1
        assert transform_poly(f1, p2) == transform_poly(f, comp)


def test_three_point_solver_reproduces_known_map(f243):
    # images of three points determine the Moebius map; feed the search sets
    # moved by a known map and check the returned witness acts identically
    r = random.Random(50)
    tr = trace_poly(f243)
    S = ims.image_of_ratio(tr)
    for _ in range(5):
        phi0 = rand_phi(f243, r)
        T = moebius_image(S, phi0)
        if T is None:
            continue
        w = find_set_equivalence(S, T)
        assert w is not None
        assert moebius_image(S, w) == T


def test_find_set_equivalence_identity_case(f32):
    S = ims.image_of_ratio(trace_poly(f32))
    w = find_set_equivalence(S, S)
    assert w is not None
    assert moebius_image(S, w) == S


def test_find_set_equivalence_scaled_images(f243):
    r = random.Random(51)
    f = rand_poly(f243, r)
    S = ims.image_of_ratio(f)
    T = ims.image_of_ratio(f.scale_conjugate(7))
    w = find_set_equivalence(S, T)
    assert w is not None


def test_find_set_equivalence_size_mismatch(f32):
    assert find_set_equivalence(
        ims.image_of_ratio(monomial(f32, 1)), ims.image_of_ratio(trace_poly(f32))
    ) is None


def test_find_set_equivalence_degenerate(f32):
    S = ims.ImageSet.from_indices(f32, [1, 2])
    with pytest.raises(DegenerateSet):
        find_set_equivalence(S, S)


def test_witness_leads_with_one(f32):
    S = ims.image_of_ratio(trace_poly(f32))
    w = find_set_equivalence(S, S)
    lead = next(v for v in (w.a, w.b, w.c, w.d) if v)
    assert lead == 1
    # the stabilizer of x^q scales by b where a = 0, as in its last map
    S = ims.image_of_ratio(monomial(f32, 1))
    found = set_equivalence_witnesses(S, [S])[0]
    assert len(found) == 310
    assert all(next(v for v in (w.a, w.b, w.c, w.d) if v) == 1 for w in found)
    assert sum(w.a == 0 for w in found) > 0
    assert found[-1].serialize() == "[[0,g^0],[g^30,0]];sigma=2^4"


def test_witness_self_check_raises_on_a_map_that_misses_t(f32):
    # the identity, a real scan row of S against itself, re-checked against
    # another set of the same size
    S = ims.image_of_ratio(monomial(f32, 1))
    hits = next(_scan(S, [S]))[0][:1]
    T = ims.ImageSet.from_indices(f32, [0, *range(2, 32)])
    assert len(T) == len(S) and T != S
    assert [w.serialize() for w in _witnesses(S, S, hits)] == ["[[g^0,0],[0,g^0]];sigma=2^0"]
    with pytest.raises(InconsistentStructure, match="self-check"):
        _witnesses(S, T, hits)


def test_serialization(f32):
    phi = SemilinearMap(f32, 1, 0, 4, 8, 3)
    assert phi.serialize() == "[[g^0,0],[g^3,g^7]];sigma=2^3"


# --------------------------------- the set-equivalence scan, one T or many

def keys_by_chain(ctx, mask, z1, z2, z3, probes):
    """Keys of the triples (z1[i], z2[i], z3[i]) of the set `mask`, by field
    arithmetic per probe bit: bit b is [probes[..., b] in N(set; triple)],
    with one row of probes for every triple or one row for all.  M(z) =
    r (z - z1)/(z - z3) with r = (z2 - z3)/(z2 - z1) sends the triple to
    (0, 1, INF), so M^-1(y) = z3 + K/(y - r) with K = r (z3 - z1), and
    y = r goes to INF."""
    r = ctx.vmul(ctx.vadd(z2, ctx.vneg(z3)), ctx.vinv(ctx.vadd(z2, ctx.vneg(z1))))
    nr, k = ctx.vneg(r), ctx.vmul(r, ctx.vadd(z3, ctx.vneg(z1)))
    keys = np.zeros(z1.size, dtype=np.int64)
    for b in range(probes.shape[-1]):
        den = ctx.vadd(probes[..., b], nr)
        bit = mask[ctx.vadd(z3, ctx.vmul(k, ctx.vinv(den)))] & (den != 0)
        keys |= np.left_shift(bit, b, dtype=np.int64)
    return keys


@pytest.mark.parametrize("spec", [(2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 2), (3, 2, 2),
                                  (3, 1, 8)],
                         ids=lambda spec: ",".join(map(str, spec)))
def test_window_keys_match_the_chain(spec):
    # (3,1,8) lies above MAX_TABLE_SIZE, so its field sums run by index and
    # Zech arithmetic, and its point keys span several blocks
    ctx = build_field(*spec)
    r = random.Random(f"window/{spec}")
    sets = [ims.ImageSet.from_indices(ctx, r.sample(range(ctx.size), n)) for n in (3, 11, 20)]
    if ctx.size == 32:
        sets.append(ims.image_of_ratio(rand_strict(ctx, r)))
    for S in sets:
        s = S.indices()
        size = s.size
        # the star: (u_0, u_y, u_z) for u = sigma^e(S), y != z both nonzero
        y, z = np.array(list(permutations(range(1, size), 2))).T
        codes = np.concatenate([(e * size + y) * size + z for e in range(ctx.m)])
        u = np.stack([ctx.vfrob(s, e) for e in range(ctx.m)])
        masks = [ims.ImageSet.from_indices(ctx, row).mask for row in u]
        # the points: one ordered triple per point of each sigma^e(S), a set
        # of the size of S per row
        t = np.sort(u, axis=1)
        a = np.arange(size)
        j, k = _point_triple(a)
        assert all([j[x], k[x]] == [v for v in range(size) if v != x][:2] for x in a)
        for bits in sorted({min(ctx.size - 2, 16), min(ctx.size - 2, 56)}):
            probes = np.arange(2, bits + 2)  # g^1 .. g^bits
            want = np.concatenate([
                keys_by_chain(ctx, mask, np.full(y.size, row[0]), row[y], row[z], probes)
                for row, mask in zip(u, masks)
            ])
            blocks = [(e, *block) for e, _, star in _star_keys(S, bits) for block in star]
            keys = np.concatenate([key for _, key, _, _ in blocks])
            got = np.concatenate([(e * size + yb) * size + zb for e, _, yb, zb in blocks])
            assert np.array_equal(np.sort(got), codes)
            assert np.array_equal(keys[np.argsort(got)], want)
            by_chain = [keys_by_chain(ctx, mask, row[a], row[j], row[k], probes)
                        for row, mask in zip(t, masks)]
            assert np.array_equal(_point_keys(ctx, t, bits), by_chain)


def scan_by_triples(S, Ts):
    """Every witness list of S against Ts, serialized, by keying the
    unordered triples i < j < k of S once on 16 bits plus one per doubling
    of the targets, and looking up the six orderings of the three smallest
    points of each T against sigma^e of the probes, for every e: the keys of
    sigma^-e(T) at the orderings of sigma^-e of those points.  Triples whose
    low 16 key bits match no such anchor key are dropped before the lookup.
    Each match whose map carries S^sigma^e onto T is a witness, ranked by
    where it sends the three smallest points of S^sigma^e."""
    ctx = S.ctx
    s = S.indices()
    size = s.size
    bits = min(ctx.size - 2, 16 + max(len(Ts) - 1, 0).bit_length())
    orders = np.array(list(permutations(range(3))))
    anchors = []  # [T][e][ordering]
    for T in Ts:
        v = [ctx.vfrob(T.indices(), -e) for e in range(ctx.m if len(T) == size else 0)]
        anchors.append([_window_keys(ctx, _log_differences(ctx, x[:3], x), orders[:, 0],
                                     orders[:, 2], np.arange(6), orders[:, 1], bits)
                        for x in v])
    wanted = np.zeros(1 << min(bits, 16), dtype=bool)
    for rows in anchors:
        for row in rows:
            wanted[row & (wanted.size - 1)] = True
    L = _log_differences(ctx, s, s)
    pi, pk = np.triu_indices(size, 2)
    keys, codes = [], []
    step = _pairs_per_block(ctx, size)
    for lo in range(0, pi.size, step):
        bi, bk = pi[lo:lo + step], pk[lo:lo + step]
        count = bk - bi - 1
        pair = np.repeat(np.arange(bi.size), count)
        j = np.repeat(bi + 1 - (np.cumsum(count) - count), count) + np.arange(pair.size)
        key = _window_keys(ctx, L, bi, bk, pair, j, bits)
        keep = wanted[key & (wanted.size - 1)]
        keys.append(key[keep])
        codes.append(((bi[pair] * size + j) * size + bk[pair])[keep])
    keys, codes = np.concatenate(keys), np.concatenate(codes)
    order = np.argsort(keys)
    keys, codes = keys[order], codes[order]
    found = []
    for T, rows in zip(Ts, anchors):
        witnesses = []
        t = T.indices()
        for e, row in enumerate(rows):
            w = np.sort(ctx.vfrob(s, e))
            for order, anchor in zip(orders, row):
                code = codes[np.searchsorted(keys, anchor):np.searchsorted(keys, anchor, "right")]
                src = ctx.vfrob(s[[code // (size * size), code // size % size, code % size]], e)
                M = _carry(ctx, _cross_ratio_matrix(ctx, *src),
                           _cross_ratio_matrix(ctx, *t[order]))
                ma, mb, mc, md = (x[:, None] for x in M)
                den = ctx.vadd(ma, ctx.vmul(mb, w))
                val = ctx.vmul(ctx.vadd(mc, ctx.vmul(md, w)), ctx.vinv(den))
                ok = ((den != 0) & T.mask[val]).all(axis=1)
                rank = np.searchsorted(t, val[ok, :3])
                for i, entries in zip(rank.tolist(), np.column_stack(M)[ok].tolist()):
                    lead = next(x for x in entries if x)
                    text = [ctx.fmt(ctx.div(x, lead)) for x in entries]
                    witnesses.append(((e, *i), "[[{},{}],[{},{}]];sigma={}^{}".format(
                        *text, ctx.p, e)))
        found.append([text for _, text in sorted(witnesses)])
    return found


@pytest.mark.parametrize("spec", [(2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 2), (3, 2, 2),
                                  (2, 1, 6)],
                         ids=lambda spec: ",".join(map(str, spec)))
def test_star_scan_matches_the_triple_scan(spec):
    # S itself, three transports of S with random sigma, a random strict set
    ctx = build_field(*spec)
    r = random.Random(f"star/{spec}")
    S = ims.image_of_ratio(rand_strict(ctx, r))
    Ts = [S]
    while len(Ts) < 4:
        T = moebius_image(S, rand_phi(ctx, r))
        if T is not None:
            Ts.append(T)
    Ts.append(ims.image_of_ratio(rand_strict(ctx, r)))
    found = [[w.serialize() for w in ws] for ws in set_equivalence_witnesses(S, Ts)]
    assert found == scan_by_triples(S, Ts)
    assert all(found[:4])


WALK_CHUNK = 1 << 18


def search_by_walk(S, T):
    """The lex-least witness by walking the ordered triples of T: anchor the
    three smallest points of S^sigma, send them to each ordered distinct
    triple of T in lex order, automorphism by automorphism, and keep the
    first map that carries all of S^sigma into T.  With P sending the
    anchors and Q the triple to (0, 1, INF), the map sends z to Q^-1(P(z)),
    so each Q is built once for every automorphism and each point is
    tested through its scalar P(z)."""
    if len(S) < 3:
        raise DegenerateSet(f"need at least 3 points, got {len(S)}")
    if len(S) != len(T):
        return None
    ctx = S.ctx
    t_idx = T.indices()
    mlen = t_idx.size
    g = np.arange(mlen**3)
    i1, i2, i3 = g // (mlen * mlen), g // mlen % mlen, g % mlen
    keep = (i1 != i2) & (i1 != i3) & (i2 != i3)
    Q = _cross_ratio_matrix(ctx, t_idx[i1[keep]], t_idx[i2[keep]], t_idx[i3[keep]])

    for e in range(ctx.m):
        s_sig = np.sort(ctx.vfrob(S.indices(), e))
        P = _cross_ratio_matrix(ctx, *s_sig[:3])
        pa, pb, pc, pd = P
        rest = s_sig[3:]
        ys = ctx.vmul(ctx.vadd(pc, ctx.vmul(pd, rest)), ctx.vinv(ctx.vadd(pa, ctx.vmul(pb, rest))))

        for lo in range(0, Q[0].size, WALK_CHUNK):
            qa, qb, qc, qd = (x[lo:lo + WALK_CHUNK] for x in Q)
            for y in ys.tolist():
                # Q^-1(y) = (qa y - qc)/(qd - qb y), INF where the denominator is 0
                den = ctx.vadd(qd, ctx.vneg(ctx.vmul(qb, y)))
                val = ctx.vmul(ctx.vadd(ctx.vmul(qa, y), ctx.vneg(qc)), ctx.vinv(den))
                alive = np.flatnonzero((den != 0) & T.mask[val])
                qa, qb, qc, qd = (x[alive] for x in (qa, qb, qc, qd))
                if not alive.size:
                    break
            if qa.size:  # triples ascend: first = lex-least
                M = [int(v) for v in _carry(ctx, P, (qa[0], qb[0], qc[0], qd[0]))]
                lead = next(v for v in M if v)
                w = SemilinearMap(ctx, *(ctx.div(v, lead) for v in M), e)
                assert moebius_image(S, w) == T
                return w
    return None


def agrees(S, T, found=None):
    """The walk, the one-off search and the head of T's witness list give one
    answer, witness included; `found` is that list from a batch, or else from
    a batch of T alone."""
    if found is None:
        found = set_equivalence_witnesses(S, [T])[0]
    answers = [search_by_walk(S, T), find_set_equivalence(S, T),
               found[0] if found else None]
    assert len({w.serialize() if w else None for w in answers}) == 1, answers
    assert all(moebius_image(S, w) == T for w in found)
    return answers[0]


def new_example_set(ctx):
    # L of delta x^(q^2) + x^(q^3), the set of criterion 7
    return ims.image_of_ratio(family_g(ctx, 2, default_new_example_delta(ctx)))


def test_witness_scan_matches_search_on_known_cases(f32, f243):
    S = ims.image_of_ratio(trace_poly(f32))
    assert agrees(S, S) is not None
    r = random.Random(51)
    f = rand_poly(f243, r)
    assert agrees(ims.image_of_ratio(f), ims.image_of_ratio(f.scale_conjugate(7)))
    # the moved trace images of test_three_point_solver_reproduces_known_map
    r = random.Random(50)
    S = ims.image_of_ratio(trace_poly(f243))
    moved = [T for T in (moebius_image(S, rand_phi(f243, r)) for _ in range(5)) if T is not None]
    for T, found in zip(moved, set_equivalence_witnesses(S, moved)):
        assert agrees(S, T, found)


@pytest.mark.parametrize("field", ["f32", "f243"])
def test_witness_scan_matches_search_on_transported_pairs(field, request):
    ctx = request.getfixturevalue(field)
    r = random.Random(54)
    # (set, the sigma exponents drawn for it): a witness with sigma = p^e
    # costs the search e whole blocks when S has a small stabilizer, as a
    # random set at F_243 does; the new example's stabilizer has a map for
    # every e, so its search stops in block 0
    cases = [(new_example_set(ctx), range(1, ctx.m))] if ctx.q > 2 else []
    while len(cases) < (4 if ctx.q == 2 else 2):
        f = rand_poly(ctx, r)
        if f.is_strictly_linear():
            cases.append((ims.image_of_ratio(f), range(1, 2 if ctx.q > 2 else ctx.m)))
    for S, sigmas in cases:
        moved = []
        while len(moved) < 3:
            T = moebius_image(S, rand_phi(ctx, r, sigma=r.choice(sigmas)))
            if T is not None:
                moved.append(T)
        for T, found in zip(moved, set_equivalence_witnesses(S, moved)):
            assert agrees(S, T, found)


def test_witness_scan_matches_search_on_nonequivalent_pairs(f32, f243):
    # L of delta x^(q^2) + x^(q^3) against sampled L of mu x^q + x^(q^4)
    S = new_example_set(f243)
    Ts = [ims.image_of_ratio(family_g(f243, 1, mu)) for mu in _sample_mus(f243, 3, seed=0)]
    for T, found in zip(Ts, set_equivalence_witnesses(S, Ts)):
        assert agrees(S, T, found) is None
    # random sets of one size at F_32 that no semilinear map relates
    r = random.Random(55)
    nones = 0
    for _ in range(20):
        k = r.randrange(5, 16)
        S, T = (ims.ImageSet.from_indices(f32, r.sample(range(32), k)) for _ in "ST")
        nones += agrees(S, T) is None
    assert nones >= 10


def random_pair(ctx, r, kind):
    """A seeded pair of sets of one size: S moved by a random map, S moved
    with one point swapped for a point outside, two random strict linear
    sets, or two random subsets."""
    if kind in ("moved", "swapped"):
        k = r.randrange(4, min(ctx.size, 13))
        S = (ims.image_of_ratio(rand_strict(ctx, r)) if ctx.size < 200 and r.random() < 0.5
             else ims.ImageSet.from_indices(ctx, r.sample(range(ctx.size), k)))
        T = None
        while T is None:
            T = moebius_image(S, rand_phi(ctx, r))
        if kind == "swapped":
            pts = T.indices().tolist()
            out = r.choice([z for z in range(ctx.size) if z not in T])
            T = ims.ImageSet.from_indices(ctx, set(pts) - {r.choice(pts)} | {out})
        return S, T
    if kind == "linear":
        S = ims.image_of_ratio(rand_strict(ctx, r))
        while True:
            T = ims.image_of_ratio(rand_strict(ctx, r))
            if len(T) == len(S):
                return S, T
    k = r.randrange(3, min(ctx.size, 16))
    return tuple(ims.ImageSet.from_indices(ctx, r.sample(range(ctx.size), k)) for _ in "ST")


def rand_strict(ctx, r):
    while True:
        f = rand_poly(ctx, r)
        if f.is_strictly_linear():
            return f


@pytest.mark.parametrize("spec", [(2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 3),
                                  (3, 1, 5), (2, 2, 5), (5, 1, 2), (3, 2, 2)],
                         ids=lambda spec: ",".join(map(str, spec)))
def test_walk_search_and_star_scan_agree_on_seeded_pairs(spec):
    # F_243 and F_1024 (m = 10 automorphisms) draw transported pairs of at
    # most 12 points only, where the walk stays cheap
    ctx = build_field(*spec)
    r = random.Random(f"agree/{spec}")
    kinds = ["moved", "swapped"]
    if ctx.size < 200:
        kinds += ["linear", "subset"]
    outcomes = Counter()
    for kind in kinds * 4:
        S, T = random_pair(ctx, r, kind)
        outcomes[agrees(S, T) is not None] += 1
    assert outcomes[True]
    # PGammaL(2,8) is transitive on the k-subsets of F_8 for every k
    assert outcomes[False] if ctx.size > 8 else not outcomes[False], outcomes


def test_witness_scan_rejects_a_key_match_that_is_no_witness(f243):
    # T is S with one point swapped for a point outside S, both kept off the
    # probes by the map M sending the three smallest points of S to
    # (0, 1, INF): the identity stays a key match, but carries S onto no T
    S = new_example_set(f243)
    pts = S.indices().tolist()
    M = SemilinearMap(f243, *(int(v) for v in _cross_ratio_matrix(f243, *pts[:3])))
    probes = set(range(2, 66))  # g^1 .. g^64, past every key's probes
    x = next(z for z in pts[3:] if M.apply_slope(z) not in probes)
    y = next(z for z in range(pts[2] + 1, f243.size)
             if z not in S and M.apply_slope(z) not in probes)
    T = ims.ImageSet.from_indices(f243, set(pts) - {x} | {y})
    assert agrees(S, T) is None
    assert set_equivalence_witnesses(S, [T]) == [[]]


def test_witness_scan_size_mismatch_and_degenerate(f32):
    S = ims.image_of_ratio(monomial(f32, 1))
    T = ims.image_of_ratio(trace_poly(f32))
    assert find_set_equivalence(S, T) is None
    assert set_equivalence_witnesses(S, [T]) == [[]]
    assert set_equivalence_witnesses(S, []) == []
    degenerate = ims.ImageSet.from_indices(f32, [1, 2])
    for Ts in ([], [degenerate], [S]):
        with pytest.raises(DegenerateSet):
            set_equivalence_witnesses(degenerate, Ts)


def stabilizer_order_by_walk(S):
    """|{(e, M) : M(S^sigma^e) = S}|, by sending the three smallest points
    a of S^sigma^e to every ordered triple t of S, with no early exit.  A
    point z goes to the x with cross-ratio cr(t; x) = cr(a; z), where
    cr(z1, z2, z3; z) = r (z - z1)/(z - z3), r = (z2 - z3)/(z2 - z1)."""
    ctx = S.ctx
    pts = S.indices()
    n = pts.size
    g = np.arange(n**3)
    i1, i2, i3 = g // (n * n), g // n % n, g % n
    keep = (i1 != i2) & (i1 != i3) & (i2 != i3)
    t1, t2, t3 = pts[i1[keep]], pts[i2[keep]], pts[i3[keep]]

    def sub(a, b):
        return ctx.vadd(a, ctx.vneg(b))

    def div(a, b):
        return ctx.vmul(a, ctx.vinv(b))

    rt = div(sub(t2, t3), sub(t2, t1))
    kt = ctx.vmul(rt, sub(t3, t1))  # x = t3 + kt/(y - rt) has cr(t; x) = y
    total = 0
    for e in range(ctx.m):
        w = np.sort(ctx.vfrob(pts, e))
        a1, a2, a3 = w[:3]
        ra = div(sub(a2, a3), sub(a2, a1))
        r, t, k = rt, t3, kt  # of the triples still alive
        for z in w[3:]:
            y = ctx.vmul(ra, div(sub(z, a1), sub(z, a3)))
            den = sub(y, r)
            alive = np.flatnonzero((den != 0) & S.mask[ctx.vadd(t, div(k, den))])
            r, t, k = r[alive], t[alive], k[alive]
        total += r.size
    return total


def test_witness_scan_counts_the_stabilizer(f32, f243, f1024):
    # x^q, whose L is F_32^*, then random strict f
    r = random.Random(56)
    polys = [monomial(f32, 1)]
    while len(polys) < 5:
        f = rand_poly(f32, r)
        if f.is_strictly_linear():
            polys.append(f)
    orders = []
    for f in polys:
        S = ims.image_of_ratio(f)
        [found] = set_equivalence_witnesses(S, [S])
        assert all(moebius_image(S, w) == S for w in found)
        assert len({w.serialize() for w in found}) == len(found)
        assert len(found) == stabilizer_order_by_walk(S)
        orders.append(len(found))
    assert orders[0] == 2 * 31 * 5 and len(set(orders)) >= 3
    # x^q at F_243, whose L is the 121 squares, and L of the new example
    S = ims.image_of_ratio(monomial(f243, 1))
    [found] = set_equivalence_witnesses(S, [S])
    assert len(found) == stabilizer_order_by_walk(S) == 2 * 121 * 5
    S = new_example_set(f243)
    [found] = set_equivalence_witnesses(S, [S])
    assert len(found) == stabilizer_order_by_walk(S) == 10
    assert found[0] == SemilinearMap.identity(f243)
    # the new example at F_{4^5} (341 points) and F_{5^5} (781 points), too
    # large for the walk: the known orders
    for ctx, order in ((f1024, 10), (build_field(5, 1, 5), 5)):
        S = new_example_set(ctx)
        [found] = set_equivalence_witnesses(S, [S])
        assert len(found) == order and found[0] == SemilinearMap.identity(ctx)
        assert all(moebius_image(S, w) == S for w in found)


def test_batching_changes_no_answer(f243):
    # a target's witness list alone, in a batch of two, and among all 121 mu
    # sets with S itself, a moved copy of S and a set of another size
    S = new_example_set(f243)
    r = random.Random(59)
    moved = None
    while moved is None:
        moved = moebius_image(S, rand_phi(f243, r, sigma=1))
    other = ims.image_of_ratio(trace_poly(f243))
    assert len(other) != len(S)
    mu_sets = [ims.image_of_ratio(family_g(f243, 1, mu)) for mu in mus_with_nontrivial_norm(f243)]
    targets = [S, moved, mu_sets[0], other]
    alone = [set_equivalence_witnesses(S, [T])[0] for T in targets]
    assert [len(found) for found in alone] == [10, 10, 0, 0]
    assert alone[0][0] == SemilinearMap.identity(f243)
    assert set_equivalence_witnesses(S, [S, moved]) == alone[:2]
    assert set_equivalence_witnesses(S, [mu_sets[0], other]) == alone[2:]
    batch = set_equivalence_witnesses(S, mu_sets + [S, moved, other])
    assert len(mu_sets) == 121 and batch[0] == alone[2] and not any(batch[:121])
    assert batch[121:] == [alone[0], alone[1], alone[3]]


def test_one_pair_per_block_changes_no_answer(f243, f1024, monkeypatch):
    # star and point keys one pair per block: many blocks per automorphism,
    # so each target's hits must be gathered over all blocks before they
    # are sorted
    r = random.Random(60)
    cases = []
    for ctx in (f243, f1024):
        S = new_example_set(ctx)
        moved = None
        while moved is None:
            moved = moebius_image(S, rand_phi(ctx, r, sigma=1))
        cases.append((S, [S, moved, ims.image_of_ratio(trace_poly(ctx))] if ctx is f243
                      else [moved]))

    def serialized():
        return [[[w.serialize() for w in ws] for ws in set_equivalence_witnesses(S, Ts)]
                for S, Ts in cases]

    want = serialized()
    assert [list(map(len, lists)) for lists in want] == [[10, 10, 0], [10]]
    monkeypatch.setattr("qlinset.moebius._ROW_BITS", 1)
    assert _pairs_per_block(f243, 121) == _pairs_per_block(f1024, 341) == 1
    assert serialized() == want


def test_dense_stabilizer_scan_keeps_one_block_of_matches():
    # x^q at F_128, whose L is all of F^*: its keys carry little, so the 7
    # blocks of star keys (one per automorphism) meet 1.6 million key
    # matches; the scan holds one block of them at a time (a scan that held
    # them all at once peaked at 231 MB)
    ctx = build_field(2, 1, 7)
    S = ims.image_of_ratio(monomial(ctx, 1))
    tracemalloc.start()
    try:
        [found] = set_equivalence_witnesses(S, [S])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 2 * 127 * 7
    assert peak < 100 * 2**20, peak


@pytest.mark.parametrize("row_bits", [None, 1], ids=["default", "one-pair"])
def test_one_target_search_stops_after_the_first_automorphism_with_a_hit(
        f243, row_bits, monkeypatch):
    # star keys come e by e and hits rank by (e, i1, i2, i3), so the
    # lex-least witness is known once the first automorphism with a hit is
    # scanned; a pair that is not equivalent scans all five.  The set of x^q
    # has 242 witnesses under each automorphism, and with one pair per
    # block they come from many blocks.
    if row_bits:
        monkeypatch.setattr("qlinset.moebius._ROW_BITS", row_bits)
    r = random.Random(61)
    S = ims.image_of_ratio(rand_strict(f243, r))
    xq = ims.image_of_ratio(monomial(f243, 1))
    moved = {}
    for sigma, A in ((0, S), (2, S), (1, xq)):
        while sigma not in moved:
            T = moebius_image(A, rand_phi(f243, r, sigma=sigma))
            if T is not None:
                moved[sigma] = T
    L = new_example_set(f243)
    mu_set = ims.image_of_ratio(family_g(f243, 1, mus_with_nontrivial_norm(f243)[0]))
    seen = []

    def spy(*args):
        for e, u, blocks in _star_keys(*args):
            seen.append(e)
            yield e, u, blocks

    monkeypatch.setattr("qlinset.moebius._star_keys", spy)
    for (A, B), stop in [((S, moved[0]), 0), ((S, moved[2]), 2), ((xq, moved[1]), 0),
                         ((L, mu_set), 4)]:
        seen.clear()
        got = find_set_equivalence(A, B)
        assert seen == list(range(stop + 1))
        want = set_equivalence_witnesses(A, [B])[0][:1]
        assert [w.serialize() for w in want] == ([got.serialize()] if got else [])
        assert got is None or got.sigma_exp == stop


def test_one_match_per_check_changes_no_answer(f243, monkeypatch):
    # _BLOCK = 1: `_hits` takes each key match alone and `_carried` tests
    # one map per pass, so each target's hits come from many calls
    xq = ims.image_of_ratio(monomial(build_field(2, 1, 6), 1))
    S = new_example_set(f243)
    r = random.Random(62)
    moved = None
    while moved is None:
        moved = moebius_image(S, rand_phi(f243, r, sigma=1))
    mu_set = ims.image_of_ratio(family_g(f243, 1, mus_with_nontrivial_norm(f243)[0]))
    cases = [(xq, [xq]), (S, [S, moved, mu_set])]
    matches = []

    def spy(T, e, u, point, y, z):
        matches.append(point.size)
        return _hits(T, e, u, point, y, z)

    def serialized():
        return [[[w.serialize() for w in ws] for ws in set_equivalence_witnesses(S, Ts)]
                for S, Ts in cases]

    want = serialized()
    assert [list(map(len, lists)) for lists in want] == [[756], [10, 10, 0]]
    monkeypatch.setattr("qlinset.moebius._hits", spy)
    monkeypatch.setattr("qlinset.moebius._BLOCK", 1)
    assert serialized() == want
    assert set(matches) == {1}
