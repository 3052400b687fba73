"""Semilinear maps: group laws, admissibility, transport, the slope action,
and the three-point set-equivalence search."""

import random
from collections import Counter

import pytest

from qlinset import imageset as ims
from qlinset.errors import DegenerateSet, NotAdmissible, SingularMatrix
from qlinset.moebius import (
    INF,
    SemilinearMap,
    find_set_equivalence,
    is_admissible,
    moebius_image,
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
            if not is_admissible(f, phi, im):
                continue
            done += 1
            g = transform_poly(f, phi, verify=True)
            assert ims.image_of_ratio(g).as_frozenset() == moebius_image(im, phi)


def test_transform_raises_exactly_when_inadmissible(f32, f243, f1024):
    # transform_poly decides admissibility by its own F_p solve
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
            im_f = ims.image_of_ratio(f)
            if not is_admissible(f, phi, im_f):
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
        assert moebius_image(S, ident) == S.as_frozenset()
        phi = rand_phi(f32, r)
        assert len(moebius_image(S, phi)) == len(S)


def test_scalar_matrices_fix_every_set(f243):
    r = random.Random(47)
    for _ in range(50):
        f = rand_poly(f243, r)
        S = ims.image_of_ratio(f)
        lam = r.randrange(1, f243.size)
        phi = SemilinearMap(f243, lam, 0, 0, lam, 0)
        assert moebius_image(S, phi) == S.as_frozenset()


def test_transform_image_consistency(f32, f243):
    r = random.Random(48)
    for ctx in (f32, f243):
        done = 0
        while done < 200:
            f = rand_poly(ctx, r)
            phi = rand_phi(ctx, r)
            S = ims.image_of_ratio(f)
            if not is_admissible(f, phi, S):
                continue
            done += 1
            g = transform_poly(f, phi, verify=True)
            slopes = moebius_image(S, phi)
            assert INF not in slopes
            assert slopes == ims.image_of_ratio(g).as_frozenset()


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
        moved = moebius_image(S, phi0)
        if INF in moved:
            continue
        T = ims.ImageSet.from_indices(f243, moved)
        w = find_set_equivalence(S, T)
        assert w is not None
        assert moebius_image(S, w) == T.as_frozenset()


def test_find_set_equivalence_identity_case(f32):
    S = ims.image_of_ratio(trace_poly(f32))
    w = find_set_equivalence(S, S)
    assert w is not None
    assert moebius_image(S, w) == S.as_frozenset()


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


def test_witness_is_canonical_scaled(f32):
    S = ims.image_of_ratio(trace_poly(f32))
    w = find_set_equivalence(S, S)
    lead = next(v for v in (w.a, w.b, w.c, w.d) if v)
    assert lead == 1


def test_serialization(f32):
    phi = SemilinearMap(f32, 1, 0, 4, 8, 3)
    assert phi.serialize() == "[[g^0,0],[g^3,g^7]];sigma=2^3"
