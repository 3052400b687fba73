"""Verification suites: each function drives one claim bundle end to end and
returns a JSON-friendly result dict with a top-level "passed" flag.

The suites are deterministic given their seed; wall-clock fields live under
"elapsed_s" keys and are the only run-to-run variation.
"""

from __future__ import annotations

import random
import time

import numpy as np

from . import criteria as cr
from . import imageset as ims
from . import linset as ls
from .errors import NotAdmissible, SingularMatrix
from .gf import FieldCtx, build_field
from .moebius import SemilinearMap, moebius_image, transform_poly
from .qpoly import QPoly, monomial, trace_poly


def _rand_poly(ctx: FieldCtx, rng: random.Random) -> QPoly:
    return QPoly(ctx, [rng.randrange(ctx.size) for _ in range(ctx.n)])


def _rand_strict_poly(ctx: FieldCtx, rng: random.Random) -> QPoly:
    while True:
        f = _rand_poly(ctx, rng)
        if f.is_strictly_linear():
            return f


def _rand_semilinear(ctx: FieldCtx, rng: random.Random, sigma: int | None = None) -> SemilinearMap:
    while True:
        try:
            return SemilinearMap(
                ctx,
                rng.randrange(ctx.size),
                rng.randrange(ctx.size),
                rng.randrange(ctx.size),
                rng.randrange(ctx.size),
                rng.randrange(ctx.m) if sigma is None else sigma,
            )
        except SingularMatrix:
            continue


# ----------------------------------------------------------------- suite 1

def _bounds_block(ctx: FieldCtx, rows: list[ims.SurveyRow]) -> dict:
    lo, hi = ims.direction_bounds(ctx)
    sizes = [r.size for r in rows]
    return {
        "field": ctx.spec_string,
        "checked": sum(r.count for r in rows),
        "window": [lo, hi],
        "observed": [min(sizes), max(sizes)],
        "ok": lo <= min(sizes) and max(sizes) <= hi,
    }


def suite_bounds(seed: int = 0, samples: int = 10_000) -> dict:
    """Size window q^(n-1)+1 <= |Im(f(x)/x)| <= (q^n-1)/(q-1) for strictly
    F_q-linear f, read off the size survey: exhaustive at (q,n)=(2,4), and
    over the strict tuples among `samples` seeded draws at (3,5)."""
    t0 = time.perf_counter()
    ctx = build_field(2, 1, 4)
    exhaustive = _bounds_block(ctx, ims.survey_image_sizes(ctx))
    ctx3 = build_field(3, 1, 5)
    sampled = _bounds_block(ctx3, ims.survey_image_sizes(ctx3, samples=samples, seed=seed))
    return {
        "passed": exhaustive["ok"] and sampled["ok"],
        "exhaustive": exhaustive,
        "sampled": sampled,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 2

def suite_survey_n4() -> dict:
    """Occurring image sizes over strictly F_2-linear f on F_{2^4} are exactly
    {q^3+1, q^3+q^2-q+1, q^3+q^2+1, q^3+q^2+q+1} = {9, 11, 13, 15}."""
    t0 = time.perf_counter()
    ctx = build_field(2, 1, 4)
    rows = ims.survey_image_sizes(ctx)
    q = ctx.q
    expected = sorted({q**3 + 1, q**3 + q**2 - q + 1, q**3 + q**2 + 1, q**3 + q**2 + q + 1})
    got = [r.size for r in rows]
    return {
        "passed": got == expected,
        "field": ctx.spec_string,
        "expected_sizes": expected,
        "rows": [
            {"size": r.size, "count": r.count,
             "representative": ",".join(ctx.fmt(c) for c in r.representative)}
            for r in rows
        ],
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 3

def suite_thm_n4(seed: int = 0, per_n: int = 20) -> dict:
    """Same-image classification is complete for n <= 4 at q = 2: every
    equal-image partner of a sampled strict f is a (possibly adjoint) scalar
    conjugate, and for n = 2 always a plain scalar conjugate."""
    if per_n < 1:
        raise ValueError(f"per_n = {per_n} is no positive sample count")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    per_field = []
    passed = True
    for n in (2, 3, 4):
        ctx = build_field(2, 1, n)
        outcomes = {"scalar_conjugate": 0, "adjoint_scalar_conjugate": 0, "inconsistent": 0}
        pairs = 0
        # classifying draws nothing, so drawing every f first keeps the order
        fs = [_rand_strict_poly(ctx, rng) for _ in range(per_n)]
        for f, partners in zip(fs, cr.exhaustive_same_images(fs)):
            for g in partners:
                outcomes[cr.classify_n_le_4(f, g).kind] += 1
                pairs += 1
        ok = outcomes["inconsistent"] == 0
        if n == 2:
            ok &= outcomes["adjoint_scalar_conjugate"] == 0
        passed &= ok
        per_field.append(
            {"field": ctx.spec_string, "sampled_f": per_n, "pairs": pairs,
             "outcomes": outcomes, "ok": ok}
        )
    return {
        "passed": passed,
        "per_field": per_field,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 4

def _expected_trace_partners(ctx: FieldCtx) -> set[QPoly]:
    tr = trace_poly(ctx)
    return {tr.scale_conjugate(lam) for lam in ctx.nonzero()}


def _expected_monomial_partners(ctx: FieldCtx) -> set[QPoly]:
    out = set()
    for s in range(1, ctx.n):
        for beta in ctx.nonzero():
            if ctx.norm_rel(beta, 1) == 1:
                out.add(monomial(ctx, s, beta))
    return out


def suite_thm_main_q2(
    seed: int = 0,
    masks: np.ndarray | None = None,
    return_pairs: bool = False,
) -> dict | tuple[dict, list]:
    """Same-image classification is complete for n = 5 at q = 2.

    Enumerates all 32^5 candidates against Tr, x^q and a random fully-dense
    strict polynomial; checks the two predicted partner sets exactly and
    classifies every pair with zero inconsistent outcomes.  Each query
    walks the scalar-orbit representatives with a_0 = 0.  `masks` is
    accepted and unused.
    """
    t0 = time.perf_counter()
    ctx = build_field(2, 1, 5)
    rng = random.Random(seed)

    while True:
        f_rand = _rand_strict_poly(ctx, rng)
        if 0 not in f_rand.coeffs[1:]:
            break

    cases = [
        ("trace", trace_poly(ctx), _expected_trace_partners(ctx)),
        ("monomial", monomial(ctx, 1), _expected_monomial_partners(ctx)),
        ("random_dense", f_rand, None),
    ]
    per_case = []
    harness_pairs = []
    passed = True
    for label, f, expected in cases:
        partners = cr.exhaustive_same_image(f)
        outcomes: dict[str, int] = {}
        for g in partners:
            out = cr.classify_n5(f, g)
            outcomes[out.kind] = outcomes.get(out.kind, 0) + 1
            harness_pairs.append((f, g))
        ok = outcomes.get("inconsistent", 0) == 0
        detail = {
            "case": label,
            "f": f.to_string(),
            "partners": len(partners),
            "outcomes": outcomes,
        }
        if expected is not None:
            detail["expected_partners"] = len(expected)
            ok &= set(partners) == expected
        detail["ok"] = ok
        passed &= ok
        per_case.append(detail)
    result = {
        "passed": passed,
        "field": ctx.spec_string,
        "tuples_enumerated": ctx.size**ctx.n,
        "per_case": per_case,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    if return_pairs:
        return result, harness_pairs
    return result


# ----------------------------------------------------------------- suite 5a

def suite_trace5(seed: int = 0, count: int = 100) -> dict:
    """Trace-equivalence round trip at q = 3: polynomials built by pushing
    Tr through random GL(2,q^5) elements satisfy the coefficient conditions
    and the explicit witness lands back on Im(Tr(x)/x)."""
    if count < 1:
        raise ValueError(f"count = {count} is no positive sample count")
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 5)
    rng = random.Random(seed)
    tr = trace_poly(ctx)
    tr_im = ims.image_of_ratio(tr)
    done = 0
    failures = []
    while done < count:
        psi = _rand_semilinear(ctx, rng, sigma=0)
        try:
            f = transform_poly(tr, psi)
        except NotAdmissible:
            continue
        done += 1
        w = cr.trace5_test(f)
        if w is None:
            failures.append({"f": f.to_string(), "reason": "conditions not satisfied"})
            continue
        back = transform_poly(f, w.phi)
        mu = ctx.pow_int(w.lam, ctx.q**4)
        if back != tr.scale_conjugate(mu) or ims.image_of_ratio(back) != tr_im:
            failures.append({"f": f.to_string(), "reason": "witness reconstruction"})
    return {
        "passed": not failures,
        "field": ctx.spec_string,
        "round_trips": done,
        "failures": failures,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 5b

def suite_pseudoalg(seed: int = 0, count: int = 100) -> dict:
    """Polynomials meeting the trace ratio conditions but failing the norm
    equality route to Im(x^{q-1}) through the explicit condition-1 matrix."""
    if count < 1:
        raise ValueError(f"count = {count} is no positive sample count")
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 5)
    rng = random.Random(seed)
    q = ctx.q
    target = monomial(ctx, 1)
    target_im = ims.image_of_ratio(target)
    done = 0
    failures = []
    while done < count:
        a1 = rng.randrange(1, ctx.size)
        a2 = rng.randrange(1, ctx.size)
        al2 = ctx.div(a2, a1)
        if ctx.norm_rel(al2, 1) == 1:
            continue  # that would satisfy the trace norm condition
        a0 = rng.randrange(ctx.size)
        a3 = ctx.mul(a1, ctx.pow_int(al2, 1 + q))
        a4 = ctx.mul(a1, ctx.pow_int(al2, 1 + q + q**2))
        f = QPoly(ctx, [a0, a1, a2, a3, a4])
        done += 1
        res = cr.pseudoalg_test(f)
        if res.kind != "cond1":
            failures.append({"f": f.to_string(), "reason": f"kind={res.kind}"})
            continue
        moved = transform_poly(f, res.phi)
        if moved != target or ims.image_of_ratio(moved) != target_im:
            failures.append({"f": f.to_string(), "reason": "witness reconstruction"})
    return {
        "passed": not failures,
        "field": ctx.spec_string,
        "routed": done,
        "failures": failures,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 6

def suite_erelations(seed: int = 0, pairs: int = 1000) -> dict:
    """Equal-image pairs satisfy all power-sum identities and e0..e6.

    Constructs scalar-conjugate and adjoint-scalar-conjugate pairs at q = 3
    and checks every d in [1, q^5 - 1]; additionally re-checks e0..e6 across
    every equal-image pair of the exhaustive q = 2 harness,
    `suite_thm_main_q2(seed=seed, return_pairs=True)`.
    """
    if pairs < 1:
        raise ValueError(f"pairs = {pairs} is no positive sample count")
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 5)
    rng = random.Random(seed)
    failures = []
    _, harness = suite_thm_main_q2(seed=seed, return_pairs=True)
    for k in range(pairs):
        f = _rand_poly(ctx, rng)
        lam = rng.randrange(1, ctx.size)
        g = f.scale_conjugate(lam) if k % 2 == 0 else f.adjoint().scale_conjugate(lam)
        if not cr.power_sums_all_equal(f, g):
            failures.append({"pair": (f.to_string(), g.to_string()), "reason": "power sums"})
        rep = cr.check_e_relations(f, g)
        if not rep.all_hold:
            failures.append(
                {"pair": (f.to_string(), g.to_string()), "reason": f"relations {rep.failing()}"}
            )
    for f, g in harness:
        rep = cr.check_e_relations(f, g)
        if not rep.all_hold:
            failures.append(
                {"pair": (f.to_string(), g.to_string()),
                 "reason": f"q=2 harness relations {rep.failing()}"}
            )
    return {
        "passed": not failures,
        "field": ctx.spec_string,
        "constructed_pairs": pairs,
        "q2_harness_pairs": len(harness),
        "failures": failures[:20],
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# ----------------------------------------------------------------- suite 7

def suite_new_linset(
    ctx: FieldCtx | None = None,
    delta: int | None = None,
    all_mu: bool = False,
    samples: int = 8,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """The two-coefficient example delta x^{q^2} + x^{q^3} with N(delta)^5 != 1
    is maximum scattered and inequivalent to every mu x^q + x^{q^4}: the
    report of `linset.verify_new_example` on `ctx`, F_{3^5} by default.

    `threads` is accepted and ignored: every mu set is checked in one process,
    by one `set_equivalence_witnesses` scan."""
    return ls.verify_new_example(
        build_field(3, 1, 5) if ctx is None else ctx,
        delta, all_mu=all_mu, samples=samples, seed=seed,
    )


# ----------------------------------------------------------------- suite 8

def suite_properties(seed: int = 0, count: int = 1000) -> dict:
    """Randomized identity bundle at q in {2, 3, 4} (n = 5): adjoint
    involution, the trace bilinear identity, image invariance under adjoint
    and scaling, slope/transport consistency, the group-action law, and
    agreement of the maximum field of linearity on same-image pairs."""
    if count < 1:
        raise ValueError(f"count = {count} is no positive sample count")
    t0 = time.perf_counter()
    fields = [(2, 1, 5), (3, 1, 5), (2, 2, 5)]
    per_field = []
    passed = True
    for p, h, n in fields:
        ctx = build_field(p, h, n)
        rng = random.Random((seed << 8) ^ (p * 1009 + h * 31 + n))
        fails: dict[str, int] = {}

        def miss(name):
            fails[name] = fails.get(name, 0) + 1

        for _ in range(count):
            f = _rand_poly(ctx, rng)
            if f.adjoint().adjoint() != f:
                miss("adjoint_involution")
            x = rng.randrange(ctx.size)
            y = rng.randrange(ctx.size)
            if ctx.trace_rel(ctx.mul(x, f.eval(y)), 1) != ctx.trace_rel(
                ctx.mul(y, f.adjoint().eval(x)), 1
            ):
                miss("bilinear_identity")

        for _ in range(count):
            f = _rand_poly(ctx, rng)
            lam = rng.randrange(1, ctx.size)
            im = ims.image_of_ratio(f)
            if im != ims.image_of_ratio(f.adjoint()) or im != ims.image_of_ratio(
                f.scale_conjugate(lam)
            ):
                miss("image_invariance")
            if not f.is_zero():
                mf = f.max_field_of_linearity()
                if (
                    mf != f.scale_conjugate(lam).max_field_of_linearity()
                    or mf != f.adjoint().scale_conjugate(lam).max_field_of_linearity()
                ):
                    miss("field_of_linearity")

        done = 0
        while done < count:
            f = _rand_poly(ctx, rng)
            phi = _rand_semilinear(ctx, rng)
            try:
                g = transform_poly(f, phi)
            except NotAdmissible:
                continue
            done += 1
            if moebius_image(ims.image_of_ratio(f), phi) != ims.image_of_ratio(g):
                miss("transport_consistency")

        done = 0
        while done < count:
            f = _rand_poly(ctx, rng)
            p1 = _rand_semilinear(ctx, rng)
            p2 = _rand_semilinear(ctx, rng)
            try:
                moved = transform_poly(transform_poly(f, p1), p2)
                direct = transform_poly(f, p2.compose(p1))
            except NotAdmissible:
                continue
            done += 1
            if moved != direct:
                miss("group_action")

        ok = not fails
        passed &= ok
        per_field.append(
            {"field": ctx.spec_string, "instances": count, "failures": fails, "ok": ok}
        )
    return {
        "passed": passed,
        "per_field": per_field,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


SUITES = {
    "bounds": suite_bounds,
    "survey-n4": suite_survey_n4,
    "thm-n4": suite_thm_n4,
    "thm-main-q2": suite_thm_main_q2,
    "trace5": suite_trace5,
    "pseudoalg": suite_pseudoalg,
    "erelations": suite_erelations,
    "new-linset": suite_new_linset,
    "adjoint": suite_properties,
}
