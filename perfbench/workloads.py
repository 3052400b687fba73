"""The four workloads: seeded inputs, the verdicts they ask of qlinset, and
the checks that confirm those verdicts.

`make_inputs` runs in the parent process (run.py) and never imports
qlinset: inputs come from the seed and, where a workload needs field
arithmetic to choose them, from the reference field in `oracle`.  The
verdict and check functions run in a fresh worker process per round; only
the verdict functions are timed.  Checks compare every verdict with the
reference arithmetic or with a property the mathematics forces, never with
a stored copy of earlier output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from oracle import RefField, lex_least_primitive_modulus


@dataclass
class Tally:
    """Operations checked in one round, and the ones whose check failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, total: int, bad: int, what: str) -> None:
        """`total` operations of one kind, `bad` of them failed."""
        self.attempted += total
        if bad:
            self.failed += min(bad, total)
            self.notes.append(f"{what}: {bad} of {total} failed")


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _check_modulus(tally: Tally, ctx, lex_least: bool) -> RefField:
    """The reference field for `ctx`, after checking its modulus is primitive
    (and, for small fields, the lex-least primitive one)."""
    ref = RefField(ctx.p, ctx.h, ctx.n, ctx.modulus)
    ok = ref.is_primitive_modulus()
    if lex_least:
        ok = ok and tuple(ctx.modulus) == lex_least_primitive_modulus(ctx.p, ctx.m)
    tally.check(ok, f"modulus {ctx.modulus} of {ctx.p}^{ctx.m}")
    return ref


def _scale_conjugate(ref: RefField, coeffs, lam):
    """Coefficients of f(lam x)/lam: a_i lam^(q^i - 1), all as elements."""
    return [ref.mul(a, ref.pow(lam, ref.q**i - 1)) for i, a in enumerate(coeffs)]


_WITNESS = re.compile(r"\[\[(.+?),(.+?)\],\[(.+?),(.+?)\]\];sigma=\d+\^(\d+)")


def _witness_from_string(ctx, ref: RefField, text: str):
    a, b, c, d, e = _WITNESS.fullmatch(text).groups()
    return tuple(ref.element(ctx.parse(v)) for v in (a, b, c, d)) + (int(e),)


def _witness_from_map(ref: RefField, phi):
    return tuple(ref.element(v) for v in (phi.a, phi.b, phi.c, phi.d)) + (phi.sigma_exp,)


def _carries(ref: RefField, phi, S, T) -> bool:
    """The semilinear map phi sends the index set S onto the index set T."""
    image = set()
    for z in S:
        w = ref.moebius(phi, ref.element(z))
        if w is None:
            return False
        image.add(ref.index_of(w))
    return image == set(T)


# ===================================================================== q2-enum
#
# The criterion-4 path at F_32: every one of the 32^5 coefficient tuples
# gets its image bitmask, then the equal-image partners of Tr, x^q and a
# seeded dense strict f are classified.  The n <= 4 suites ride along.

Q2_SAMPLES = 32


def q2_inputs(seed: int) -> dict:
    rng = _rng("q2-enum", seed, "samples")
    total = 32**5
    return {
        "seed": seed,
        "oracle_tuples": [rng.randrange(total) for _ in range(Q2_SAMPLES)],
        "rotations": [[rng.randrange(total), rng.randrange(1, 31)] for _ in range(Q2_SAMPLES)],
    }


def q2_verdicts(ql, ctxs, inputs) -> dict:
    (ctx,) = ctxs
    masks = ql.imageset.all_ratio_masks(ctx)
    main, pairs = ql.suites.suite_thm_main_q2(
        seed=inputs["seed"], masks=masks, return_pairs=True
    )
    n4 = ql.suites.suite_thm_n4(seed=inputs["seed"], per_n=20)
    survey = ql.suites.suite_survey_n4()
    return {"masks": masks, "main": main, "pairs": pairs, "n4": n4, "survey": survey}


def _tuple_coeffs(t: int, N: int = 32, n: int = 5) -> list[int]:
    return [(t // N ** (n - 1 - i)) % N for i in range(n)]


def _mask_indices(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def q2_checks(ql, ctxs, inputs, out) -> Tally:
    import numpy as np

    (ctx,) = ctxs
    tally = Tally()
    ref = _check_modulus(tally, ctx, lex_least=True)
    order, q, n = ctx.order, ctx.q, ctx.n
    masks, main, pairs = out["masks"], out["main"], out["pairs"]

    # Partner sets the theory predicts: Tr(lam x)/lam for every lam (31),
    # and beta x^(q^s) for s = 1..4 with N(beta) = 1, which at q = 2 is
    # every nonzero beta (124).  In index encoding g^k * g^j = g^(k+j).
    trace_set = {
        tuple((k * (q**i - 1)) % order + 1 for i in range(n)) for k in range(order)
    }
    mono_set = {
        tuple(k + 1 if i == s else 0 for i in range(n))
        for s in range(1, n) for k in range(order)
    }
    start = 0
    by_case = {}
    for c in main["per_case"]:
        by_case[c["case"]] = pairs[start:start + c["partners"]]
        start += c["partners"]
    tally.check(start == len(pairs), "pairs list matches per-case partner counts")
    got_trace = {g.coeffs for _, g in by_case["trace"]}
    got_mono = {g.coeffs for _, g in by_case["monomial"]}
    tally.check(got_trace == trace_set and len(got_trace) == 31, "Tr partner set")
    tally.check(got_mono == mono_set and len(got_mono) == 124, "x^q partner set")

    # every classified pair resolved, none inconsistent
    for c in main["per_case"]:
        unresolved = c["partners"] - sum(c["outcomes"].values())
        bad = c["outcomes"].get("inconsistent", 0) + abs(unresolved)
        tally.count(c["partners"], bad, f"classify_n5 on {c['case']} pairs")

    # the dense strict f: the reference field confirms each partner's image
    dense = by_case["random_dense"]
    f_img = ref.image(dense[0][0].coeffs) if dense else None
    tally.check(bool(dense) and any(g == f for f, g in dense), "dense f is its own partner")
    for f, g in dense:
        tally.check(ref.image(g.coeffs) == f_img, f"dense partner {g.coeffs}")

    for fld in out["n4"]["per_field"]:
        tally.count(fld["pairs"], fld["outcomes"]["inconsistent"],
                    f"classify_n_le_4 at {fld['field']}")
    tally.check(out["n4"]["per_field"][0]["outcomes"]["adjoint_scalar_conjugate"] == 0,
                "n = 2 partners are plain scalar conjugates")
    tally.check([r["size"] for r in out["survey"]["rows"]] == [9, 11, 13, 15],
                "n = 4 size spectrum")

    # every strictly F_2-linear tuple (n = 5 is prime: some a_i != 0, i >= 1)
    # has an image size in [q^(n-1) + 1, (q^n - 1)/(q - 1)] = [17, 31]
    lo, hi, ok = q ** (n - 1) + 1, (ctx.size - 1) // (q - 1), True
    low_digits = ctx.size ** (n - 1)
    chunk = 1 << 20
    for start in range(0, masks.size, chunk):
        sizes = np.bitwise_count(masks[start:start + chunk])
        strict = np.arange(start, start + sizes.size, dtype=np.int64) % low_digits != 0
        s = sizes[strict]
        ok &= bool(s.size == 0 or (s.min() >= lo and s.max() <= hi))
    tally.check(ok and masks.size == ctx.size**n, "strict image sizes within [17, 31]")

    # Im(c f) = c Im(f): scaling every coefficient by c = g^k rotates the
    # nonzero part of the bitmask by k and keeps the zero bit
    for t, k in inputs["rotations"]:
        a = _tuple_coeffs(t)
        ct = sum(((x - 1 + k) % order + 1 if x else 0) * 32 ** (n - 1 - i)
                 for i, x in enumerate(a))
        want = {0 if e == 0 else (e - 1 + k) % order + 1
                for e in _mask_indices(int(masks[t]))}
        tally.check(_mask_indices(int(masks[ct])) == want, f"rotation of tuple {t} by g^{k}")

    for t in inputs["oracle_tuples"]:
        tally.check(_mask_indices(int(masks[t])) == ref.image(_tuple_coeffs(t)),
                    f"bitmask of tuple {t}")
    return tally


# ================================================================ q3-nonequiv
#
# The criterion-7 path at F_243: one fixed maximum scattered linear set,
# searched exhaustively against two sampled mu x^q + x^(q^4) sets, then
# a positive control.

Q3_MUS = 2


def q3n_inputs(seed: int) -> dict:
    return {"seed": seed, "samples": Q3_MUS}


def q3n_verdicts(ql, ctxs, inputs) -> dict:
    return ql.suites.suite_new_linset(
        samples=inputs["samples"], seed=inputs["seed"], threads=1
    )


def q3n_checks(ql, ctxs, inputs, out) -> Tally:
    (ctx,) = ctxs
    tally = Tally()
    ref = _check_modulus(tally, ctx, lex_least=True)
    one = ref.one
    delta = ref.element(ctx.parse(out["delta"]))
    nd = ref.norm(delta)
    tally.check(nd not in (ref.zero, one) and ref.pow(nd, 5) != one,
                "N(delta) avoids {0, 1} and N(delta)^5 != 1")
    size = len(ref.image([0, 0, ctx.parse(out["delta"]), 1, 0]))
    tally.check(size == 121 and out["points"] == 121 and out["max_scattered"],
                "delta x^(q^2) + x^(q^3) has 121 points")
    tally.check(out["mu_count"] == inputs["samples"], "sampled mu count")
    for v in out["verdicts"]:
        mu = ref.element(ctx.parse(v["mu"]))
        tally.check(not v["equivalent"] and v["witness"] is None
                    and ref.norm(mu) not in (ref.zero, one),
                    f"mu = {v['mu']} is not equivalent")

    pc = out["positive_control"]
    mu, lam = ctx.parse(pc["mu"]), ctx.parse(pc["lambda"])
    base = [0, mu, 0, 0, 1]
    moved = _scale_conjugate(ref, [ref.element(c) for c in base], ref.element(lam))
    S = ref.image(base)
    T = ref.image([ref.index_of(c) for c in moved])
    ok = pc["witness"] is not None and _carries(
        ref, _witness_from_string(ctx, ref, pc["witness"]), S, T
    )
    tally.check(ok, "positive-control witness")
    return tally


# ================================================================= q3-algebra
#
# Positive group searches on fresh pairs (f, f_phi), then criteria 5, 6 and
# 8 at a smaller share: power sums and e0..e6 on constructed equal-image
# pairs at F_243, the trace5 and pseudoalg round trips, and the property
# bundle at F_32, F_243 and F_1024.  The scalar paths are interpreter-bound,
# and on a shared host their speed drifts by 15% or more over minutes, which
# no affordable run length averages out; the vector-bound searches hold
# steady.  So the searches carry most of the round.

ALG_PAIRS = 4
ALG_ROUND_TRIPS = 20
ALG_PROPERTIES = 10
# The search walks ordered triples of T in blocks of 2^18 and stops in the
# first block holding a witness.  A pair whose phi anchors in a later block
# can still stop early, at another witness phi.psi with psi in the stabilizer
# of S, so only block 0 fixes the work: every pair here anchors there, and
# each search sweeps exactly one whole block, whatever the seed.
SEARCH_BLOCK = 1 << 18
ALG_SEARCHES = 16


def _search_pair(ref: RefField, rng: random.Random) -> dict:
    """A strict f and a PGL map phi (sigma = 0) admissible for f whose
    witness anchor triple lies in search block 0."""
    size = ref.size
    while True:
        f = [rng.randrange(size) for _ in range(ref.n)]
        if not any(f[1:]):
            continue
        S = sorted(ref.image(f))
        m = len(S)
        for _ in range(64):
            a, b, c, d = (rng.randrange(size) for _ in range(4))
            ea, eb, ec, ed = (ref.element(v) for v in (a, b, c, d))
            if ref.sub(ref.mul(ea, ed), ref.mul(eb, ec)) == ref.zero:
                continue
            phi = (ea, eb, ec, ed, 0)
            T, below = [], 0
            for z in S:
                t = ref.moebius(phi, ref.element(z))
                if t is None:
                    break  # phi is not admissible for f
                T.append(ref.index_of(t))
                below += T[-1] < T[0]
                if below * m * m >= SEARCH_BLOCK:
                    break  # the anchor triple cannot lie in block 0
            if len(T) < m:
                continue
            rank = {t: i for i, t in enumerate(sorted(T))}
            # anchors are the three smallest points of S; T lists their images first
            g = (rank[T[0]] * m + rank[T[1]]) * m + rank[T[2]]
            if g < SEARCH_BLOCK:
                return {"f": f, "phi": [a, b, c, d, 0], "S": S, "T": sorted(T)}


def q3a_inputs(seed: int) -> dict:
    rng = _rng("q3-algebra", seed, "pairs")
    pairs = [
        {"f": [rng.randrange(243) for _ in range(5)],
         "lam": rng.randrange(1, 243),
         "adjoint": k % 2 == 1}
        for k in range(ALG_PAIRS)
    ]
    ref = RefField(3, 1, 5, lex_least_primitive_modulus(3, 5))
    srng = _rng("q3-algebra", seed, "searches")
    searches = [_search_pair(ref, srng) for _ in range(ALG_SEARCHES)]
    return {"seed": seed, "pairs": pairs, "searches": searches}


def q3a_verdicts(ql, ctxs, inputs) -> dict:
    ctx = ctxs[0]
    QPoly, cr = ql.qpoly.QPoly, ql.criteria
    pairs = []
    for p in inputs["pairs"]:
        f = QPoly(ctx, p["f"])
        g = (f.adjoint() if p["adjoint"] else f).scale_conjugate(p["lam"])
        pairs.append((g, cr.power_sums_all_equal(f, g), cr.check_e_relations(f, g)))
    seed = inputs["seed"]
    trace5 = ql.suites.suite_trace5(seed=seed, count=ALG_ROUND_TRIPS)
    pseudo = ql.suites.suite_pseudoalg(seed=seed, count=ALG_ROUND_TRIPS)
    props = ql.suites.suite_properties(seed=seed, count=ALG_PROPERTIES)
    searches = []
    for s in inputs["searches"]:
        f = QPoly(ctx, s["f"])
        g = ql.moebius.transform_poly(f, ql.moebius.SemilinearMap(ctx, *s["phi"]))
        searches.append((g, ql.linset.pgammal_equivalent(f, g)))
    return {"pairs": pairs, "trace5": trace5, "pseudo": pseudo, "props": props,
            "searches": searches}


def q3a_checks(ql, ctxs, inputs, out) -> Tally:
    tally = Tally()
    refs = [_check_modulus(tally, ctx, lex_least=True) for ctx in ctxs]
    ref = refs[0]
    for p, (g, sums_equal, erel) in zip(inputs["pairs"], out["pairs"]):
        a = [ref.element(c) for c in p["f"]]
        if p["adjoint"]:
            n = ref.n
            a = [ref.pow(a[(n - j) % n], ref.q**j) for j in range(n)]
        want = _scale_conjugate(ref, a, ref.element(p["lam"]))
        tally.check([ref.element(c) for c in g.coeffs] == want,
                    f"conjugate of {p['f']}")
        tally.check(sums_equal, f"power sums of {p['f']}")
        tally.check(erel.all_hold, f"e-relations of {p['f']}: {erel.failing()}")

    for key, done in (("trace5", "round_trips"), ("pseudo", "routed")):
        r = out[key]
        bad = len(r["failures"]) + abs(r[done] - ALG_ROUND_TRIPS)
        tally.count(ALG_ROUND_TRIPS, bad, f"{key} round trips")

    for fld in out["props"]["per_field"]:
        bad = sum(fld["failures"].values()) + abs(fld["instances"] - ALG_PROPERTIES)
        # four property families, ALG_PROPERTIES instances each
        tally.count(4 * ALG_PROPERTIES, bad, f"property bundle at {fld['field']}")

    for s, (g, phi) in zip(inputs["searches"], out["searches"]):
        img = ql.imageset.image_of_ratio(g).indices().tolist()
        ok = img == s["T"] and phi is not None and _carries(
            ref, _witness_from_map(ref, phi), s["S"], s["T"]
        )
        tally.check(ok, f"search witness for {s['f']}")
    return tally


# ================================================================= wide-field
#
# Field construction at 3^10 and 4^10 (2^20), then image sets of seeded
# dense strict f over arrays of 10^5-10^6 elements.

WIDE_POLYS = 4
WIDE_SPOTS = 16
WIDE_FIELDS = ((3, 1, 10), (2, 2, 10))


def wide_inputs(seed: int) -> dict:
    polys = []
    for p, h, n in WIDE_FIELDS:
        rng = _rng("wide-field", seed, f"{p}^{h * n}")
        size = p ** (h * n)
        polys.append([
            {"f": [rng.randrange(1, size) for _ in range(n)],
             "spots": [rng.randrange(size - 1) for _ in range(WIDE_SPOTS)]}
            for _ in range(WIDE_POLYS)
        ])
    return {"polys": polys}


def wide_verdicts(ql, ctxs, inputs) -> dict:
    images = []
    for ctx, polys in zip(ctxs, inputs["polys"]):
        images.append([
            ql.imageset.image_of_ratio(ql.qpoly.QPoly(ctx, p["f"])) for p in polys
        ])
    return {"images": images}


def wide_checks(ql, ctxs, inputs, out) -> Tally:
    tally = Tally()
    for ctx, polys, images in zip(ctxs, inputs["polys"], out["images"]):
        ref = _check_modulus(tally, ctx, lex_least=False)
        lo, hi = ctx.q ** (ctx.n - 1) + 1, (ctx.size - 1) // (ctx.q - 1)
        for p, im in zip(polys, images):
            tally.check(lo <= len(im) <= hi, f"|Im| = {len(im)} in [{lo}, {hi}]")
            coeffs = [ref.element(c) for c in p["f"]]
            for k in p["spots"]:
                v = ref.ratio(coeffs, ref.element(k + 1))
                idx = int(ctx.unpacked(ref.packed(v)))
                tally.check(ref.element(idx) == v and idx in im,
                            f"f(x)/x at x = g^{k} lies in the image")
    return tally


@dataclass(frozen=True)
class Workload:
    fields: tuple
    make_inputs: object
    verdicts: object
    checks: object
    # span keys that must record calls in a traced round
    expected: tuple
    # a run has at least this many rounds, whatever its length
    min_rounds: int = 1


WORKLOADS = {
    "q2-enum": Workload(
        ((2, 1, 5),), q2_inputs, q2_verdicts, q2_checks,
        ("gf.build_field", "imageset.all_ratio_masks", "imageset.image_of_ratio",
         "criteria.exhaustive_same_image", "criteria.classify_n5",
         "suites.suite_thm_main_q2", "suites.suite_thm_n4", "suites.suite_survey_n4"),
    ),
    "q3-nonequiv": Workload(
        ((3, 1, 5),), q3n_inputs, q3n_verdicts, q3n_checks,
        ("gf.build_field", "gf.vector", "moebius.search", "linset.pgammal_equivalent",
         "linset.verify_new_example", "suites.suite_new_linset"),
    ),
    "q3-algebra": Workload(
        ((3, 1, 5), (2, 1, 5), (2, 2, 5)), q3a_inputs, q3a_verdicts, q3a_checks,
        ("gf.build_field", "qpoly.ratio_values", "qpoly.moore_interpolate",
         "criteria.power_sums_all_equal", "criteria.check_e_relations",
         "moebius.search", "moebius.transform_poly", "moebius.moebius_image",
         "linset.pgammal_equivalent", "suites.suite_trace5",
         "suites.suite_pseudoalg", "suites.suite_properties"),
        min_rounds=3,
    ),
    "wide-field": Workload(
        WIDE_FIELDS, wide_inputs, wide_verdicts, wide_checks,
        ("gf.build_field", "gf.vector", "qpoly.ratio_values", "imageset.image_of_ratio"),
        min_rounds=3,
    ),
}
