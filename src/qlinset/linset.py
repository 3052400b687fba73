"""Rank-n linear sets of PG(1,q^n) built from q-polynomials.

A point of PG(1,q^n) is stored as a slope: the element m for (1 : m), or
the INF marker for (0 : 1).  The set L_f = {<(x, f(x))> : x != 0} consists
of the slopes f(x)/x, so it never contains INF and is the ratio image set
`image_of_ratio(f)`.  Includes the four known maximum-scattered families, the
pseudoregulus test, PGammaL-equivalence of linear sets, and the
non-equivalence verification for the two-coefficient family delta x^{q^2} +
x^{q^3} against delta' x^q + x^{q^4}.
"""

from __future__ import annotations

import math
import random
import time

from .errors import (
    InvalidParameters,
    NotStrictlyLinear,
    PreconditionViolated,
)
from .gf import FieldCtx
from .imageset import direction_bounds, image_of_ratio
from .moebius import SemilinearMap, find_set_equivalence, set_equivalence_witnesses
from .qpoly import QPoly, monomial


def max_scattered_size(ctx: FieldCtx) -> int:
    return direction_bounds(ctx)[1]


def is_max_scattered(f: QPoly) -> bool:
    """True iff L_f = Im(f(x)/x) attains the rank-n bound (q^n - 1)/(q - 1)."""
    return len(image_of_ratio(f)) == max_scattered_size(f.ctx)


# ------------------------------------------------------------- the families

def family_f(ctx: FieldCtx, s: int) -> QPoly:
    """x^{q^s} with gcd(s, n) = 1."""
    if not 1 <= s <= ctx.n - 1 or math.gcd(s, ctx.n) != 1:
        raise InvalidParameters(f"need 1 <= s <= n-1 with gcd(s, n) = 1; got s = {s}")
    return monomial(ctx, s)


def family_g(ctx: FieldCtx, s: int, delta: int) -> QPoly:
    """delta x^{q^s} + x^{q^{n-s}} with n >= 4, gcd(s, n) = 1, N(delta) not in {0, 1}."""
    if ctx.n < 4:
        raise InvalidParameters(f"family needs n >= 4; got n = {ctx.n}")
    if not 1 <= s <= ctx.n - 1 or math.gcd(s, ctx.n) != 1:
        raise InvalidParameters(f"need gcd(s, n) = 1; got s = {s}")
    nd = ctx.norm_rel(delta, 1)
    if nd in (0, 1):
        raise InvalidParameters(
            f"N(delta) = {ctx.fmt(nd)} must avoid {{0, 1}} (impossible at q = 2)"
        )
    coeffs = [0] * ctx.n
    coeffs[s] = delta
    coeffs[ctx.n - s] = 1
    return QPoly(ctx, coeffs)


def family_h(ctx: FieldCtx, s: int, delta: int) -> QPoly:
    """delta x^{q^s} + x^{q^{s + n/2}} with n in {6, 8}, gcd(s, n/2) = 1,
    N_{q^n/q^{n/2}}(delta) not in {0, 1}."""
    if ctx.n not in (6, 8):
        raise InvalidParameters(f"family needs n in {{6, 8}}; got n = {ctx.n}")
    half = ctx.n // 2
    if not 1 <= s < half or math.gcd(s, half) != 1:
        raise InvalidParameters(f"need 1 <= s < n/2 with gcd(s, n/2) = 1; got s = {s}")
    nd = ctx.norm_rel(delta, half)
    if nd in (0, 1):
        raise InvalidParameters("relative norm of delta must avoid {0, 1}")
    coeffs = [0] * ctx.n
    coeffs[s] = delta
    coeffs[s + half] = 1
    return QPoly(ctx, coeffs)


def family_k(ctx: FieldCtx, b: int) -> QPoly:
    """x^q + x^{q^3} + b x^{q^5} with n = 6, b^2 + b = 1, q = 0, +-1 mod 5."""
    if ctx.n != 6:
        raise InvalidParameters(f"family needs n = 6; got n = {ctx.n}")
    if ctx.q % 5 not in (0, 1, 4):
        raise InvalidParameters(f"need q = 0, +-1 (mod 5); got q = {ctx.q}")
    if ctx.add(ctx.mul(b, b), b) != 1:
        raise InvalidParameters("b must satisfy b^2 + b = 1")
    coeffs = [0] * 6
    coeffs[1] = 1
    coeffs[3] = 1
    coeffs[5] = b
    return QPoly(ctx, coeffs)


_FAMILY_BUILDERS = {
    "f_s": lambda ctx, p: family_f(ctx, int(p["s"])),
    "g_sdelta": lambda ctx, p: family_g(ctx, int(p["s"]), p["delta"]),
    "h_sdelta": lambda ctx, p: family_h(ctx, int(p["s"]), p["delta"]),
    "k_b": lambda ctx, p: family_k(ctx, p["b"]),
}


def family(ctx: FieldCtx, name: str, **params) -> QPoly:
    """Build a named maximum-scattered family member; parameters validated."""
    try:
        builder = _FAMILY_BUILDERS[name]
    except KeyError:
        raise InvalidParameters(
            f"unknown family {name!r}; choose from {sorted(_FAMILY_BUILDERS)}"
        ) from None
    return builder(ctx, params)


# ----------------------------------------------------------- equivalence

def _require_strict(f: QPoly):
    if not f.is_strictly_linear():
        raise NotStrictlyLinear(f"{f.to_string()} is not strictly F_q-linear")


def is_pseudoregulus_type(f: QPoly) -> SemilinearMap | None:
    """Witness that L_f is equivalent to L_{x^q}, or None."""
    return pgammal_equivalent(f, monomial(f.ctx, 1))


def pgammal_equivalent(f: QPoly, g: QPoly) -> SemilinearMap | None:
    """Witness phi with Im(f_phi(x)/x) = Im(g(x)/x) (so L_f ~ L_g), or None."""
    _require_strict(f)
    _require_strict(g)
    return find_set_equivalence(image_of_ratio(f), image_of_ratio(g))


# ----------------------------------------------- the new-example verification

def mus_with_nontrivial_norm(ctx: FieldCtx) -> list[int]:
    """All mu with N(mu) not in {0, 1}; empty at q = 2.

    N(g^k) = g^(k (q^n-1)/(q-1)), so the condition is k not divisible by q-1.
    """
    if ctx.q == 2:
        return []
    return [ctx.from_exp(k) for k in range(ctx.order) if k % (ctx.q - 1) != 0]


def _sample_mus(ctx: FieldCtx, count: int, seed: int) -> list[int]:
    """`count` values spanning every norm class of F_q^* minus {1}; every
    admissible mu once when `count` exceeds their number."""
    rng = random.Random(seed)
    classes = list(range(1, ctx.q - 1))  # norm exponent j -> N(mu) = g^(jR)
    count = min(count, ctx.order - ctx.order // (ctx.q - 1))
    out, seen = [], set()
    while len(out) < count:
        j = classes[len(out) % len(classes)]
        k = rng.randrange(ctx.order // (ctx.q - 1)) * (ctx.q - 1) + j
        if k in seen:
            continue
        seen.add(k)
        out.append(ctx.from_exp(k))
    return out


def _require_example_field(ctx: FieldCtx) -> None:
    """The new example's field: n = 5 and q > 2."""
    if ctx.n != 5:
        raise PreconditionViolated(f"the example lives over F_{{q^5}}; got n = {ctx.n}")
    if ctx.q == 2:
        raise PreconditionViolated("q > 2 required: no delta has N(delta) outside {0,1}")


def _require_example_delta(ctx: FieldCtx, delta: int) -> int:
    """N(delta), after checking N(delta) not in {0, 1} and N(delta)^5 != 1."""
    nd = ctx.norm_rel(delta, 1)
    if nd in (0, 1):
        raise PreconditionViolated(f"N(delta) = {ctx.fmt(nd)} must avoid {{0, 1}}")
    if ctx.pow_int(nd, 5) == 1:
        raise PreconditionViolated(
            f"N(delta)^5 = 1 (N(delta) = {ctx.fmt(nd)}); the non-equivalence "
            "argument needs N(delta)^5 != 1"
        )
    return nd


def default_new_example_delta(ctx: FieldCtx) -> int:
    """Least delta (element order) that `_require_example_delta` accepts."""
    for k in range(ctx.order):
        delta = ctx.from_exp(k)
        try:
            _require_example_delta(ctx, delta)
        except PreconditionViolated:
            continue
        return delta
    raise PreconditionViolated(f"no admissible delta exists at q = {ctx.q}")


def verify_new_example(
    ctx: FieldCtx,
    delta: int | None = None,
    all_mu: bool = False,
    samples: int = 8,
    seed: int = 0,
) -> dict:
    """The `new-linset` report: is L of delta x^{q^2} + x^{q^3} maximum
    scattered and not equivalent to any L of mu x^q + x^{q^4}, over
    `samples` (> 0) seeded mu or, with `all_mu`, every admissible mu?

    Preconditions: n = 5, q > 2, N(delta) not in {0, 1} and N(delta)^5 != 1;
    delta defaults to `default_new_example_delta`.  Every mu set is built
    first, and one `set_equivalence_witnesses` scan of L answers them all;
    each verdict's witness is the lex-least one, as `pgammal_equivalent`
    returns it.  A positive control (two scalings of the same degree-one
    family member) must produce a verified witness through
    `pgammal_equivalent`.  Wall-clock seconds sit under the "elapsed_s" keys:
    per mu, the time spent building its set, and for the whole check, which
    alone counts the shared scan.
    """
    t_start = time.perf_counter()
    if samples < 1:
        raise ValueError(f"samples = {samples} is no positive sample count")
    _require_example_field(ctx)
    if delta is None:
        delta = default_new_example_delta(ctx)
    nd = _require_example_delta(ctx, delta)

    # family_g's guards, gcd(s, n) = 1 and N(delta) not in {0, 1}, make this
    # member and every mu member below strictly linear
    L = image_of_ratio(family_g(ctx, 2, delta))
    expected = max_scattered_size(ctx)
    max_scattered = len(L) == expected

    if all_mu:
        mus = mus_with_nontrivial_norm(ctx)
        mode = "all"
    else:
        mus = _sample_mus(ctx, samples, seed)
        mode = f"sampled({len(mus)})"

    sets, own_s = [], []
    for mu in mus:
        t0 = time.perf_counter()
        sets.append(image_of_ratio(family_g(ctx, 1, mu)))
        own_s.append(time.perf_counter() - t0)
    verdicts = []
    for mu, found, t_set in zip(mus, set_equivalence_witnesses(L, sets), own_s):
        verdicts.append({
            "mu": ctx.fmt(mu),
            "norm": ctx.fmt(ctx.norm_rel(mu, 1)),
            "equivalent": bool(found),
            "witness": found[0].serialize() if found else None,
            "elapsed_s": round(t_set, 3),
        })

    # positive control: two scalings of g_{1,mu} must be found equivalent
    control_mu = mus[0]
    base = family_g(ctx, 1, control_mu)
    control = pgammal_equivalent(base, base.scale_conjugate(ctx.gen))
    all_nonequivalent = not any(v["equivalent"] for v in verdicts)

    return {
        "field": ctx.spec_string,
        "delta": ctx.fmt(delta),
        "delta_norm": ctx.fmt(nd),
        "points": len(L),
        "expected_points": expected,
        "max_scattered": max_scattered,
        "mu_mode": mode,
        "mu_count": len(verdicts),
        "verdicts": verdicts,
        "positive_control": {
            "mu": ctx.fmt(control_mu),
            "lambda": ctx.fmt(ctx.gen),
            "witness": None if control is None else control.serialize(),
        },
        "all_nonequivalent": all_nonequivalent,
        "passed": max_scattered and all_nonequivalent and control is not None,
        "elapsed_s": round(time.perf_counter() - t_start, 3),
    }
