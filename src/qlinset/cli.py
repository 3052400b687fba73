"""Command-line front end: single computations, classification, and the
verification suites, with versioned JSON reports.

Reports follow the "qlinset-report/1" schema: identical configurations
produce identical reports apart from the fields under "timing"/"elapsed_s".
Field elements are written as "0" or "g^k"; polynomials as comma-separated
element lists "a0,a1,...,a{n-1}".
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import criteria as cr
from . import imageset as ims
from . import linset as ls
from . import suites
from .errors import ImagesDiffer, InvalidModulus, QlinsetError
from .gf import build_field
from .qpoly import QPoly

REPORT_SCHEMA = "qlinset-report/1"
OUT_DIR_ENV = "QLINSET_OUT_DIR"


def _parse_field(spec: str):
    parts = [int(v) for v in spec.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--field expects 'p,h,n'")
    return tuple(parts)


def _parse_samples(spec: str) -> int:
    try:
        value = int(spec)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, not {spec!r}")
    return value


def _parse_modulus(spec: str):
    return [int(v) for v in spec.split(",")]


class OptionError(Exception):
    """An option value that parsed but names no field, element or polynomial;
    `main` exits 2 with one line naming the option."""


def _option(flag: str, read, *args):
    """read(*args), with its ValueError or QlinsetError as an OptionError."""
    try:
        return read(*args)
    except (ValueError, QlinsetError) as exc:
        raise OptionError(f"{flag}: {exc}") from exc


def _resolve_out(path: str | None):
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_survey_csv(rows: list[dict], out_path: str):
    csv_path = os.path.splitext(out_path)[0] + ".csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["size", "count", "representative"])
        for r in rows:
            w.writerow([r["size"], r["count"], r["representative"]])
    return csv_path


def _build_ctx(field, modulus):
    p, h, n = field
    try:
        return build_field(p, h, n, modulus)
    except QlinsetError as exc:
        bad_modulus = isinstance(exc, InvalidModulus) and modulus is not None
        raise OptionError(f"{'--modulus' if bad_modulus else '--field'}: {exc}") from exc


def cmd_image(args) -> int:
    ctx = _build_ctx(args.field, args.modulus)
    f = _option("--poly", QPoly.from_string, ctx, args.poly)
    im = ims.image_of_ratio(f)
    lo, hi = ims.direction_bounds(ctx)
    strict = f.is_strictly_linear()
    report = {
        "schema": REPORT_SCHEMA,
        "command": "image",
        "field": ctx.spec_string,
        "poly": f.to_string(),
        "size": len(im),
        "strictly_linear": strict,
        "max_field_of_linearity": None if f.is_zero() else f.max_field_of_linearity(),
        "window": [lo, hi] if strict else None,
    }
    if not strict:
        report["note"] = "not strictly F_q-linear; the size window does not apply"
    if args.elements:
        report["elements"] = [ctx.fmt(int(i)) for i in im.indices()]
    _emit(report, _resolve_out(args.out))
    return 0


def cmd_classify(args) -> int:
    ctx = _build_ctx(args.field, args.modulus)
    if not 2 <= ctx.n <= 5:
        raise OptionError(f"--field: classification covers 2 <= n <= 5, got n = {ctx.n}")
    f = _option("--f", QPoly.from_string, ctx, args.f)
    g = _option("--g", QPoly.from_string, ctx, args.g)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "classify",
        "field": ctx.spec_string,
        "f": f.to_string(),
        "g": g.to_string(),
    }
    try:
        if ctx.n == 5:
            outcome = cr.classify_n5(f, g)
            report["e_relations"] = cr.check_e_relations(f, g).to_dict(ctx)
        else:
            outcome = cr.classify_n_le_4(f, g)
        report["outcome"] = outcome.to_dict(ctx)
        failed = outcome.kind == "inconsistent"
    except ImagesDiffer:
        report["outcome"] = {"kind": "images_differ"}
        failed = False
    except QlinsetError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        failed = True
    _emit(report, _resolve_out(args.out))
    return 1 if failed else 0


def cmd_verify(args) -> int:
    suite = args.suite
    if suite != "new-linset":
        given = [flag for flag, dest in NEW_LINSET_OPTIONS.items() if getattr(args, dest)]
        if given:
            raise OptionError(
                f"{', '.join(given)}: read only by --suite new-linset, not {suite}")
    t0 = time.perf_counter()
    try:
        result = suites.SUITES[suite](**SUITE_ARGS[suite](args))
    except QlinsetError as exc:
        print(f"suite {suite}: guard violation: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": REPORT_SCHEMA,
        "command": "verify",
        "suite": suite,
        "config": {
            "seed": args.seed,
            "samples": args.samples,
            "all_mu": args.all_mu,
        },
        "results": result,
        "passed": result["passed"],
        "timing": {"elapsed_s": round(time.perf_counter() - t0, 3)},
    }
    out_path = _resolve_out(args.out)
    _emit(report, out_path)
    if suite == "survey-n4" and out_path:
        _write_survey_csv(result["rows"], out_path)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"suite {suite}: {status}", file=sys.stderr)
    return 0 if result["passed"] else 1


def _given_samples(keyword: str):
    """The suite's keyword arguments: the seed, and --samples under
    `keyword` when it is given; otherwise the suite keeps its own default."""
    return lambda a: {"seed": a.seed, **({keyword: a.samples} if a.samples else {})}


def _no_count(read):
    """`read` for a suite that takes no count, where --samples is an OptionError."""
    def checked(a):
        if a.samples:
            raise OptionError(f"--samples: --suite {a.suite} takes no sample count")
        return read(a)
    return checked


def _new_linset_args(args) -> dict:
    """The field and delta for new-linset, with the example's guards run
    here so that an unusable value is an option error."""
    ctx = _build_ctx(args.field or (3, 1, 5), args.modulus)
    _option("--field", ls._require_example_field, ctx)
    delta = None
    if args.delta:
        delta = _option("--delta", ctx.parse, args.delta)
        _option("--delta", ls._require_example_delta, ctx, delta)
    return ({"ctx": ctx, "delta": delta, "all_mu": args.all_mu}
            | _given_samples("samples")(args))


# `verify` options that only new-linset reads; other suites reject them
NEW_LINSET_OPTIONS = {"--field": "field", "--modulus": "modulus",
                      "--delta": "delta", "--all-mu": "all_mu"}

# keyword arguments of each suite in suites.SUITES from the parsed `verify`
# options
SUITE_ARGS = {
    "bounds": _given_samples("samples"),
    "survey-n4": _no_count(lambda a: {}),
    "thm-n4": _given_samples("per_n"),
    "thm-main-q2": _no_count(lambda a: {"seed": a.seed}),
    "trace5": _given_samples("count"),
    "pseudoalg": _given_samples("count"),
    "erelations": _given_samples("pairs"),
    "new-linset": _new_linset_args,
    "adjoint": _given_samples("count"),
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlinset",
        description="Linearized polynomials over F_{q^n}: ratio image sets, "
        "semilinear equivalence, and scattered linear sets of PG(1,q^n).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, field_required=True):
        sp.add_argument("--field", type=_parse_field, required=field_required,
                        default=None, help="field tower as 'p,h,n'")
        sp.add_argument("--modulus", type=_parse_modulus, default=None,
                        help="modulus override, coefficients low-degree-first "
                             "(must be primitive)")
        sp.add_argument("--out", default=None,
                        help=f"JSON report path (relative paths join ${OUT_DIR_ENV})")

    sp = sub.add_parser("image", help="size and bounds of Im(f(x)/x)")
    common(sp)
    sp.add_argument("--poly", required=True, help="coefficients 'a0,a1,...'")
    sp.add_argument("--elements", action="store_true", help="list the image elements")
    sp.set_defaults(func=cmd_image)

    sp = sub.add_parser("classify", help="resolve a same-image pair (2 <= n <= 5)")
    common(sp)
    sp.add_argument("--f", required=True, help="coefficients of f")
    sp.add_argument("--g", required=True, help="coefficients of g")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, field_required=False)  # --field/--modulus: new-linset only
    sp.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    sp.add_argument("--samples", type=_parse_samples, default=None,
                    help="sample/pair count override where a suite samples")
    sp.add_argument("--all-mu", action="store_true", dest="all_mu",
                    help="new-linset: test every admissible mu")
    sp.add_argument("--delta", default=None,
                    help="new-linset: element override for delta, e.g. 'g^1'")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptionError as exc:
        print(f"qlinset {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
