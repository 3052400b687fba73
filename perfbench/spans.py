"""Per-layer tracing of qlinset from outside the program.

`install` replaces each layer's entry points with timing wrappers: in the
defining module, in every qlinset module that bound the name with
`from ... import`, and on the classes whose methods they are.  Each wrapped
call is a span whose parent is the innermost span open when it started; a
layer's self time is the time in its spans minus the time in wrapped calls
nested inside them.  Spans are folded into totals as they close, so memory
stays flat however many calls a workload makes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, key, owner, attribute names); owner is a module attribute path
# inside qlinset ("gf" or "gf.FieldCtx").  Every listed attribute that
# exists is wrapped; `key` groups several attributes under one span name.
SPANS = [
    ("gf", "build_field", "gf", ["build_field"]),
    ("gf", "vector", "gf.FieldCtx", ["vadd", "vmul", "vneg", "vinv", "vfrob"]),
    ("qpoly", "ratio_values", "qpoly.QPoly", ["ratio_values"]),
    ("qpoly", "eval", "qpoly.QPoly", ["eval", "__call__"]),
    ("qpoly", "moore_interpolate", "qpoly", ["moore_interpolate"]),
    ("qpoly", "algebra", "qpoly.QPoly",
     ["eval_on", "compose", "adjoint", "scale_conjugate", "inverse", "as_matrix"]),
    ("imageset", "all_ratio_masks", "imageset", ["all_ratio_masks"]),
    ("imageset", "image_of_ratio", "imageset", ["image_of_ratio"]),
    # criteria calls the private per-d helper; the public power_sum wraps it
    ("imageset", "power_sum", "imageset", ["_power_sum_from_values", "power_sum"]),
    ("imageset", "enumeration", "imageset",
     ["equal_image_tuples", "survey_image_sizes", "images_equal"]),
    ("moebius", "search", "moebius", ["find_set_equivalence"]),
    ("moebius", "transform_poly", "moebius", ["transform_poly"]),
    ("moebius", "moebius_image", "moebius", ["moebius_image"]),
    ("moebius", "is_admissible", "moebius", ["is_admissible"]),
    ("criteria", "classify_n5", "criteria", ["classify_n5"]),
    ("criteria", "power_sums_all_equal", "criteria", ["power_sums_all_equal"]),
    ("criteria", "check_e_relations", "criteria", ["check_e_relations"]),
    ("criteria", "exhaustive_same_image", "criteria", ["exhaustive_same_image"]),
    ("criteria", "tests", "criteria",
     ["classify_n_le_4", "trace5_test", "pseudoalg_test", "monomial_classify"]),
    ("linset", "pgammal_equivalent", "linset", ["pgammal_equivalent"]),
    ("linset", "verify_new_example", "linset", ["verify_new_example"]),
    ("linset", "linear_set", "linset", ["linear_set", "is_pseudoregulus_type"]),
]

# Scalar field operations run millions of times: they are counted, not
# timed, and their time stays in the self time of the layer that calls them.
SCALAR_OPS = ["add", "neg", "sub", "mul", "inv", "div", "pow_int", "frobenius",
              "trace_rel", "norm_rel"]

SUITE_FUNCTIONS = ["suite_thm_main_q2", "suite_thm_n4", "suite_survey_n4",
                   "suite_new_linset", "suite_trace5", "suite_pseudoalg",
                   "suite_properties"]

LAYERS = ["gf", "qpoly", "imageset", "moebius", "criteria", "linset", "suites"]

OUTCOMES = ["scalar_conjugate", "adjoint_scalar_conjugate", "monomial_pair",
            "inconsistent"]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, grouped by layer."""
    names = sorted(Tracer().report(), key=lambda n: (LAYERS.index(n.split(".")[0]), n))
    return names + ["trace.overhead_s"]


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [start, time in nested spans, key]
        self.depth = Counter()  # open spans per key, so recursion counts once
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.edges = defaultdict(float)  # (parent key, key) -> inclusive time

    def span(self, layer: str, key: str, fn, hook=None):
        full = f"{layer}.{key}"
        stack, depth = self.stack, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else "-"
            frame = [clock(), 0.0, full]
            stack.append(frame)
            depth[full] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[full] -= 1
                self.calls[full] += 1
                self.self_time[layer] += elapsed - frame[1]
                self.edges[(parent, full)] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if not depth[full]:
                    self.inclusive[full] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        c, calls, incl = self.counts, self.calls, self.inclusive
        out = {
            "gf.build_field_s": incl["gf.build_field"],
            "gf.modulus_candidates": c["gf.modulus_candidates"],
            "gf.vector_calls": calls["gf.vector"],
            "gf.vector_elems": c["gf.vector_elems"],
            "gf.vector_s": incl["gf.vector"],
            "gf.scalar_calls": c["gf.scalar"],
            "qpoly.ratio_values_calls": calls["qpoly.ratio_values"],
            "qpoly.ratio_values_s": incl["qpoly.ratio_values"],
            "qpoly.eval_calls": calls["qpoly.eval"],
            "qpoly.moore_interpolate_calls": calls["qpoly.moore_interpolate"],
            "qpoly.moore_interpolate_s": incl["qpoly.moore_interpolate"],
            "imageset.all_ratio_masks_s": incl["imageset.all_ratio_masks"],
            "imageset.tuples_enumerated": c["imageset.tuples"],
            "imageset.tuples_per_s": (
                c["imageset.tuples"] / incl["imageset.all_ratio_masks"]
                if incl["imageset.all_ratio_masks"] else 0.0
            ),
            "imageset.image_of_ratio_calls": calls["imageset.image_of_ratio"],
            "imageset.image_of_ratio_s": incl["imageset.image_of_ratio"],
            "imageset.power_sum_evals": c["imageset.power_sum_evals"],
            "imageset.power_sum_s": incl["imageset.power_sum"],
            "moebius.search_calls": calls["moebius.search"],
            "moebius.search_found": c["moebius.search_found"],
            "moebius.search_s": incl["moebius.search"],
            "moebius.triples_exhausted": c["moebius.triples_exhausted"],
            "moebius.transform_poly_calls": calls["moebius.transform_poly"],
            "moebius.transform_poly_s": incl["moebius.transform_poly"],
            "moebius.moebius_image_calls": calls["moebius.moebius_image"],
            "moebius.moebius_image_s": incl["moebius.moebius_image"],
            "criteria.classify_n5_calls": calls["criteria.classify_n5"],
            "criteria.classify_n5_s": incl["criteria.classify_n5"],
            "criteria.power_sums_all_equal_calls": calls["criteria.power_sums_all_equal"],
            "criteria.power_sums_all_equal_s": incl["criteria.power_sums_all_equal"],
            "criteria.check_e_relations_s": incl["criteria.check_e_relations"],
            "criteria.exhaustive_same_image_s": incl["criteria.exhaustive_same_image"],
            "linset.pgammal_equivalent_calls": calls["linset.pgammal_equivalent"],
            "linset.pgammal_equivalent_s": incl["linset.pgammal_equivalent"],
            "linset.verify_new_example_s": incl["linset.verify_new_example"],
        }
        for k in OUTCOMES:
            out[f"criteria.outcomes.{k}"] = c[f"criteria.outcomes.{k}"]
        for fn in SUITE_FUNCTIONS:
            out[f"suites.{fn}_s"] = incl[f"suites.{fn}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out

    def top_edges(self, limit: int = 25) -> list[tuple[str, str, float]]:
        ranked = sorted(self.edges.items(), key=lambda kv: -kv[1])[:limit]
        return [(parent, child, t) for (parent, child), t in ranked]


# --------------------------------------------------------------- hooks

def _vector_elems(tracer, args, result):
    tracer.counts["gf.vector_elems"] += int(np.size(result))


def _modulus_candidates(tracer, args, result):
    # the search tries constant-first coefficient vectors in base-p order,
    # skipping those with a zero constant term, so the rank of the returned
    # modulus in that order counts the candidates rejected before it
    p, m = result.p, result.m
    rank = 0
    for c in result.modulus[:m]:
        rank = rank * p + c
    tracer.counts["gf.modulus_candidates"] += rank - p ** (m - 1)


def _tuples(tracer, args, result):
    tracer.counts["imageset.tuples"] += int(np.size(result))


def _power_sum_evals(tracer, args, result):
    # power_sum calls the per-d helper; count the outermost call only
    if not tracer.depth["imageset.power_sum"]:
        tracer.counts["imageset.power_sum_evals"] += 1


def _search(tracer, args, result):
    if result is not None:
        tracer.counts["moebius.search_found"] += 1
        return
    S, T = args[0], args[1]
    t = len(T)
    if len(S) == t and t >= 3:
        tracer.counts["moebius.triples_exhausted"] += S.ctx.m * t * (t - 1) * (t - 2)


def _outcome(tracer, args, result):
    tracer.counts[f"criteria.outcomes.{result.kind}"] += 1


HOOKS = {
    "gf.build_field": _modulus_candidates,
    "gf.vector": _vector_elems,
    "imageset.all_ratio_masks": _tuples,
    "imageset.power_sum": _power_sum_evals,
    "moebius.search": _search,
    "criteria.classify_n5": _outcome,
}


def _resolve(ql, path: str):
    obj = ql
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _rebind(replacements: dict) -> None:
    """Point every qlinset module and class attribute bound to an original
    function at its wrapper."""
    owners = [m for name, m in sys.modules.items()
              if name == "qlinset" or name.startswith("qlinset.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("qlinset")]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(owner, attr, wrapper)


def install(ql) -> Tracer:
    """Wrap qlinset's entry points; `ql` is the imported qlinset package."""
    tracer = Tracer()
    replacements = {}
    for layer, key, owner_path, attrs in SPANS:
        owner = _resolve(ql, owner_path)
        hook = HOOKS.get(f"{layer}.{key}")
        for attr in attrs:
            fn = vars(owner).get(attr)
            if fn is not None and id(fn) not in replacements:
                replacements[id(fn)] = tracer.span(layer, key, fn, hook)
    field_cls = ql.gf.FieldCtx
    for attr in SCALAR_OPS:
        fn = vars(field_cls)[attr]
        replacements[id(fn)] = tracer.counter("gf.scalar", fn)
    for fn in SUITE_FUNCTIONS:
        orig = getattr(ql.suites, fn)
        replacements[id(orig)] = tracer.span("suites", fn, orig)
    _rebind(replacements)
    # the suites registry holds the same function objects
    for name, fn in list(ql.suites.SUITES.items()):
        ql.suites.SUITES[name] = replacements.get(id(fn), fn)
    return tracer
