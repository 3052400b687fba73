"""CLI surface: report schema, determinism, exit codes, CSV side outputs;
and the library calls that the benchmark under perfbench/ makes."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlinset as ql
from qlinset import suites
from qlinset.cli import SUITE_ARGS, main, make_parser
from qlinset.gf import build_field


def run_cli(args):
    return main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(report):
    def scrub(obj):
        if isinstance(obj, dict):
            return {
                k: scrub(v)
                for k, v in obj.items()
                if k not in ("timing", "elapsed_s")
            }
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(report)


def test_image_command(tmp_path):
    out = tmp_path / "im.json"
    rc = run_cli([
        "image", "--field", "2,1,5", "--poly", "g^0,g^0,g^0,g^0,g^0",
        "--elements", "--out", str(out),
    ])
    assert rc == 0
    rep = load(out)
    assert rep["schema"] == "qlinset-report/1"
    assert rep["size"] == 17
    assert rep["window"] == [17, 31]
    assert len(rep["elements"]) == 17


def test_image_flags_non_strict(tmp_path):
    out = tmp_path / "im.json"
    rc = run_cli(["image", "--field", "2,1,5", "--poly", "g^3,0,0,0,0",
                  "--out", str(out)])
    assert rc == 0
    rep = load(out)
    assert rep["strictly_linear"] is False
    assert rep["window"] is None
    assert "note" in rep


def test_image_monomial_window(tmp_path):
    out = tmp_path / "im.json"
    run_cli(["image", "--field", "3,1,5", "--poly", "0,g^0,0,0,0", "--out", str(out)])
    rep = load(out)
    assert rep["size"] == 121
    assert rep["window"] == [82, 121]
    # at n = 1 every strictly linear f is a scalar map, of image size 1
    run_cli(["image", "--field", "3,1,1", "--poly", "g^0", "--out", str(out)])
    rep = load(out)
    assert rep["size"] == 1 and rep["strictly_linear"]
    assert rep["window"] == [1, 1]


def test_classify_command_outcomes(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli(["classify", "--field", "2,1,5",
                  "--f", "g^0,g^0,g^0,g^0,g^0",
                  "--g", "g^0,g^1,g^3,g^7,g^15",  # Tr(gx)/g
                  "--out", str(out)])
    assert rc == 0
    rep = load(out)
    assert rep["outcome"]["kind"] == "scalar_conjugate"
    assert "e_relations" in rep and rep["e_relations"]["e0"]["holds"]

    rc = run_cli(["classify", "--field", "2,1,5",
                  "--f", "0,g^0,0,0,0", "--g", "g^0,g^0,g^0,g^0,g^0",
                  "--out", str(out)])
    assert rc == 0
    assert load(out)["outcome"]["kind"] == "images_differ"

    rc = run_cli(["classify", "--field", "2,1,4",
                  "--f", "0,g^0,0,0", "--g", "0,g^0,0,0", "--out", str(out)])
    assert rc == 0
    assert load(out)["outcome"]["kind"] == "scalar_conjugate"


def test_classify_error_exit(tmp_path):
    out = tmp_path / "c.json"
    # non-strict input trips a guard: nonzero exit with an error record
    rc = run_cli(["classify", "--field", "2,1,5",
                  "--f", "g^0,0,0,0,0", "--g", "g^0,0,0,0,0", "--out", str(out)])
    assert rc == 1
    assert load(out)["error"]["type"] == "NotStrictlyLinear"


@pytest.mark.parametrize("argv, flag", [
    (["image", "--field", "2,1,30", "--poly", "0,g^0"], "--field"),
    (["classify", "--field", "2,1,5", "--modulus", "1,1,0,0,0,1",
      "--f", "0,g^0,0,0,0", "--g", "0,g^0,0,0,0"], "--modulus"),
    (["image", "--field", "2,1,5", "--poly", "0,1,0,0,x"], "--poly"),
    (["image", "--field", "2,1,5", "--poly", "0,1,0"], "--poly"),
    (["verify", "--suite", "new-linset", "--delta", "x"], "--delta"),
    (["verify", "--suite", "new-linset", "--field", "2,1,30"], "--field"),
    (["verify", "--suite", "new-linset", "--modulus", "1,1,0,0,0,1"], "--modulus"),
    (["verify", "--suite", "new-linset", "--field", "2,1,5"], "--field"),
    (["verify", "--suite", "new-linset", "--field", "3,1,4"], "--field"),
    (["verify", "--suite", "new-linset", "--delta", "g^2"], "--delta"),
    (["classify", "--field", "2,1,6", "--f", "0,g^0,0,0,0,0", "--g", "0,g^0,0,0,0,0"],
     "--field"),
], ids=["field-too-large", "modulus-not-primitive", "poly-element", "poly-length", "delta",
        "verify-field", "verify-modulus", "new-linset-q2", "new-linset-n4",
        "new-linset-delta-norm-1", "classify-n6"])
def test_unusable_option_exits_2_naming_it(argv, flag, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"qlinset {argv[0]}: {flag}: "), err


def test_verify_suite_reports_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc = run_cli(["verify", "--suite", "thm-n4", "--samples", "2", "--seed", "5",
                  "--out", str(out1)])
    assert rc == 0
    rc = run_cli(["verify", "--suite", "thm-n4", "--samples", "2", "--seed", "5",
                  "--out", str(out2)])
    assert rc == 0
    assert strip_timing(load(out1)) == strip_timing(load(out2))


def test_verify_survey_csv(tmp_path):
    out = tmp_path / "survey.json"
    rc = run_cli(["verify", "--suite", "survey-n4", "--out", str(out)])
    assert rc == 0
    csv_path = tmp_path / "survey.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "size,count,representative"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [9, 11, 13, 15]


def test_verify_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QLINSET_OUT_DIR", str(tmp_path))
    rc = run_cli(["verify", "--suite", "survey-n4", "--out", "env.json"])
    assert rc == 0
    assert (tmp_path / "env.json").exists()


def test_verify_new_linset_sampled(tmp_path):
    out = tmp_path / "nl.json"
    rc = run_cli(["verify", "--suite", "new-linset", "--samples", "1",
                  "--out", str(out)])
    assert rc == 0
    rep = load(out)
    assert rep["passed"] is True
    assert rep["results"]["max_scattered"] is True
    assert rep["results"]["positive_control"]["witness"] is not None


def test_verify_new_linset_delta_guard(tmp_path, capsys):
    out = tmp_path / "nl.json"
    rc = run_cli(["verify", "--suite", "new-linset", "--delta", "g^2",
                  "--samples", "1", "--out", str(out)])
    assert rc == 2  # N(g^2) = 1: precondition violation -> guard exit


def test_verify_arguments_fit_every_suite():
    assert set(SUITE_ARGS) == set(suites.SUITES)
    args = make_parser().parse_args(["verify", "--suite", "bounds", "--seed", "3"])
    for name, fn in suites.SUITES.items():
        inspect.signature(fn).bind(**SUITE_ARGS[name](args))
    # without --samples each suite keeps the default in its own signature
    assert SUITE_ARGS["bounds"](args) == {"seed": 3}
    assert SUITE_ARGS["adjoint"](args) == {"seed": 3}
    nl = SUITE_ARGS["new-linset"](args)
    assert (nl["ctx"].spec_string, nl["delta"]) == (build_field(3, 1, 5).spec_string, None)
    assert "samples" not in nl
    args = make_parser().parse_args(["verify", "--suite", "bounds", "--samples", "7"])
    assert SUITE_ARGS["bounds"](args) == {"seed": 0, "samples": 7}
    assert SUITE_ARGS["adjoint"](args) == {"seed": 0, "count": 7}
    assert SUITE_ARGS["new-linset"](args)["samples"] == 7


# Every call perfbench/workloads.py makes into qlinset, as (function,
# positional argument count, keywords).  The benchmark's files stay fixed
# between its runs, so a signature change that would break them fails here.
BENCHMARK_CALLS = [
    (ql.imageset.all_ratio_masks, 1, []),
    (ql.suites.suite_thm_main_q2, 0, ["seed", "masks", "return_pairs"]),
    (ql.suites.suite_thm_n4, 0, ["seed", "per_n"]),
    (ql.suites.suite_survey_n4, 0, []),
    (ql.suites.suite_new_linset, 0, ["samples", "seed", "threads"]),
    (ql.suites.suite_trace5, 0, ["seed", "count"]),
    (ql.suites.suite_pseudoalg, 0, ["seed", "count"]),
    (ql.suites.suite_properties, 0, ["seed", "count"]),
    (ql.criteria.power_sums_all_equal, 2, []),
    (ql.criteria.check_e_relations, 2, []),
    (ql.moebius.SemilinearMap, 6, []),
    (ql.moebius.transform_poly, 2, []),
    (ql.linset.pgammal_equivalent, 2, []),
    (ql.imageset.image_of_ratio, 1, []),
    (ql.qpoly.QPoly, 2, []),
    (ql.gf.build_field, 3, []),
]


@pytest.mark.parametrize("fn, positional, keywords", BENCHMARK_CALLS,
                         ids=[c[0].__name__ for c in BENCHMARK_CALLS])
def test_benchmark_calls_still_bind(fn, positional, keywords):
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_thm_main_q2_makes_one_exhaustive_call_per_case(monkeypatch):
    # a traced q2-enum round expects one criteria.exhaustive_same_image span
    # per case of suite_thm_main_q2
    calls = []
    one = ql.criteria.exhaustive_same_image

    def counted(*args, **kwargs):
        calls.append(args)
        return one(*args, **kwargs)

    monkeypatch.setattr(ql.criteria, "exhaustive_same_image", counted)
    assert suites.suite_thm_main_q2(seed=0)["passed"]
    assert len(calls) == 3


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/spans.py and perfbench/workloads.py, imported as modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads", "oracle"):
        sys.modules.pop(name, None)


def test_benchmark_trace_names_resolve(perfbench):
    # a traced benchmark run wraps these names: a span a workload expects
    # must have something to wrap, and the scalar counters and suite spans
    # look their functions up without a fallback
    spans, workloads = perfbench
    owners = {f"{layer}.{key}": (owner, attrs) for layer, key, owner, attrs in spans.SPANS}
    for name, workload in workloads.WORKLOADS.items():
        for key in workload.expected:
            layer, _, fn = key.partition(".")
            if layer == "suites":
                assert fn in spans.SUITE_FUNCTIONS, (name, key)
                continue
            owner, attrs = owners[key]
            found = vars(spans._resolve(ql, owner))
            assert any(callable(found.get(attr)) for attr in attrs), (name, key)
    for fn in spans.SUITE_FUNCTIONS:
        assert callable(getattr(ql.suites, fn, None)), fn
    for op in spans.SCALAR_OPS:
        assert callable(vars(ql.gf.FieldCtx).get(op)), op


def test_benchmark_checks_pass_on_small_rounds(perfbench, monkeypatch, q2_masks):
    # the four seed-1 workloads, cut short, through their own verdicts and
    # checks: a report or witness the checks reject fails here, not in a
    # benchmark run
    _, workloads = perfbench
    q2 = workloads.WORKLOADS["q2-enum"]
    q3 = workloads.WORKLOADS["q3-nonequiv"]
    alg = workloads.WORKLOADS["q3-algebra"]
    wide = workloads.WORKLOADS["wide-field"]
    q3_inputs = dict(q3.make_inputs(1), samples=1)
    # two searches, each built by _search_pair, and fewer round trips and
    # property instances
    for name, value in (("ALG_SEARCHES", 2), ("ALG_ROUND_TRIPS", 2), ("ALG_PROPERTIES", 1)):
        monkeypatch.setattr(workloads, name, value)
    alg_inputs = alg.make_inputs(1)
    assert len(alg_inputs["searches"]) == 2
    wide_inputs = wide.make_inputs(1)
    wide_inputs["polys"] = [polys[:1] for polys in wide_inputs["polys"]]
    # two sampled and two rotated tuples, on the session's masks of F_32
    monkeypatch.setattr(workloads, "Q2_SAMPLES", 2)
    monkeypatch.setattr(ql.imageset, "all_ratio_masks", lambda ctx: q2_masks)
    q2_inputs = q2.make_inputs(1)
    assert len(q2_inputs["oracle_tuples"]) == 2
    for work, inputs in ((q2, q2_inputs), (q3, q3_inputs), (alg, alg_inputs),
                         (wide, wide_inputs)):
        ctxs = [build_field(*spec) for spec in work.fields]
        tally = work.checks(ql, ctxs, inputs, work.verdicts(ql, ctxs, inputs))
        assert tally.attempted and not tally.failed, tally.notes


@pytest.mark.parametrize("opts", [
    ["--field", "3,1,5"],
    ["--modulus", "1,2,0,0,0,1"],
    ["--delta", "g^7"],
    ["--all-mu"],
    ["--field", "3,1,5", "--all-mu", "--delta", "g^7"],
], ids=["field", "modulus", "delta", "all-mu", "three-at-once"])
def test_verify_rejects_new_linset_options_on_other_suites(opts, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run_cli(["verify", "--suite", "survey-n4", *opts, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("qlinset verify: --"), err
    assert all(flag in err for flag in opts if flag.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["image", "--field", "2,1,5", "--poly", "g^0,g^0,g^0,g^0,g^0"],
    ["classify", "--field", "2,1,5", "--f", "0,g^0,0,0,0", "--g", "0,0,g^4,0,0"],
], ids=["image", "classify"])
def test_seed_is_a_verify_option_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([*command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "0", "two"])
@pytest.mark.parametrize("suite", ["trace5", "thm-n4", "adjoint", "new-linset", "bounds"])
def test_verify_samples_must_be_positive(suite, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", suite, "--samples", value])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_samples_reaches_the_suite_or_exits_2(suite, monkeypatch, capsys):
    # --samples is a count the suite reads, or an option error before the
    # suite runs; never a value that only the report's config records
    seen = []
    monkeypatch.setitem(suites.SUITES, suite, lambda **kw: seen.append(kw) or {"passed": True})
    rc = run_cli(["verify", "--suite", suite, "--samples", "7"])
    if rc == 2:
        assert not seen
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("qlinset verify: --samples: "), err
    else:
        assert rc == 0 and 7 in seen[0].values()


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("run", [
    lambda n: ql.linset.verify_new_example(build_field(3, 1, 5), samples=n),
    lambda n: suites.suite_thm_n4(per_n=n),
    lambda n: suites.suite_trace5(count=n),
    lambda n: suites.suite_pseudoalg(count=n),
    lambda n: suites.suite_properties(count=n),
    lambda n: suites.suite_erelations(pairs=n),
], ids=["new-linset", "thm-n4", "trace5", "pseudoalg", "adjoint", "erelations"])
def test_suites_reject_a_count_below_one(run, count):
    # a suite that checks nothing must not report passed: true
    with pytest.raises(ValueError, match=f"= {count} is no positive sample count"):
        run(count)


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        run_cli(["verify", "--suite", "nonsense"])


def test_modulus_override_changes_encoding(tmp_path):
    out = tmp_path / "im.json"
    run_cli(["image", "--field", "2,1,5", "--modulus", "1,0,1,0,0,1",
             "--poly", "g^0,g^0,g^0,g^0,g^0", "--out", str(out)])
    rep = load(out)
    assert rep["field"] == "2^1^5/1,0,1,0,0,1"
    assert rep["size"] == 17  # intrinsic quantities unchanged


def test_verdict_paths_never_import_numpy_ma():
    # np.unique without counts and np.isin import numpy.ma, 10-18 ms of a
    # fresh interpreter; four suites in one, each checked after it ran
    code = (
        "import sys\n"
        "from qlinset import suites\n"
        "for run in (lambda: suites.suite_new_linset(samples=1),\n"
        "            lambda: suites.suite_thm_n4(per_n=2), suites.suite_survey_n4,\n"
        "            suites.suite_thm_main_q2):\n"
        "    run()\n"
        "    print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 4
