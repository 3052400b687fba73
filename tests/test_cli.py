"""CLI surface: report schema, determinism, exit codes, CSV side outputs."""

import inspect
import json

import pytest

from qlinset import suites
from qlinset.cli import SUITE_ARGS, main, make_parser


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
    assert SUITE_ARGS["bounds"](args) == {"seed": 3, "samples": 10_000}
    assert SUITE_ARGS["adjoint"](args) == {"seed": 3, "count": 1000}
    nl = SUITE_ARGS["new-linset"](args)
    assert (nl["p"], nl["h"], nl["n"], nl["samples"], nl["delta"]) == (3, 1, 5, 8, None)


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
