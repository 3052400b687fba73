"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass/fail line each.

Desk scale means q in {2, 3, 4} and n <= 5; every check is exact field
arithmetic (no numerical tolerance anywhere).  The heavy q = 2 enumeration
is shared between criteria 4 and 6 through session fixtures.
"""

import pytest

from qlinset import suites


def _report(num, name, result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({result.get('elapsed_s', '?')}s)")
    assert result["passed"], f"criterion {num} ({name}) failed: {result}"


@pytest.fixture(scope="module")
def thm_main_q2_run():
    result, pairs = suites.suite_thm_main_q2(seed=0, return_pairs=True)
    return result, pairs


def test_criterion_1_direction_bounds():
    # exhaustive at (2,4): every strict |Im| in [9,15]; 10^4 samples at (3,5)
    # in [82,121]
    result = suites.suite_bounds(seed=0, samples=10_000)
    assert result["exhaustive"]["window"] == [9, 15]
    assert result["sampled"]["window"] == [82, 121]
    assert result["sampled"]["checked"] >= 10_000
    _report(1, "direction-bounds", result)


def test_criterion_2_survey_spectrum():
    # occurring sizes at (2,4) exactly {9, 11, 13, 15}
    result = suites.suite_survey_n4()
    assert [r["size"] for r in result["rows"]] == [9, 11, 13, 15]
    _report(2, "size-spectrum-n4", result)


def test_criterion_3_classification_n_le_4():
    # 20 sampled strict f per n in {2,3,4} at q=2; all partners classify,
    # zero inconsistent; n=2 only scalar conjugates
    result = suites.suite_thm_n4(seed=0, per_n=20)
    for fld in result["per_field"]:
        assert fld["outcomes"]["inconsistent"] == 0
    assert result["per_field"][0]["outcomes"]["adjoint_scalar_conjugate"] == 0
    _report(3, "classification-n-le-4", result)


def test_criterion_4_classification_n5_q2(thm_main_q2_run):
    # full 32^5 enumeration against Tr, x^q and a dense random f; partner
    # sets match theory exactly; zero inconsistent outcomes
    result, _ = thm_main_q2_run
    by_case = {c["case"]: c for c in result["per_case"]}
    assert by_case["trace"]["partners"] == 31
    assert by_case["monomial"]["partners"] == 124
    for c in result["per_case"]:
        assert c["outcomes"].get("inconsistent", 0) == 0
    _report(4, "classification-n5-q2", result)


def test_criterion_5_trace5_and_pseudoalg_round_trips():
    # 100 constructions each: trace round trips via random GL pushes, and
    # ratio-conditioned polynomials routing to the pseudoregulus image
    r1 = suites.suite_trace5(seed=0, count=100)
    r2 = suites.suite_pseudoalg(seed=0, count=100)
    result = {
        "passed": r1["passed"] and r2["passed"],
        "trace5": r1,
        "pseudoalg": r2,
        "elapsed_s": round(r1["elapsed_s"] + r2["elapsed_s"], 3),
    }
    assert r1["round_trips"] == 100 and r2["routed"] == 100
    _report(5, "trace5-pseudoalg-round-trips", result)


def test_criterion_6_power_sums_and_e_relations(thm_main_q2_run):
    # 10^3 constructed equal-image pairs at q=3: all power sums d in [1,242]
    # agree (power_sums_all_equal compares the images, which fix every power
    # sum and are fixed by them) and e0..e6 hold; plus e0..e6 across the
    # exhaustive q=2 harness
    _, pairs = thm_main_q2_run
    result = suites.suite_erelations(seed=0, pairs=1000)
    assert result["constructed_pairs"] == 1000
    assert result["q2_harness_pairs"] == len(pairs) > 0
    _report(6, "power-sums-e-relations", result)


def test_criterion_7_new_linear_set_all_mu():
    # q=3, delta with N(delta)=2: the linear set has 121 points and is
    # inequivalent to every mu-family member (all 121 admissible mu);
    # positive control produces a verified witness
    result = suites.suite_new_linset(all_mu=True, seed=0)
    assert result["points"] == 121 and result["max_scattered"]
    assert result["mu_count"] == 121
    assert result["all_nonequivalent"]
    # pinned, like the whole report: the search returns the lex-least witness
    assert result["positive_control"] == {
        "mu": "g^1", "lambda": "g^1", "witness": "[[g^0,0],[0,g^0]];sigma=3^0",
    }
    _report(7, "new-max-scattered-linset", result)


def test_criterion_8_property_suites():
    # adjoint involution, bilinear identity, image invariance, transport
    # consistency, group action, field-of-linearity agreement: 10^3 random
    # instances at q in {2, 3, 4}
    result = suites.suite_properties(seed=0, count=1000)
    for fld in result["per_field"]:
        assert fld["instances"] == 1000
        assert fld["failures"] == {}
    _report(8, "property-suites", result)
