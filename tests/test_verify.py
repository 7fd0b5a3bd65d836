"""The bundled suites pass at small bounds and report failures coherently."""

import pytest

from rowmotion.verify import SUITES, expected_table2, roster, run_suite


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_at_small_bounds(suite):
    result = run_suite(suite, max_cells=8, max_size=3, seed=5)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.suite == suite


def test_suite_results_serialize():
    result = run_suite("table2", max_size=2)
    data = result.to_json_dict()
    assert data["passed"] is True
    assert all(set(c) == {"label", "passed", "detail"} for c in data["checks"])


def test_roster_respects_bounds():
    assert all(
        len(spec) > 0 for spec in roster(6)
    )
    from rowmotion.families import from_specifier

    for spec in roster(6):
        assert from_specifier(spec).n <= 6
    assert roster(0) == []


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_expected_table2_generic_and_exceptions():
    assert expected_table2("rect", 3, 3) == {
        "dim_A": 5, "dim_I": 5, "dim_A_q": 5, "dim_I_q": 2
    }
    assert expected_table2("rootA", 2)["dim_I_q"] == 1  # small-size exception
    with pytest.raises(ValueError):
        expected_table2("mystery", 1)


def test_expected_table2_chains_follow_the_computed_dimensions():
    from rowmotion.decompose import toggleability_space_dims
    from rowmotion.families import rectangle

    for b in range(1, 8):
        assert expected_table2("rect", 1, b) == toggleability_space_dims(rectangle(1, b))
