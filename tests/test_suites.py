import pytest

from cactusops.suites import (
    SUITE_NAMES,
    SuiteConfig,
    default_max_arity,
    load_golden_table,
    run_suite,
    run_suites,
)

SMALL = SuiteConfig(max_arity=4, samples=40, seed=3)


def test_suite_names_cover_contract():
    assert SUITE_NAMES == [
        "dsq",
        "axioms",
        "derivation",
        "f2-closure",
        "bncomp",
        "bncomp2",
        "mupartial",
        "a2inf",
        "ainf",
        "cprime-count",
        "golden-table",
    ]


def test_default_max_arities():
    assert default_max_arity("cprime-count") == 7
    assert all(default_max_arity(s) == 6 for s in SUITE_NAMES if s != "cprime-count")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_on_small_config(name):
    reports = run_suite(name, SMALL)
    assert reports
    for report in reports:
        assert report.passed, (name, report.check, report.witness)


def test_reports_are_reproducible():
    first = run_suite("axioms", SMALL)
    second = run_suite("axioms", SMALL)
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", SMALL)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_arity=1)
    with pytest.raises(ValueError):
        SuiteConfig(samples=-1)
    for field in ("max_arity", "samples"):
        for value in (True, 2.5, "4"):
            with pytest.raises(TypeError, match=f"{field} {value!r} is not an int"):
                SuiteConfig(**{field: value})


def test_golden_table_fixture_shape():
    rows = dict(load_golden_table())
    assert len(rows) == 28
    nonzero = [w for w, e in rows.items() if e]
    assert len(nonzero) == 14
    assert all(w.startswith(("wb", "bw")) for w in nonzero)


def test_run_suites_fail_fast_stops_after_failing_suite(monkeypatch):
    import cactusops.suites as suites_module

    calls = []

    def failing(cfg):
        calls.append("first")
        from cactusops.reports import VerificationReport

        return [VerificationReport(check="boom", passed=False, witness="x")]

    def passing(cfg):
        calls.append("second")
        return []

    monkeypatch.setitem(suites_module.SUITES, "dsq", failing)
    monkeypatch.setitem(suites_module.SUITES, "axioms", passing)
    cfg = SuiteConfig(max_arity=4, samples=1, seed=0, fail_fast=True)
    results = run_suites(["dsq", "axioms"], lambda name: cfg)
    assert calls == ["first"]
    assert len(results) == 1
