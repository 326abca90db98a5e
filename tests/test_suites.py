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


def test_dsq_builds_each_basis_differential_once(monkeypatch):
    # d(d(u)) adds up the rows d(w) of the degree below, so the exhaustive
    # part deletes from each of its 12,212 basis elements once.
    import cactusops.operad as operad_module

    true_deletions = operad_module._deletions
    calls = []

    def counting(key):
        calls.append(key)
        return true_deletions(key)

    monkeypatch.setattr(operad_module, "_deletions", counting)
    reports = run_suite("dsq", SuiteConfig(samples=0))
    assert all(r.passed for r in reports)
    assert len(calls) == 12_212
    assert len(set(calls)) == 12_212


def test_dsq_builds_a_row_missing_from_the_degree_below(monkeypatch):
    # (1,2,1,2) deletes to (1,2,1); left out of the enumerated basis, its
    # row is built on the spot instead of raising KeyError.
    import cactusops.suites as suites_module
    from cactusops.surjections import Surjection

    true_enumerate = suites_module.enumerate_basis
    gone = Surjection((1, 2, 1))

    def leaky(n, k, level=2):
        return [u for u in true_enumerate(n, k, level) if u != gone]

    monkeypatch.setattr(suites_module, "enumerate_basis", leaky)
    reports = run_suite("dsq", SuiteConfig(max_arity=3, samples=0))
    assert all(r.passed for r in reports)
    assert reports[0].notes == ("7 elements",)


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
