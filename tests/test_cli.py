import hashlib
import json

import pytest

import cactusops.operad as operad_module
from cactusops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputationCommands:
    def test_boundary(self, capsys):
        code, out, _ = run(capsys, "boundary", "(1,2,1)")
        assert code == 0
        assert out == "-(1,2) +(2,1)\n"

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "3")
        assert code == 0
        assert out == "+(1,3,1,2) -(2,1,3,1)\n"

    def test_mu(self, capsys):
        code, out, _ = run(capsys, "mu", "bw")
        assert code == 0
        assert out == "+(1,3,1,2)\n"

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "(1,2)", "1", "(1,2)")
        assert code == 0
        assert out == "+(1,2,3)\n"

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "boundary", "(1,1,2)")
        assert code == 2
        assert "adjacent equal" in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_bad_word_exits_two(self, capsys):
        code, _, err = run(capsys, "mu", "wx")
        assert code == 2
        assert "w" in err


class TestCactiListing:
    def test_with_degree(self, capsys):
        code, out, _ = run(capsys, "cacti", "list", "2", "--degree", "1")
        assert code == 0
        assert out.splitlines() == ["(1,2,1)", "(2,1,2)"]

    def test_all_degrees(self, capsys):
        code, out, _ = run(capsys, "cacti", "list", "2")
        assert code == 0
        assert out.splitlines() == ["(1,2)", "(2,1)", "(1,2,1)", "(2,1,2)"]

    def test_prime(self, capsys):
        code, out, _ = run(capsys, "cacti", "list", "3", "--prime")
        assert code == 0
        assert out.splitlines() == ["(1,3,1,2)", "(2,1,3,1)"]

    def test_level(self, capsys):
        code, out, _ = run(capsys, "cacti", "list", "2", "--degree", "3", "--level", "4")
        assert code == 0
        assert out.splitlines() == ["(1,2,1,2,1)", "(2,1,2,1,2)"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["0"],
            ["-2"],
            ["3", "--level", "0"],
            ["3", "--level", "-4"],
            ["3", "--degree", "-1"],
        ],
    )
    def test_out_of_range_arguments_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "cacti", "list", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestRender:
    def test_stdout_dot(self, capsys):
        code, out, _ = run(capsys, "render", "(1,2,1)", "--format", "dot")
        assert code == 0
        assert "1 -> 2" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "cactus.svg"
        code, out, _ = run(capsys, "render", "2131", "--format", "svg", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("<?xml")

    def test_non_cactus_exits_two(self, capsys):
        code, _, err = run(capsys, "render", "(1,2,1,2)", "--format", "text")
        assert code == 2
        assert "pattern" in err


class TestVerify:
    def test_cprime_count_example(self, capsys):
        code, out, _ = run(capsys, "verify", "cprime-count", "--max-arity", "6")
        assert code == 0
        assert "counts 2,2,6,30,210" in out
        assert "FAIL" not in out

    def test_seed_echoed_and_deterministic(self, capsys):
        args = ("verify", "axioms", "--max-arity", "4", "--samples", "25", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed=9" in out1

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "golden-table", "--json", "--samples", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["suites"][0]["suite"] == "golden-table"
        assert all(r["pass"] for r in doc["suites"][0]["reports"])

    def test_every_failure_witness_has_one_shape(self, capsys, monkeypatch):
        true_boundary = operad_module.boundary_basis
        monkeypatch.setattr(operad_module, "boundary_basis", lambda u: -true_boundary(u))
        code, out, _ = run(
            capsys, "verify", "all", "--json", "--max-arity", "4", "--samples", "20"
        )
        assert code == 1
        failed = {
            r["check"]: r["witness"]
            for suite in json.loads(out)["suites"]
            for r in suite["reports"]
            if not r["pass"]
        }
        assert {"a2inf.morphism", "ainf.morphism"} <= set(failed)
        assert all(set(witness) == {"case", "witness"} for witness in failed.values())
        for check in ("a2inf.morphism", "ainf.morphism"):
            assert set(failed[check]["witness"]) == {"lhs", "rhs", "difference"}

    def test_failure_exits_one_with_witness(self, capsys, monkeypatch):
        from cactusops.reports import VerificationReport
        import cactusops.suites as suites_module

        monkeypatch.setitem(
            suites_module.SUITES,
            "golden-table",
            lambda cfg: [
                VerificationReport(check="golden", passed=False, witness={"word": "xx"})
            ],
        )
        code, out, _ = run(capsys, "verify", "golden-table")
        assert code == 1
        assert "FAIL" in out
        assert "witness" in out


class TestReportContract:
    """The JSON report is a reproducibility contract: pin its bytes."""

    def test_verify_all_json_digest(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all", "--json", "--max-arity", "4", "--samples", "50", "--seed", "0"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "0fdcb7b0996c013e0eb9421f06a6d721456acfeb7d7ec4430b8cf47daaac45bc"


class TestMutationSmoke:
    """verify all must go red under an injected sign error in the
    composition or the differential, and green without one."""

    ARGS = [
        "verify",
        "all",
        "--max-arity",
        "5",
        "--samples",
        "150",
        "--fail-fast",
    ]

    def test_clean_build_verifies(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert "FAIL" not in out

    def test_flipped_composition_detected(self, capsys, monkeypatch):
        true_compose = operad_module.compose_basis
        monkeypatch.setattr(
            operad_module,
            "compose_basis",
            lambda v, t, u: true_compose(v, t, u).scale(-1),
        )
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert "FAIL" in out

    def test_flipped_boundary_detected(self, capsys, monkeypatch):
        true_boundary = operad_module.boundary_basis
        monkeypatch.setattr(
            operad_module,
            "boundary_basis",
            lambda u: true_boundary(u).scale(-1),
        )
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert "FAIL" in out

    def test_dropped_koszul_rule_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(operad_module, "koszul_sign", lambda degrees, order: 1)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert "FAIL" in out
