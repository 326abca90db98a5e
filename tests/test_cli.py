import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cactusops
import cactusops.cli as cli_module
import cactusops.operad as operad_module
from cactusops.cli import main
from conftest import word_image_sum


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

    def test_psi_prints_the_image_in_chunks(self, capsys):
        from cactusops.ainfty import PSI_CHUNK

        assert cactusops.prime_cacti_count(8) > 3 * PSI_CHUNK  # psi_8 spans several chunks
        for n in range(2, 9):
            code, out, _ = run(capsys, "psi", str(n))
            assert code == 0
            assert out == str(word_image_sum(n)) + "\n", n
            assert out[:-1] == str(cactusops.a_infinity_image(n)), n

    def test_psi_never_builds_the_image_it_prints(self, capsys, monkeypatch):
        # psi N is walked up from psi_2: no psi_k is built as a dict.
        import cactusops.ainfty as ainfty_module

        expected = str(word_image_sum(7)) + "\n"

        def no_dict(*args):
            raise AssertionError("psi built a structure map as a dict")

        for name in ("a_infinity_image", "_insertion_half"):
            monkeypatch.setattr(ainfty_module, name, no_dict)
        monkeypatch.setattr(cli_module, "a_infinity_image", no_dict, raising=False)
        code, out, _ = run(capsys, "psi", "7")
        assert code == 0
        assert out == expected

    def test_mu(self, capsys):
        code, out, _ = run(capsys, "mu", "bw")
        assert code == 0
        assert out == "+(1,3,1,2)\n"

    @pytest.mark.parametrize("word, arity", [("wbwbwbwbwb", 11), ("wbwbwbwbwbw", 12)])
    def test_mu_above_size_bound_exits_two_before_work(self, capsys, monkeypatch, word, arity):
        # The images of the arity-n words partition psi_n, so a word is
        # refused when psi_n would be, before any insertion.
        import cactusops.ainfty as ainfty_module
        from cactusops.ainfty import prime_cacti_count

        def no_work(*args):
            raise AssertionError("work started before the size bound was checked")

        monkeypatch.setattr(ainfty_module, "_insertion_half", no_work)
        code, out, err = run(capsys, "mu", word)
        assert code == 2
        assert out == ""
        assert f"arity {arity}:" in err and f"{prime_cacti_count(arity)} terms" in err

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "(1,2)", "1", "(1,2)")
        assert code == 0
        assert out == "+(1,2,3)\n"

    def test_value_above_the_key_limit_exits_two(self, capsys, monkeypatch):
        # A term key holds values up to sys.maxunicode.  The text of this
        # surjection is 7.8 MB, which the parser reads in seconds and
        # hundreds of MB, so the parser hands the surjection over instead.
        big = cactusops.Surjection(range(1, sys.maxunicode + 2))
        parse = cli_module.parse_element
        monkeypatch.setattr(
            cli_module, "parse_element", lambda text: big if text == "BIG" else parse(text)
        )
        for argv in (("compose", "(1,2)", "1", "BIG"), ("boundary", "BIG")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert f"value {sys.maxunicode + 1} is above {sys.maxunicode}" in err

    def test_compose_lobe_out_of_range_with_zero_right_operand(self, capsys):
        code, out, err = run(capsys, "compose", "+(1,2)", "3", "0")
        assert code == 2
        assert out == ""
        assert "lobe 3 not in 1..2" in err

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

    def test_psi_above_size_bound_exits_two_before_work(self, capsys, monkeypatch):
        # |psi_11| = 2 * 17!! = 68,918,850 terms is refused before any insertion.
        import cactusops.ainfty as ainfty_module

        def no_work(*args):
            raise AssertionError("work started before the size bound was checked")

        for name in (
            "_insertion_half",
            "_insertion_row",
            "_prefix_walk",
            "_position_insertions",
            "_row_insertions",
            "_blocks",
        ):
            monkeypatch.setattr(ainfty_module, name, no_work)
        monkeypatch.setattr(cli_module, "_block_str", no_work)
        code, out, err = run(capsys, "psi", "11")
        assert code == 2
        assert out == ""
        assert "arity 11" in err and "68918850" in err

    @pytest.mark.parametrize(
        "suite, max_arity, arity, counted",
        [
            ("ainf", 10, 10, 11),
            ("ainf", 11, 11, 12),
            ("a2inf", 11, 11, 11),
            ("mupartial", 10, 11, 11),
            ("mupartial", 40, 41, 41),
            ("cprime-count", 11, 11, 11),
        ],
        ids=["ainf-10", "ainf-11", "a2inf-11", "mupartial-10", "mupartial-40", "cprime-count-11"],
    )
    def test_verify_above_bound_exits_two_before_work(
        self, capsys, monkeypatch, suite, max_arity, arity, counted
    ):
        # mupartial checks each word through the images one arity up.  ainf
        # is bounded by the deletions of psi_n, (2n-3) * 2(2n-5)!!, which
        # is the prime cacti count one arity up.
        import cactusops.suites as suites_module
        from cactusops.ainfty import prime_cacti_count

        def no_work(*args):
            raise AssertionError("work started before the size bound was checked")

        for name in ("a_infinity_image", "boundary", "word_image", "all_words", "prime_cacti"):
            monkeypatch.setattr(suites_module, name, no_work)
        code, out, err = run(capsys, "verify", suite, "--max-arity", str(max_arity))
        assert code == 2
        assert out == ""
        assert f"arity {arity}:" in err and f"{prime_cacti_count(counted)} terms" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_verify_all_checks_every_bound_before_any_suite(self, capsys, monkeypatch, flags):
        # At --max-arity 10 mupartial, which reaches arity 11, is the first
        # suite over the bound; it runs seventh, yet no suite may run first.
        # At --max-arity 9 every structure map is within the bound, but the
        # prime cacti that cprime-count lists, the last suite but one, have
        # length 16, over the default cap of 14.
        import cactusops.suites as suites_module

        def no_work(*args):
            raise AssertionError("a suite ran before every size bound was checked")

        monkeypatch.setattr(suites_module, "run_suite", no_work)
        monkeypatch.delenv("CACTUS_MAX_LEN", raising=False)
        for max_arity, message in (
            ("10", "arity 11: .* 68918850 terms"),
            ("9", "length 16 exceeds cap 14"),
        ):
            code, out, err = run(capsys, "verify", "all", "--max-arity", max_arity, *flags)
            assert code == 2
            assert out == ""
            assert re.search(message, err), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "10000000"],
            ["psi", "1800"],
            ["verify", "all", "--max-arity", "1800"],
            ["mu", "w" * 2000],
        ],
        ids=["psi-10000000", "psi-1800", "verify-all-1800", "mu-2000-letters"],
    )
    def test_huge_arity_is_refused_in_bounded_work(self, capsys, argv):
        # 2(2n-5)!! is counted only until it passes the bound's message cap,
        # and never printed past it.  A budget of traced lines, not a timer,
        # stops a size check that multiplies out every factor.
        lines = 0

        def budget(frame, event, arg):
            nonlocal lines
            lines += 1
            if lines > 200_000:
                raise AssertionError("the size check did unbounded work")
            return budget

        sys.settrace(budget)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.settrace(None)
        assert (code, out) == (2, "")
        assert "the structure map has over 10**100 terms, more than the bound" in err

    def test_long_coefficients_print_exactly(self, capsys):
        # (10**3000 - 1)**2 has 6,000 digits, past str()'s default limit of 4,300.
        nines = "+" + "9" * 3000 + "*(1,2)"
        code, out, err = run(capsys, "compose", nines, "1", nines)
        assert (code, err) == (0, "")
        assert out == "+" + "9" * 2999 + "8" + "0" * 2999 + "1" + "*(1,2,3)\n"


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [["psi", "3"], ["psi", "9"], ["cacti", "list", "6"], ["verify", "golden-table"]],
        ids=["psi-3", "psi-9", "cacti-list-6", "verify-golden-table"],
    )
    def test_closed_stdout_exits_two_without_traceback(self, argv):
        # A reader that has gone is output that cannot be written (exit 2),
        # not a failed check (exit 1).  The read end is closed before the
        # command starts, so its first write fails: for psi 3 that is the
        # last flush of stdout.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(cactusops.__file__).resolve().parents[1]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cactusops", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")


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
        code, out, _ = run(capsys, "cacti", "list", "3", "--prime", "--degree", "1", "--level", "2")
        assert code == 0
        assert out.splitlines() == ["(1,3,1,2)", "(2,1,3,1)"]

    @pytest.mark.parametrize("flags", [["--degree", "5"], ["--degree", "0"], ["--level", "3"]])
    def test_prime_rejects_other_degree_or_level(self, capsys, flags):
        code, out, err = run(capsys, "cacti", "list", "3", "--prime", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --prime")

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


    def test_length_cap_of_too_many_digits_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("CACTUS_MAX_LEN", "9" * 4400)
        code, out, err = run(capsys, "cacti", "list", "3")
        assert (code, out) == (2, "")
        message = err.rstrip("\n")
        assert message.startswith("error: CACTUS_MAX_LEN=") and len(message) <= 100


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

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "render", "2131", "--format", "text", "-o", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

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
        # Every differential, of a basis term or of a whole element, streams
        # through the one per-sequence deletion generator; flip its signs.
        true_deletions = operad_module._deletions
        monkeypatch.setattr(
            operad_module,
            "_deletions",
            lambda seq: ((w, -sign) for w, sign in true_deletions(seq)),
        )
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

    def test_ainf_at_max_arity_two_checks_arity_two(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "ainf", "--max-arity", "2")
        assert code == 0
        assert out.splitlines()[1:] == ["PASS ainf.morphism (arity 2..2)"]
        # A wrong splice sum in arity 2 must turn the check red.
        import cactusops.suites as suites_module

        psi2 = suites_module.a_infinity_image(2)
        monkeypatch.setattr(suites_module, "a_infinity_boundary_image", lambda n: psi2)
        code, out, _ = run(capsys, "verify", "ainf", "--max-arity", "2")
        assert code == 1
        assert "FAIL ainf.morphism" in out


class TestReadmeExamples:
    """Every ``$ cactusops ...`` line of README.md's sh blocks prints the
    lines that follow it there."""

    @staticmethod
    def examples():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        out = []
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
            printed = None
            for line in block.splitlines():
                if line.startswith("$ "):
                    printed = []
                    out.append((line, printed))
                elif printed is not None:
                    printed.append(line)
        return out

    def test_examples_print_what_the_readme_shows(self, capsys):
        examples = self.examples()
        assert examples and all(line.startswith("$ cactusops ") for line, _ in examples)
        printed = []
        for line, _ in examples:
            code, out, err = run(capsys, *shlex.split(line, comments=True)[2:])
            printed.append((line, out.splitlines() if code == 0 else [f"exit {code}: {err}"]))
        assert printed == examples


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
    composition, the differential or the insertions, and green without one;
    verify cprime-count must go red under a filter oracle that keeps too much."""

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
        # A zero mask of outer suffix parities makes the sign of every split +1.
        true_init = operad_module._Outer.__init__

        def mutant(self, vkey, t, n_inner):
            true_init(self, vkey, t, n_inner)
            self.mask = 0

        monkeypatch.setattr(operad_module._Outer, "__init__", mutant)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert "FAIL" in out

    def test_dropped_inner_koszul_rule_detected(self, capsys, monkeypatch):
        # A zero recurrence prefix gives every inner stretch even degree, so
        # the sign of every split is +1 whatever the outer parities.
        monkeypatch.setattr(operad_module, "recurrence_prefix", lambda seq: [0] * (len(seq) + 1))
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert "FAIL" in out

    def test_flipped_insertion_sign_detected(self, capsys, monkeypatch):
        # Toggle the sign of every insertion at the first position.  Word and
        # structure images are memoized, so build them afresh under the
        # mutant and drop them afterwards.
        import cactusops.ainfty as ainfty_module

        true_row = ainfty_module._insertion_row

        def mutant(seq):
            top, flips = true_row(seq)
            return top, flips ^ 1

        monkeypatch.setattr(ainfty_module, "_insertion_row", mutant)
        caches = (ainfty_module.word_image, ainfty_module.a_infinity_image)
        for f in caches:
            f.cache_clear()
        try:
            code, out, _ = run(capsys, *self.ARGS)
        finally:
            for f in caches:
                f.cache_clear()
        assert code == 1
        assert "FAIL" in out

    def test_gap_one_filter_oracle_detected(self, capsys, monkeypatch):
        # A filter oracle that lets label(x) + 1 into the window of x keeps
        # the (i, i+1, i) patterns too, such as (1,2,1,3) at arity 3.
        import cactusops.suites as suites_module
        from cactusops.cacti import _sequences

        code, out, _ = run(capsys, "verify", "cprime-count")
        assert code == 0
        assert "PASS cprime.filter-oracle" in out

        def gap_one(seq):
            last = {v: p for p, v in enumerate(seq)}
            return all(min(seq[seq.index(x) : p + 1]) == x for x, p in last.items())

        def mutant(n):
            stage = _sequences(n, 2 * n - 2, 2)
            return sorted(cactusops.Surjection(seq) for seq in stage if gap_one(seq))

        monkeypatch.setattr(suites_module, "prime_cacti_filtered", mutant)
        code, out, _ = run(capsys, "verify", "cprime-count")
        assert code == 1
        assert "FAIL cprime.filter-oracle" in out

    def test_support_checked_against_the_filter_oracle_above_its_cap(self, capsys, monkeypatch):
        # The filter-oracle row stops at arity 6; at arity 7 only the
        # structure-support row compares psi with the labelling route.
        import cactusops.suites as suites_module

        labelled = suites_module.prime_cacti_filtered

        def mutant(n):
            return labelled(n)[:-1] if n == 7 else labelled(n)

        monkeypatch.setattr(suites_module, "prime_cacti_filtered", mutant)
        code, out, _ = run(capsys, "verify", "cprime-count")
        assert code == 1
        assert "FAIL cprime.structure-support" in out
        assert "PASS cprime.filter-oracle" in out
