"""Self-test of the benchmark's tracer on small inputs.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import cactusops  # noqa: E402
from cactusops import ainfty, cli, operad, suites  # noqa: E402
from cactusops.elements import Element  # noqa: E402
from tracer import Tracer, traced_main  # noqa: E402


def cactusops_modules():
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "cactusops" or name.startswith("cactusops."))
    ]


def test_split_count_matches_generator():
    a, b = ainfty.a_infinity_image(4), ainfty.a_infinity_image(3)
    want = sum(
        len(list(operad.composition_splits(u1, 2, u2))) for u1, _ in a.terms() for u2, _ in b.terms()
    )
    tracer = Tracer()
    with tracer:
        result = operad.compose(a, 2, b)
    metrics = tracer.metrics()
    assert want > 0
    assert metrics["operad.splits.yielded"] == want
    assert metrics["operad.splits.attempted"] >= want
    assert metrics["operad.compose.calls"] == 1
    assert metrics["operad.compose.terms_out"] == len(result)
    assert result == operad.compose(a, 2, b)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--json", "--max-arity", "3", "--samples", "3", "--seed", "5"],
        ["psi", "5"],
        ["cacti", "list", "4"],
        ["verify", "ainf", "--max-arity", "5"],
    ],
)
def test_traced_stdout_is_byte_identical(argv):
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        plain_code = cli.main(argv)
    code, digest = traced_main(Tracer(), argv)
    want = plain.getvalue().encode("utf-8")
    assert code == plain_code == 0
    assert digest.summary()["sha256"] == hashlib.sha256(want).hexdigest()
    assert digest.summary()["lines"] == want.count(b"\n")


def test_every_binding_is_patched_and_restored():
    compose = operad.compose
    holders = [operad, ainfty, suites, cli, cactusops]
    assert all(mod.compose is compose for mod in holders)
    add, element_str = Element.__add__, Element.__str__
    tracer = Tracer()
    with tracer:
        originals = [original for _, _, original in tracer._patches]
        for mod in cactusops_modules():
            for attr, value in vars(mod).items():
                assert not any(value is o for o in originals), f"{mod.__name__}.{attr} unpatched"
        assert all(mod.compose is not compose for mod in holders)
        assert Element.__add__ is not add and Element.__str__ is not element_str
    assert all(mod.compose is compose for mod in holders)
    assert Element.__add__ is add and Element.__str__ is element_str


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.begin(outer)  # 0
    tracer.begin(inner)  # 1
    tracer.end()  # 3
    tracer.begin(inner)  # 4
    tracer.end()  # 6
    tracer.end()  # 10
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert tracer.span_times() == ({"outer": 6.0, "inner": 4.0}, {"outer": 10.0, "inner": 4.0})
