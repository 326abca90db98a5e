"""Traced in-process run of one workload: spans and counts per layer.

The layers are the modules of ``cactusops``.  ``Tracer.install`` wraps the
public functions of each module (and the few private kernels that do a
layer's work behind a public name) and rebinds every module attribute that
held the original, so a call through ``from .operad import compose`` in
another module is traced too.  Each wrapper records a span (name, start,
end, parent span) in flat arrays and bumps counters; per-layer metrics are
derived from both once the run is over.

Run as a script, it executes one workload through ``cactusops.cli.main``
with its stdout hashed instead of printed, and prints a JSON object with
the output digest and the per-layer metrics:

    PYTHONPATH=src python3 perfbench/tracer.py --workload psi-9 --seed 0
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

from workloads import SUITES, WORKLOADS, OutputDigest

# Span names.  Self time is reported per span name; several functions that
# do one layer's work share a name.
COMPOSE = "operad.compose"
SPLITS = "operad.splits"
BOUNDARY_BASIS = "operad.boundary_basis"
ADD = "elements.add"
APPLY_LINEAR = "elements.apply_linear"
ELEMENT_STR = "elements.str"
WORD_IMAGE = "ainfty.word_image"
INSERTION = "ainfty.insertion"
A_INFINITY_IMAGE = "ainfty.a_infinity_image"
BOUNDARY_IMAGE = "ainfty.boundary_image"
ENUMERATE_BASIS = "cacti.enumerate_basis"
CACTUS_VIOLATION = "cacti.cactus_violation"
PRIME_CACTI = "cacti.prime_cacti"
SURJECTION_STR = "surjections.str"
CLI = "cli"


class Tracer:
    """Spans and counters recorded by wrappers around ``cactusops`` functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._seen_words: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name_id: int) -> None:
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.span_start))
        self.span_end.append(0.0)
        self.span_start.append(self.clock())

    def end(self) -> None:
        self.span_end[self._open.pop()] = self.clock()

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        idx = self.name_id(name)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            begin(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> None:
        """Point every ``cactusops`` module attribute holding ``original``
        at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cactusops" or mod_name.startswith("cactusops.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import cactusops.ainfty as ainfty
        import cactusops.cacti as cacti
        import cactusops.cli  # noqa: F401  (binds names that must be rebound)
        import cactusops.operad as operad
        import cactusops.suites as suites
        import cactusops.surjections as surjections
        from cactusops.elements import Element
        from cactusops.surjections import Surjection

        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        traced = self.traced

        def counted_result(name: str, fn: Callable, size_key: Optional[str] = None) -> Callable:
            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                counts[name + ".calls"] += 1
                if size_key:
                    counts[size_key] += len(result)
                return result

            inner = traced(name, fn)
            wrapper.__wrapped__ = fn
            return wrapper

        def called(key: str, fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        # operad: composition, its split generator, the basis differential.
        compose_wrapper = counted_result(COMPOSE, operad.compose, COMPOSE + ".terms_out")
        compose_basis_wrapper = counted_result(
            COMPOSE, operad.compose_basis, COMPOSE + ".terms_out"
        )
        splits_idx = self.name_id(SPLITS)
        begin, end = self.begin, self.end
        splits = operad.composition_splits

        def splits_wrapper(v, t, u):
            r = v.seq.count(t)
            if r:
                counts[SPLITS + ".attempted"] += math.comb(len(u.seq) + r - 2, r - 1)
            it = splits(v, t, u)
            while True:
                begin(splits_idx)
                try:
                    split = next(it)
                except StopIteration:
                    return
                finally:
                    end()
                counts[SPLITS + ".yielded"] += 1
                yield split

        splits_wrapper.__wrapped__ = splits

        boundary_wrapper = counted_result(
            BOUNDARY_BASIS, operad.boundary_basis, BOUNDARY_BASIS + ".terms_out"
        )

        # elements: accumulation by copying, linear extension, printing.
        add_inner = traced(ADD, Element.__add__)

        def add_wrapper(self_, other):
            counts[ADD + ".calls"] += 1
            counts[ADD + ".terms_copied"] += len(self_)
            return add_inner(self_, other)

        apply_inner = traced(APPLY_LINEAR, Element.apply_linear)

        def apply_linear_wrapper(self_, f):
            def counted_f(u):
                image = f(u)
                counts[APPLY_LINEAR + ".terms_in"] += len(image)
                return image

            result = apply_inner(self_, counted_f)
            counts[APPLY_LINEAR + ".terms_out"] += len(result)
            return result

        # ainfty: word images and the insertion kernel behind them.
        word_image_inner = traced(WORD_IMAGE, ainfty.word_image)
        seen = self._seen_words

        def word_image_wrapper(word):
            key = word if isinstance(word, str) else getattr(word, "letters", word)
            counts[WORD_IMAGE + ".calls"] += 1
            if key in seen:
                counts[WORD_IMAGE + ".hits"] += 1
            else:
                seen.add(key)
            return word_image_inner(word)

        word_image_wrapper.__wrapped__ = ainfty.word_image

        run_suite = suites.run_suite

        def run_suite_wrapper(name, cfg):
            begin(self.name_id("suites." + name))
            try:
                return run_suite(name, cfg)
            finally:
                end()

        rebinds = [
            (operad.compose, compose_wrapper),
            (operad.compose_basis, compose_basis_wrapper),
            (operad.composition_splits, splits_wrapper),
            (operad.boundary_basis, boundary_wrapper),
            (ainfty.word_image, word_image_wrapper),
            (ainfty.white_op, traced(INSERTION, ainfty.white_op)),
            (ainfty.black_op, traced(INSERTION, ainfty.black_op)),
            (ainfty._insertion_half, traced(INSERTION, ainfty._insertion_half)),
            (
                ainfty.a_infinity_image,
                counted_result(
                    A_INFINITY_IMAGE, ainfty.a_infinity_image, A_INFINITY_IMAGE + ".terms_out"
                ),
            ),
            (ainfty.word_boundary_image, traced(BOUNDARY_IMAGE, ainfty.word_boundary_image)),
            (
                ainfty.a_infinity_boundary_image,
                traced(BOUNDARY_IMAGE, ainfty.a_infinity_boundary_image),
            ),
            (
                cacti.enumerate_basis,
                counted_result(
                    ENUMERATE_BASIS, cacti.enumerate_basis, ENUMERATE_BASIS + ".elements_out"
                ),
            ),
            (cacti.cactus_violation, counted_result(CACTUS_VIOLATION, cacti.cactus_violation)),
            (cacti.prime_cacti, traced(PRIME_CACTI, cacti.prime_cacti)),
            (
                surjections.recurrence_prefix,
                called("surjections.recurrence_prefix.calls", surjections.recurrence_prefix),
            ),
            (
                surjections.insert_top_lobe,
                called("surjections.insert_top_lobe.calls", surjections.insert_top_lobe),
            ),
            (run_suite, run_suite_wrapper),
        ]
        try:
            for original, wrapper in rebinds:
                self._rebind(original, wrapper)
            self._patch_method(Element, "__add__", add_wrapper)
            self._patch_method(Element, "apply_linear", apply_linear_wrapper)
            self._patch_method(Element, "__str__", traced(ELEMENT_STR, Element.__str__))
            self._patch_method(Surjection, "__str__", traced(SURJECTION_STR, Surjection.__str__))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- metrics -------------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (self time, total time).

        A span's self time is its duration minus the durations of its
        direct children.
        """
        if self._open:
            raise RuntimeError("spans still open")
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                own[p] -= dur[i]
        self_time: dict[str, float] = {}
        total: dict[str, float] = {}
        names = self.span_name
        for i in range(n):
            name = self.names[names[i]]
            self_time[name] = self_time.get(name, 0.0) + own[i]
            total[name] = total.get(name, 0.0) + dur[i]
        return self_time, total

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, as the names in BENCHMARK.json give them.

        Ratios whose base is zero (the layer never ran) read 0.
        """
        own, total = self.span_times()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "operad.compose.calls": c[COMPOSE + ".calls"],
            "operad.compose.self_s": own.get(COMPOSE, 0.0),
            "operad.compose.terms_out": c[COMPOSE + ".terms_out"],
            "operad.splits.attempted": c[SPLITS + ".attempted"],
            "operad.splits.yielded": c[SPLITS + ".yielded"],
            "operad.splits.useful_ratio": ratio(c[SPLITS + ".yielded"], c[SPLITS + ".attempted"]),
            "operad.splits.self_s": own.get(SPLITS, 0.0),
            "operad.compose.cancel_ratio": ratio(
                c[COMPOSE + ".terms_out"], c[SPLITS + ".yielded"]
            ),
            "operad.boundary_basis.calls": c[BOUNDARY_BASIS + ".calls"],
            "operad.boundary_basis.self_s": own.get(BOUNDARY_BASIS, 0.0),
            "operad.boundary_basis.terms_out": c[BOUNDARY_BASIS + ".terms_out"],
            "elements.add.calls": c[ADD + ".calls"],
            "elements.add.terms_copied": c[ADD + ".terms_copied"],
            "elements.add.self_s": own.get(ADD, 0.0),
            "elements.apply_linear.self_s": own.get(APPLY_LINEAR, 0.0),
            "elements.apply_linear.cancel_ratio": ratio(
                c[APPLY_LINEAR + ".terms_out"], c[APPLY_LINEAR + ".terms_in"]
            ),
            "elements.str.self_s": own.get(ELEMENT_STR, 0.0),
            "ainfty.word_image.calls": c[WORD_IMAGE + ".calls"],
            "ainfty.word_image.hit_ratio": ratio(c[WORD_IMAGE + ".hits"], c[WORD_IMAGE + ".calls"]),
            "ainfty.insertion.self_s": own.get(INSERTION, 0.0),
            "ainfty.a_infinity_image.calls": c[A_INFINITY_IMAGE + ".calls"],
            "ainfty.a_infinity_image.self_s": own.get(A_INFINITY_IMAGE, 0.0),
            "ainfty.a_infinity_image.terms_out": c[A_INFINITY_IMAGE + ".terms_out"],
            "ainfty.boundary_image.self_s": own.get(BOUNDARY_IMAGE, 0.0),
            "cacti.enumerate_basis.calls": c[ENUMERATE_BASIS + ".calls"],
            "cacti.enumerate_basis.self_s": own.get(ENUMERATE_BASIS, 0.0),
            "cacti.enumerate_basis.elements_out": c[ENUMERATE_BASIS + ".elements_out"],
            "cacti.enumerate_basis.us_per_element": 1e6
            * ratio(own.get(ENUMERATE_BASIS, 0.0), c[ENUMERATE_BASIS + ".elements_out"]),
            "cacti.cactus_violation.calls": c[CACTUS_VIOLATION + ".calls"],
            "cacti.cactus_violation.self_s": own.get(CACTUS_VIOLATION, 0.0),
            "cacti.prime_cacti.self_s": own.get(PRIME_CACTI, 0.0),
            "surjections.recurrence_prefix.calls": c["surjections.recurrence_prefix.calls"],
            "surjections.insert_top_lobe.calls": c["surjections.insert_top_lobe.calls"],
            "surjections.str.self_s": own.get(SURJECTION_STR, 0.0),
        }
        for suite in SUITES:
            out[f"suites.{suite}.wall_s"] = total.get("suites." + suite, 0.0)
        out["cli.total_s"] = total.get(CLI, 0.0)
        out["trace.spans"] = len(self.span_start)
        return out


def traced_main(tracer: Tracer, argv: list[str]) -> tuple[int, OutputDigest]:
    """Run ``cactusops.cli.main(argv)`` under ``tracer``, digesting stdout."""
    from cactusops import cli

    digest = OutputDigest()
    out = io.TextIOWrapper(digest, encoding="utf-8", newline="\n", write_through=False)
    saved = sys.stdout
    sys.stdout = out
    try:
        with tracer:
            tracer.begin(tracer.name_id(CLI))
            try:
                code = cli.main(argv)
            finally:
                tracer.end()
        out.flush()
    finally:
        sys.stdout = saved
    return code, digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    code, digest = traced_main(tracer, WORKLOADS[args.workload].argv(args.seed))
    t0 = time.perf_counter()
    metrics = tracer.metrics()
    doc = {
        "exit_code": code,
        "output": digest.summary(),
        "metrics": metrics,
        "post_s": time.perf_counter() - t0,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
