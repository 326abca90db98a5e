"""Seeded verification suites behind the ``verify`` command.

Each suite is a pure function from a SuiteConfig to a list of reports;
random checks derive their generator from the seed and the check name, so
identical configurations reproduce identical output byte for byte.
Every report folds a list of per-case reports; a failing one carries its
first failing case as witness, ``{"case": <case check>, "witness": ...}``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .ainfty import (
    _check_image_size,
    a_infinity_boundary_image,
    a_infinity_image,
    all_words,
    check_insertion_composition,
    check_top_insertion_identities,
    check_word_boundary_compat,
    prime_cacti_count,
    word_boundary_image,
    word_image,
)
from .cacti import (
    _check_prime_length,
    enumerate_basis,
    is_cactus,
    prime_cacti,
    prime_cacti_filtered,
)
from .elements import Element
from .errors import _check_count
from .formats import element_from_json
from .operad import boundary, boundary_basis, check_derivation, check_operad_axioms, compose
from .reports import VerificationReport, equality_report
from .surjections import Surjection

__all__ = ["SuiteConfig", "SUITE_NAMES", "default_max_arity", "run_suite", "run_suites"]


@dataclass(frozen=True)
class SuiteConfig:
    max_arity: int = 6
    samples: int = 1000
    seed: int = 0
    fail_fast: bool = False

    def __post_init__(self):
        _check_count(self.max_arity, 2, "max_arity ", "max_arity must be at least 2")
        _check_count(self.samples, 0, "samples ", "samples must be non-negative")


def default_max_arity(suite: str) -> int:
    # The support/count suite reaches one arity further by default; the
    # others stay at 6 because the bytes of the default ``verify all
    # --json`` are pinned, not for time: ``--max-arity 7`` runs in seconds.
    return 7 if suite == "cprime-count" else 6


def _rng(cfg: SuiteConfig, label: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{label}")


def _random_surjection(rng: random.Random, n: int, length: int) -> Surjection:
    for _ in range(100_000):
        seq = [rng.randint(1, n)]
        while len(seq) < length:
            v = rng.randint(1, n - 1)
            if v >= seq[-1]:
                v += 1
            seq.append(v)
        if len(set(seq)) == n:
            return Surjection._unchecked(tuple(seq), n, length - n)
    raise RuntimeError(f"could not sample a surjection with n={n}, length={length}")


def _cactus_pool(max_arity: int) -> tuple[Surjection, ...]:
    """The stage-2 cacti of arity 2..min(max_arity, 4), every degree, that
    the random law suites draw from; built afresh by each suite."""
    return tuple(
        u
        for n in range(2, min(max_arity, 4) + 1)
        for k in range(n)
        for u in enumerate_basis(n, k, level=2)
    )


def _report(check: str, cases: list[VerificationReport], detail: str) -> VerificationReport:
    """Fold per-case reports into one; its witness is the first failing case."""
    failed = next((r for r in cases if not r.passed), None)
    return VerificationReport(
        check=check,
        passed=failed is None,
        witness=None if failed is None else {"case": failed.check, "witness": failed.witness},
        notes=(detail,),
    )


def _dsq_case(u: Surjection) -> VerificationReport:
    return equality_report(f"dsq[{u}]", boundary(boundary_basis(u)), Element.zero())


def run_dsq(cfg: SuiteConfig) -> list[VerificationReport]:
    reports = []
    for n in range(2, min(cfg.max_arity, 5) + 1):
        cases = [
            _dsq_case(u)
            for k in range(0, (3 if n <= 4 else 2) + 1)
            for u in enumerate_basis(n, k, level=None)
        ]
        reports.append(_report(f"dsq.exhaustive-arity-{n}", cases, f"{len(cases)} elements"))
    rng = _rng(cfg, "dsq")
    cases = []
    for _ in range(cfg.samples):
        n = rng.randint(2, 6)
        cases.append(_dsq_case(_random_surjection(rng, n, rng.randint(n, 12))))
    reports.append(_report("dsq.random", cases, f"{cfg.samples} samples, length <= 12"))
    return reports


def run_axioms(cfg: SuiteConfig) -> list[VerificationReport]:
    rng = _rng(cfg, "axioms")
    pool = _cactus_pool(cfg.max_arity)
    cases = []
    for _ in range(cfg.samples):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        i = rng.randint(1, a.arity)
        cases.append(check_operad_axioms(a, i, b, rng.randint(1, a.arity + b.arity - 1), c))
    rel1, rel2 = (
        sum(f"relation{m}: not applicable" not in r.notes for r in cases) for m in (1, 2)
    )
    detail = f"{cfg.samples} triples (relation1: {rel1}, relation2: {rel2})"
    return [_report("axioms.random", cases, detail)]


def run_derivation(cfg: SuiteConfig) -> list[VerificationReport]:
    rng = _rng(cfg, "derivation")
    pool = _cactus_pool(cfg.max_arity)
    cases = []
    for _ in range(cfg.samples):
        a, b = rng.choice(pool), rng.choice(pool)
        cases.append(check_derivation(a, rng.randint(1, a.arity), b))
    return [_report("derivation.random", cases, f"{cfg.samples} pairs")]


def _closure_case(check: str, image: Element) -> VerificationReport:
    """Every term of image is a cactus; the witness lists those that are not."""
    outside = [str(w) for w in image.support() if not is_cactus(w)]
    return VerificationReport(check=check, passed=not outside, witness=outside or None)


def run_f2_closure(cfg: SuiteConfig) -> list[VerificationReport]:
    rng = _rng(cfg, "f2-closure")
    pool = _cactus_pool(cfg.max_arity)
    composed, bounded = [], []
    for _ in range(cfg.samples):
        v, u = rng.choice(pool), rng.choice(pool)
        t = rng.randint(1, v.arity)
        composed.append(_closure_case(f"compose[{v},{t},{u}]", compose(v, t, u)))
        bounded.append(_closure_case(f"boundary[{u}]", boundary_basis(u)))
    return [
        _report("f2-closure.compose", composed, f"{cfg.samples} compositions"),
        _report("f2-closure.boundary", bounded, f"{cfg.samples} boundaries"),
    ]


def run_bncomp(cfg: SuiteConfig) -> list[VerificationReport]:
    reports = []
    for n in range(2, min(cfg.max_arity, 6) + 1):
        cases = [check_top_insertion_identities(u) for u in prime_cacti(n)]
        reports.append(_report(f"bncomp.prime-arity-{n}", cases, f"{len(cases)} elements"))
    return reports


def run_bncomp2(cfg: SuiteConfig) -> list[VerificationReport]:
    rng = _rng(cfg, "bncomp2")
    pool = [u for u in _cactus_pool(cfg.max_arity) if u.seq.count(u.arity) == 1]
    cases = []
    for _ in range(cfg.samples):
        u1, u2 = rng.choice(pool), rng.choice(pool)
        cases.append(check_insertion_composition(u1, rng.randint(1, u1.arity), u2))
    return [_report("bncomp2.random", cases, f"{cfg.samples} eligible pairs")]


def _words(cfg: SuiteConfig) -> list[str]:
    """Every generator word of arity 2..max_arity."""
    return [word for n in range(2, cfg.max_arity + 1) for word in all_words(n)]


def run_mupartial(cfg: SuiteConfig) -> list[VerificationReport]:
    cases = [check_word_boundary_compat(word) for word in _words(cfg)]
    return [_report("mupartial.words", cases, f"{len(cases)} words")]


def run_a2inf(cfg: SuiteConfig) -> list[VerificationReport]:
    cases = [
        equality_report(f"a2inf[{word}]", boundary(word_image(word)), word_boundary_image(word))
        for word in _words(cfg)
    ]
    return [_report("a2inf.morphism", cases, f"{len(cases)} words")]


def run_ainf(cfg: SuiteConfig) -> list[VerificationReport]:
    # Arity 2 has no splice, so d(psi_2) = 0 is checked only when it is all
    # that max_arity leaves.
    low = min(3, cfg.max_arity)
    cases = [
        equality_report(
            f"ainf[arity={n}]", boundary(a_infinity_image(n)), a_infinity_boundary_image(n)
        )
        for n in range(low, cfg.max_arity + 1)
    ]
    return [_report("ainf.morphism", cases, f"arity {low}..{cfg.max_arity}")]


def run_cprime_count(cfg: SuiteConfig) -> list[VerificationReport]:
    top = min(cfg.max_arity, 6)
    counts, count_cases, filter_cases, support_cases = [], [], [], []
    for n in range(2, cfg.max_arity + 1):
        psi = a_infinity_image(n)
        counts.append(len(psi))
        count_cases.append(equality_report(f"count[arity={n}]", len(psi), prime_cacti_count(n)))
        # summed through the constructor, so a duplicate shows as coefficient 2
        oracle = Element((u, 1) for u in prime_cacti_filtered(n))
        if n <= top:
            support = Element._trusted(dict.fromkeys(psi._terms, 1))
            filter_cases.append(equality_report(f"filter-oracle[arity={n}]", support, oracle))
        # the support of psi_n is the labelled prime cacti, every coefficient +-1
        unsigned = Element._trusted({key: abs(c) for key, c in psi._terms.items()})
        support_cases.append(equality_report(f"structure-support[arity={n}]", unsigned, oracle))
    return [
        _report("cprime.count", count_cases, "counts " + ",".join(map(str, counts))),
        _report("cprime.filter-oracle", filter_cases, f"arity 2..{top}"),
        _report("cprime.structure-support", support_cases, f"arity 2..{cfg.max_arity}"),
    ]


def load_golden_table() -> list[tuple[str, Element]]:
    doc = json.loads(
        resources.files("cactusops.data").joinpath("golden_table.json").read_text()
    )
    return [(row["word"], element_from_json(row)) for row in doc["rows"]]


def run_golden_table(cfg: SuiteConfig) -> list[VerificationReport]:
    cases = [
        equality_report(f"golden-table[{word}]", word_image(word), expected)
        for word, expected in load_golden_table()
    ]
    return [_report("golden-table.rows", cases, f"{len(cases)} rows")]


SUITES: dict[str, Callable[[SuiteConfig], list[VerificationReport]]] = {
    "dsq": run_dsq,
    "axioms": run_axioms,
    "derivation": run_derivation,
    "f2-closure": run_f2_closure,
    "bncomp": run_bncomp,
    "bncomp2": run_bncomp2,
    "mupartial": run_mupartial,
    "a2inf": run_a2inf,
    "ainf": run_ainf,
    "cprime-count": run_cprime_count,
    "golden-table": run_golden_table,
}

SUITE_NAMES = list(SUITES)


# How far above --max-arity reach the structure maps a suite builds, or
# what has as many terms: the word images of one arity, which partition
# it, and the prime cacti, its support.  The other suites build nothing
# above arity 6.
_IMAGE_ARITY_ABOVE_MAX = {
    "mupartial": 1,  # each word is checked through the images of xw and xb
    "a2inf": 0,
    "ainf": 0,  # and the differential of psi_n, bounded by its deletions
    "cprime-count": 0,
}


def _check_suite_size(name: str, cfg: SuiteConfig) -> None:
    """Refuse, before any work, a suite whose images exceed the bound, or
    whose prime cacti exceed the length cap."""
    if name in _IMAGE_ARITY_ABOVE_MAX:
        arity = cfg.max_arity + _IMAGE_ARITY_ABOVE_MAX[name]
        _check_image_size(arity, differential=name == "ainf")
    if name == "cprime-count":
        _check_prime_length(cfg.max_arity)


def run_suite(name: str, cfg: SuiteConfig) -> list[VerificationReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)}")
    _check_suite_size(name, cfg)
    return SUITES[name](cfg)


def run_suites(names: list[str], cfg_for: Callable[[str], SuiteConfig]) -> list[tuple[str, SuiteConfig, list[VerificationReport]]]:
    """Run several suites, honoring fail_fast across suite boundaries.

    Every suite's size bound is checked before the first suite runs.
    """
    configs = [(name, cfg_for(name)) for name in names]
    for name, cfg in configs:
        _check_suite_size(name, cfg)
    results = []
    for name, cfg in configs:
        reports = run_suite(name, cfg)
        results.append((name, cfg, reports))
        if cfg.fail_fast and any(not r.passed for r in reports):
            break
    return results
