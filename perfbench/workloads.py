"""The benchmark's workloads, their reference outputs and the pinned child
environment.

Each workload is one ``cactusops`` command.  Only ``verify-all`` takes the
benchmark seed; the other three are exhaustive.  Reference digests were
taken at the commit that introduced the benchmark and live in
``reference.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The suites of ``verify all``; one ``suites.<name>.wall_s`` metric each.
SUITES = (
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
)

# Output kept in memory for checks that parse it (the verify-all report is
# about 20 KB; the long listings are only hashed and counted).
HEAD_LIMIT = 1 << 20


class OutputDigest(io.RawIOBase):
    """Write-only sink that hashes and counts what a command prints."""

    def __init__(self):
        super().__init__()
        self._sha = hashlib.sha256()
        self.size = 0
        self.lines = 0
        self.terms = 0  # "(" count: one per printed surjection
        self.head = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        data = bytes(data)
        self._sha.update(data)
        self.size += len(data)
        self.lines += data.count(b"\n")
        self.terms += data.count(b"(")
        if len(self.head) < HEAD_LIMIT:
            self.head += data[: HEAD_LIMIT - len(self.head)]
        return len(data)

    def summary(self) -> dict:
        return {
            "sha256": self._sha.hexdigest(),
            "size": self.size,
            "lines": self.lines,
            "terms": self.terms,
            "head": self.head.decode("utf-8", "replace") if self.size <= HEAD_LIMIT else None,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    # A seeded command matches the reference digest only at seed 0; at
    # other seeds its report is checked instead.
    seeded: bool = False
    # Per-layer counts the traced run must find zero: layers this workload
    # bypasses, so that work moved into them shows.
    bypassed: tuple[str, ...] = ()

    def check(self, seed: int, exit_code: int, output: dict, reference: dict) -> Optional[str]:
        """None when the output is correct, else the reason it is not."""
        ref = reference[self.name]
        if exit_code != ref["exit_code"]:
            return f"exit code {exit_code}, expected {ref['exit_code']}"
        if not self.seeded or seed == 0:
            for key in ("sha256", "lines", "terms"):
                if output[key] != ref[key]:
                    return f"stdout {key} {output[key]}, expected {ref[key]}"
            return None
        return _check_verify_report(seed, output)


def _check_verify_report(seed: int, output: dict) -> Optional[str]:
    if output["head"] is None:
        return f"report of {output['size']} bytes is too large to parse"
    try:
        doc = json.loads(output["head"])
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if doc.get("pass") is not True:
        return "report does not pass"
    names = [s.get("suite") for s in doc.get("suites", [])]
    if tuple(names) != SUITES:
        return f"report covers suites {names}"
    if any(s["config"]["seed"] != seed for s in doc["suites"]):
        return f"report was not made with seed {seed}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ainf-8",
            lambda seed: ["verify", "ainf", "--max-arity", "8"],
            bypassed=("cacti.enumerate_basis.calls",),
        ),
        Workload(
            "psi-9",
            lambda seed: ["psi", "9"],
            bypassed=("operad.compose.calls", "cacti.enumerate_basis.calls"),
        ),
        Workload(
            "cacti-list-6",
            lambda seed: ["cacti", "list", "6"],
            bypassed=("operad.compose.calls",),
        ),
        Workload(
            "verify-all",
            lambda seed: ["verify", "all", "--json", "--seed", str(seed)],
            seeded=True,
        ),
    )
}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's sources, no knobs.

    ``PYTHONPATH`` points at ``<checkout>/src`` (the package is not installed, so
    this is what selects the tree under test).  Other ``PYTHON*`` variables
    and ``CACTUS_MAX_LEN``, which changes the enumeration cap and so what
    ``cacti list`` prints, are dropped; the hash seed is fixed.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("CACTUS_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env
