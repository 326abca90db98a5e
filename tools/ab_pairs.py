"""A/B comparison of two checkouts in alternating pairs of runs.

Each pair runs the same measurement once in each checkout, one after the
other; the side that goes first swaps every pair, so that a drift of the
host's speed does not favour one side.  Three kinds of measurement:

- ``--workload W``: each checkout's own, unmodified
  ``perfbench/run.py --workload W --seed S --seconds X --trace 0``, pair k
  with seed ``--seed + k`` on both sides.  The metrics are the run's
  end-to-end metrics; a run that is not ``correct`` makes the exit code 1.
- ``--cli "ARGS"``: one child ``python3 -m cactusops ARGS`` per side, with
  its wall time, CPU time and peak RSS (from ``wait4``) and the sha256 of
  its stdout.  Both sides must print the same bytes.
- ``--replay``: every top-level ``compose`` and ``compose_basis`` call
  that ``cactusops verify all --json --seed 0`` makes, recorded once in
  the parent and replayed in both checkouts within this process; the
  metric is the time of one whole replay.  This times the composition
  layer on the default command's many small inputs, which the end-to-end
  time hides under the other suites.  Both sides must give the same
  results.

Every run is kept.  Per metric the summary gives each side's median and
quartiles, the number of pairs the change won (strictly better), and
whether the medians differ by more than the parent's interquartile spread:
the numbers a claimed gain is judged by.  The result is stored in the
JSON file ``--out`` under the workload's name, the CLI arguments or
``verify-all-compose-replay``; other keys of an existing file are kept,
so one file collects several comparisons.

    python3 tools/ab_pairs.py PARENT CHANGE --workload ainf-8 --pairs 10 \\
        --seconds 40 --seed 101 --out BENCH_compose.json
    python3 tools/ab_pairs.py PARENT CHANGE --cli "verify ainf --max-arity 9" \\
        --pairs 10 --out BENCH_compose.json
    python3 tools/ab_pairs.py PARENT CHANGE --replay --pairs 10 --out BENCH_compose.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

SIDES = ("parent", "change")
# Metrics of a --cli run; lower is better for each.
CLI_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
REPLAY_KEY = "verify-all-compose-replay"
REPLAY_ARGS = ["verify", "all", "--json", "--seed", "0"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``perfbench/run.py`` computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the change's pair wins and whether
    its median gain exceeds the parent's interquartile spread.

    ``runs`` holds one ``{"parent": {metric: value}, "change": {...}}`` per
    pair; ``better`` maps each metric to ``"lower"`` or ``"higher"``.
    """
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        pairs = [(run["parent"][name], run["change"][name]) for run in runs]
        a = quartiles([p for p, _ in pairs])
        b = quartiles([c for _, c in pairs])
        gain = sign * (a[1] - b[1])  # > 0 when the change is better
        out[name] = {
            "better": direction,
            "parent": dict(zip(("q1", "median", "q3"), a)),
            "change": dict(zip(("q1", "median", "q3"), b)),
            "change_vs_parent": (b[1] - a[1]) / a[1] if a[1] else 0.0,
            "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
            "pairs": len(pairs),
            "gain_exceeds_parent_iqr": gain > a[2] - a[0],
        }
    return out


def alternate(pairs: int, measure: Callable[[str, int], dict]) -> list[dict]:
    """``measure(side, k)`` for both sides of pairs k = 0 .. pairs-1, the
    parent first in even pairs and the change first in odd ones.  Each
    result holds its ``"metrics"``."""
    runs = []
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run = {"pair": k, "first": order[0]}
        for side in order:
            run[side] = measure(side, k)
        runs.append(run)
        print(f"pair {k} first {order[0]}: " + "  ".join(
            f"{name} {run['parent']['metrics'][name]:.4g} -> {value:.4g}"
            for name, value in run["change"]["metrics"].items()), flush=True)
    return runs


def child_env(checkout: Path) -> dict[str, str]:
    """The checkout's sources, no PYTHON* or CACTUS_* knobs, a fixed hash seed."""
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CACTUS_"))
    }
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py printed no result (exit {proc.returncode})")
    return {
        "seed": seed,
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def run_cli(checkout: Path, args: list[str]) -> dict:
    cmd = [sys.executable, "-m", "cactusops", *args]
    sha = hashlib.sha256()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=checkout, env=child_env(checkout),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            sha.update(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return {
        "metrics": {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        "exit_code": os.waitstatus_to_exitcode(status),
        "sha256": sha.hexdigest(),
    }


def load_package(name: str, checkout: Path):
    """The checkout's ``cactusops`` package, imported as ``name``."""
    root = checkout / "src" / "cactusops"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def plain(x):
    """A composition factor or result as plain data: a basis sequence or a
    dict of terms."""
    if hasattr(x, "seq"):
        return "basis", x.seq
    return "element", {u.seq: c for u, c in x.terms()}


def record_compositions(checkout: Path) -> list[tuple]:
    """Every top-level (function name, outer, lobe, inner) of
    ``verify all --json --seed 0``, run by the checkout's package under its
    own name (the golden table is a resource of ``cactusops.data``)."""
    sys.path.insert(0, str(checkout / "src"))
    from cactusops import cli, operad

    calls, depth = [], [0]

    def wrap(name, fn):
        def wrapper(a, t, b):
            if not depth[0]:
                calls.append((name, plain(a), t, plain(b)))
            depth[0] += 1
            try:
                return fn(a, t, b)
            finally:
                depth[0] -= 1

        return wrapper

    patches = {name: wrap(name, getattr(operad, name)) for name in ("compose", "compose_basis")}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cactusops"]
    saved = [(m, n, getattr(m, n)) for m in modules for n in patches if hasattr(m, n)]
    for module, name, _ in saved:
        setattr(module, name, patches[name])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(REPLAY_ARGS)
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return calls


def build(package, factor):
    kind, data = factor
    if kind == "basis":
        return package.Surjection(data)
    return package.Element((package.Surjection(seq), c) for seq, c in data.items())


def replays(checkouts: dict[str, Path]) -> tuple[dict[str, list], dict]:
    """Per side, the recorded calls built from its own package, and facts
    about the recording: call counts and whether both sides agree."""
    calls = record_compositions(checkouts["parent"])
    packages = {side: load_package(f"cactusops_{side}", path) for side, path in checkouts.items()}
    built = {
        side: [(getattr(p, name), build(p, a), t, build(p, b)) for name, a, t, b in calls]
        for side, p in packages.items()
    }
    outputs = [[plain(f(a, t, b)) for f, a, t, b in built[side]] for side in SIDES]
    facts = {
        "calls": len(calls),
        "compose_calls": sum(name == "compose" for name, *_ in calls),
        "results_equal": outputs[0] == outputs[1],
    }
    return built, facts


def time_replay(calls: list) -> dict:
    start = time.perf_counter()
    for f, a, t, b in calls:
        f(a, t, b)
    return {"metrics": {"replay_s": time.perf_counter() - start}}


def source_digest(checkout: Path) -> str:
    """sha256 over the package sources, as ``perfbench/run.py`` names a tree."""
    sha = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a perfbench workload")
    what.add_argument("--cli", help="cactusops arguments, as one shell-quoted string")
    what.add_argument("--replay", action="store_true",
                      help="replay the compositions of verify all --json --seed 0")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of one perfbench run")
    parser.add_argument("--seed", type=int, default=0, help="perfbench seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # One CPU for both sides and their children, as perfbench/run.py does.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    entry = {"command": "python3 tools/ab_pairs.py " + " ".join(
        shlex.quote(a) for a in (sys.argv[1:] if argv is None else argv))}
    if args.workload:
        key = args.workload
        entry["measure"] = f"perfbench/run.py --workload {key} --seconds {args.seconds:g} --trace 0"
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs = alternate(args.pairs, lambda side, k: run_perfbench(
            checkouts[side], key, args.seed + k, args.seconds))
        ok = all(r[s]["correct"] and r[s]["failed"] == 0 for r in runs for s in SIDES)
    elif args.cli:
        key = args.cli
        entry["measure"] = f"python3 -m cactusops {key}"
        better = dict.fromkeys(CLI_METRICS, "lower")
        runs = alternate(args.pairs, lambda side, k: run_cli(checkouts[side], shlex.split(key)))
        ok = all(r["parent"]["sha256"] == r["change"]["sha256"]
                 and r["parent"]["exit_code"] == r["change"]["exit_code"] == 0 for r in runs)
    else:
        key = REPLAY_KEY
        entry["measure"] = "replay of the compositions of cactusops " + " ".join(REPLAY_ARGS)
        better = {"replay_s": "lower"}
        built, facts = replays(checkouts)
        entry.update(facts)
        runs = alternate(args.pairs, lambda side, k: time_replay(built[side]))
        ok = facts["results_equal"]

    summary = summarize([{s: r[s]["metrics"] for s in SIDES} for r in runs], better)
    for name, row in summary.items():
        a, b = row["parent"], row["change"]
        print(f"{name:<12} parent {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}]  "
              f"change {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
              f"{row['change_vs_parent']:+.1%}  won {row['change_wins']}/{row['pairs']}")
    entry.update({
        "src_sha256": {side: source_digest(path) for side, path in checkouts.items()},
        "all_correct": ok,
        "summary": summary,
        "runs": runs,
    })
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[key] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
