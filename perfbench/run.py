"""Benchmark of the ``cactusops`` command line, end to end and per layer.

Untraced (``--trace 0``): sets up a fresh interpreter several times
(``import cactusops``), then runs the workload's command in a fresh child
process again and again, one child at a time, until ``--seconds`` are
used.  Every child's stdout is checked against the workload's reference.
Reports the medians of ``BENCHMARK.json``'s end-to-end metrics, with
times scaled to a reference speed by a probe timed around each child.

Traced (``--trace 1``): runs the same command once in-process under the
tracer (``tracer.py``) and reports ``BENCHMARK.json``'s per-layer metrics;
untraced runs in the remaining time give ``trace.overhead_s``.

A/A (``--aa ROUNDS``): runs two sets of untraced runs of this tree,
alternating between them, and reports per workload and metric each set's
median and quartiles and whether the two agree within the bounds.

    python3 perfbench/run.py --workload psi-9 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload psi-9 --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --aa 5

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output was
correct, 1 when one was not, and 2 when the tree to measure is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from workloads import ROOT, WORKLOADS, OutputDigest, child_env, load_reference

# Setup is timed SETUP_PER_SAMPLE times before each child of the workload,
# so that its median spans the run like the other metrics.
SETUP_PER_SAMPLE = 3
# Untraced: at least this many runs even when they overrun --seconds.
MIN_SAMPLES = 3
# No child is started after this many seconds of a run, and none may run
# past it, so that a run ends well within three minutes.
HARD_LIMIT_S = 150.0
# A seeded workload's k-th child of a run with seed s gets seed
# s * SEED_STRIDE + k, so that every run draws its own spread of inputs
# and one costly input cannot set a whole run's median.
SEED_STRIDE = 1000
# A shared host's speed drifts, by up to 40% within minutes on a 2-vCPU
# VM.  A fixed pure-Python probe is timed PROBE_ROUNDS times before the
# first child and after every child, and each child's times are scaled by
# REFERENCE_PROBE_S / (mean probe time on either side of it): seconds at a
# fixed reference speed, the probe's time on such a VM when it is quiet.
# The run is pinned to one CPU, so that the probe times the CPU the child
# runs on; each vCPU's speed drifts on its own.
PROBE_ROUNDS = 3
REFERENCE_PROBE_S = 0.12

PROGRAM = [sys.executable, "-m", "cactusops"]
TRACER = [sys.executable, str(ROOT / "perfbench" / "tracer.py")]
SETUP = [sys.executable, "-c", "import cactusops"]


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    output: dict
    error: Optional[str] = None
    # Set-up times taken just before this child, and the factor that scales
    # its times to the reference speed.
    setup_s: list[float] = field(default_factory=list)
    scale: float = 1.0


def probe() -> float:
    """Time a fixed piece of pure-Python work like the program's own: tuple
    keys summed into a dict, zeros dropped, then sorted.  It does not touch
    the tree under test, so it measures only the host's current speed."""
    start = time.perf_counter()
    acc: dict[tuple, int] = {}
    for i in range(60000):
        key = (i % 7, i % 11, (i * 7) % 13, i % 17, i % 5)
        value = acc.get(key, 0) + (1 if (i * 31) & 4 else -1)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    sorted(acc.items())
    return time.perf_counter() - start


def probe_gap() -> float:
    return statistics.fmean(probe() for _ in range(PROBE_ROUNDS))


def run_child(cmd: list[str], env: dict, timeout: float) -> Sample:
    """Run one child to its exit, draining and digesting its stdout.

    Wall time runs from spawning to reaping; CPU time and peak RSS are the
    child's own, from ``wait4``.  A child still running at ``timeout`` is
    killed.
    """
    digest = OutputDigest()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    error = None
    try:
        fd = proc.stdout.fileno()
        deadline = start + timeout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                error = f"timed out after {timeout:.0f} s"
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            digest.write(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if error else proc.returncode,
        output=digest.summary(),
        error=error,
    )


class Run:
    """One benchmark run of one workload: its clock, env and failures."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.env = child_env()
        self.reference = load_reference()
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child_seed(self, k: int) -> int:
        """Seed of the run's k-th child; unseeded workloads ignore it."""
        return self.seed * SEED_STRIDE + k if self.workload.seeded else self.seed

    def check(self, seed: int, exit_code: Optional[int], output: dict,
              error: Optional[str]) -> bool:
        self.attempted += 1
        if error is None:
            error = self.workload.check(seed, exit_code, output, self.reference)
        if error is not None:
            self.failures.append(error)
            print(f"FAIL {self.workload.name} seed={seed}: {error}", file=sys.stderr)
        return error is None

    def setup_time(self) -> Optional[float]:
        """Wall time of a fresh interpreter that only imports the package."""
        sample = run_child(SETUP, self.env, 60.0)
        if sample.error or sample.exit_code != 0:
            self.attempted += 1
            self.failures.append(f"import cactusops failed: {sample.error or sample.exit_code}")
            return None
        return sample.wall_s

    def untraced(self, min_samples: int, time_setup: bool = False) -> list[Sample]:
        """Run the command until the run's time is used, at least min_samples
        times.  A child is started while half of a typical one still fits, so
        that a run ends, on average, when its time is up.  No child is started
        unless a typical one fits before HARD_LIMIT_S, so that a slow program
        is not killed mid-run and counted as wrong.

        With ``time_setup``, set-up is timed before each child.  The probe is
        timed before the first child and after every child.
        """
        samples: list[Sample] = []
        before = probe_gap()
        loop_start = self.elapsed()
        while True:
            elapsed = self.elapsed()
            if elapsed >= HARD_LIMIT_S:
                break
            if samples:
                per_sample = (elapsed - loop_start) / len(samples)
                if elapsed + per_sample > HARD_LIMIT_S:
                    break
                if len(samples) >= min_samples and elapsed + per_sample / 2 > self.seconds:
                    break
            setup = [self.setup_time() for _ in range(SETUP_PER_SAMPLE if time_setup else 0)]
            seed = self.child_seed(len(samples))
            argv = PROGRAM + self.workload.argv(seed)
            sample = run_child(argv, self.env, HARD_LIMIT_S - self.elapsed())
            self.check(seed, sample.exit_code, sample.output, sample.error)
            after = probe_gap()
            sample.setup_s = [t for t in setup if t is not None]
            sample.scale = REFERENCE_PROBE_S / ((before + after) / 2)
            samples.append(sample)
            before = after
        return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:<40} no samples"
    q1, med, q3 = quartiles(values)
    return f"{name:<40} median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def source_digest() -> str:
    """sha256 over the package sources, which names the tree measured."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(run: Run, spec: dict) -> dict:
    run.setup_time()  # untimed: the first import may compile bytecode
    samples = run.untraced(MIN_SAMPLES, time_setup=True)
    measured = {
        "setup_s": [(t, s.scale) for s in samples for t in s.setup_s],
        "wall_s": [(s.wall_s, s.scale) for s in samples],
        "cpu_s": [(s.cpu_s, s.scale) for s in samples],
        "peak_rss_mb": [(s.peak_rss_mb, None) for s in samples],
    }
    print(describe("probe", [REFERENCE_PROBE_S / s.scale for s in samples], "s"))
    metrics = {}
    for m in spec["end_to_end"]:
        pairs = measured[m["name"]]
        values = [v for v, _ in pairs]
        if m["unit"] == "s":
            print(describe(f"{m['name']} as measured", values, "s"))
            values = [v * scale for v, scale in pairs]
        print(describe(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values) if values else 0.0, "unit": m["unit"]}
    fail_frac = len(run.failures) / run.attempted
    print(f"{'fail_frac':<40} {fail_frac:.6g} ratio ({len(run.failures)} of {run.attempted})")
    return metrics


def run_traced(run: Run, spec: dict) -> dict:
    seed = run.child_seed(0)
    cmd = TRACER + ["--workload", run.workload.name, "--seed", str(seed)]
    sample = run_child(cmd, run.env, HARD_LIMIT_S)
    traced = {}
    error = sample.error or (sample.exit_code and f"tracer exited with {sample.exit_code}")
    if not error:
        try:
            traced = json.loads(sample.output["head"].splitlines()[-1])
        except (AttributeError, IndexError, ValueError):
            error = "tracer printed no result"
    if traced:
        run.check(seed, traced["exit_code"], traced["output"], None)
    else:
        run.check(seed, None, {}, error)
    untraced = run.untraced(1)

    layer = traced.get("metrics", {})
    if traced:
        median_wall = statistics.median(s.wall_s for s in untraced)
        layer["trace.overhead_s"] = sample.wall_s - traced["post_s"] - median_wall
        print(f"traced run: {layer.pop('trace.spans')} spans, wall {sample.wall_s:.3f} s, "
              f"untraced median wall {median_wall:.3f} s (n={len(untraced)})")
        for name in run.workload.bypassed:
            if layer[name] != 0:
                run.failures.append(f"{name} = {layer[name]}, but this workload must bypass it")
                print(f"FAIL {run.workload.name}: {run.failures[-1]}", file=sys.stderr)
    metrics = {}
    for m in spec["per_layer"]:
        value = layer[m["name"]] if layer else 0.0
        print(f"{m['name']:<40} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def single_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    # Every child inherits this: the probe and the children share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics = run_traced(run, spec)
    else:
        metrics = run_untraced(run, spec)
    meta = {
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "elapsed_s": run.elapsed(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


def aa_compare(args: argparse.Namespace) -> int:
    """Two sets of untraced runs of this tree.

    Each workload's runs are made back to back, alternating between the
    sets, so that the host's drift over the whole comparison does not
    widen one workload's spread.  Both sets run round r with seed
    ``--seed + r``, so that they measure the same inputs.
    """
    spec = load_spec()
    names = args.workload_list or [w["name"] for w in spec["workloads"]]
    values = {(w, side): {} for w in names for side in "AB"}
    all_correct = True
    for w in names:
        for r in range(args.aa):
            seed = args.seed + r
            for side in ("AB" if r % 2 == 0 else "BA"):
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
                result = json.loads(proc.stdout.splitlines()[-1])
                all_correct &= result["correct"]
                for name, m in result["metrics"].items():
                    values[(w, side)].setdefault(name, []).append(m["value"])
                print(f"round {r} {w} set {side} seed {seed}: "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      flush=True)
    report = []
    agree_all = True
    for w in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = values[(w, "A")][name], values[(w, "B")][name]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb, qall)]
            # Signed for the report; both sides run the same code, so a gap
            # either way must stay within the bound.
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            agree = abs(worse) <= bound and (name == "setup_s" or max(spreads) <= bound)
            agree_all &= agree
            row = {"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                   "A": qa, "B": qb, "spread_A": spreads[0], "spread_B": spreads[1],
                   "spread_all": spreads[2], "b_worse_by": worse, "agree": agree}
            report.append(row)
            print(f"{w:<13} {name:<12} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {m['unit']}  "
                  f"spread A {spreads[0]:.3f} B {spreads[1]:.3f} all {spreads[2]:.3f}  "
                  f"B worse by {worse:+.3f}  bound {bound}  {'agree' if agree else 'DIFFER'}")
    print(json.dumps({"correct": all_correct, "agree": agree_all, "rows": report}))
    return 0 if all_correct and agree_all else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workload_list",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, default=0, metavar="ROUNDS",
                        help="A/A mode: ROUNDS alternating runs of each of two sets")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cactusops" / "__init__.py").is_file():
        print(f"error: no cactusops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.aa:
        return aa_compare(args)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload_list[0]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
