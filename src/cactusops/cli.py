"""Batch command-line front end.

Exit codes: 0 success (or all checks verified), 1 verification failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from .ainfty import a_infinity_image, word_image
from .cacti import enumerate_basis, length_cap, prime_cacti
from .errors import CactusOpsError
from .formats import parse_element, parse_surjection, render_lobe_tree
from .operad import boundary, compose
from .suites import SUITE_NAMES, SuiteConfig, default_max_arity, run_suites

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactusops",
        description="Exact calculator for the surjection operad and spineless cacti.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two elements at a lobe")
    p.add_argument("left", help="element, e.g. '+(1,2) +(2,1)'")
    p.add_argument("lobe", type=int, help="1-based lobe index")
    p.add_argument("right", help="element")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("boundary", help="differential of an element")
    p.add_argument("element")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("mu", help="cactus image of a generator word over w/b")
    p.add_argument("word", help="e.g. 'bw' (white = w, black = b)")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("psi", help="arity-n component of the homotopy structure")
    p.add_argument("arity", type=int)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("cacti", help="enumerate basis surjections")
    cacti_sub = p.add_subparsers(dest="cacti_command", required=True)
    q = cacti_sub.add_parser("list", help="list basis surjections of one arity")
    q.add_argument("arity", type=int)
    q.add_argument("--degree", type=int, default=None)
    q.add_argument("--prime", action="store_true", help="list the prime top-degree cacti")
    q.add_argument("--level", type=int, default=2, help="filtration stage (default 2)")
    q.set_defaults(func=cmd_cacti_list)

    p = sub.add_parser("render", help="render the lobe tree of a cactus")
    p.add_argument("surjection", help="e.g. '(2,1,3,1)' or '2131'")
    p.add_argument("--format", choices=("dot", "svg", "text"), required=True)
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ["all"])
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_compose(args: argparse.Namespace) -> int:
    left = parse_element(args.left)
    right = parse_element(args.right)
    print(compose(left, args.lobe, right))
    return 0


def cmd_boundary(args: argparse.Namespace) -> int:
    print(boundary(parse_element(args.element)))
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    print(word_image(args.word))
    return 0


def cmd_psi(args: argparse.Namespace) -> int:
    print(a_infinity_image(args.arity))
    return 0


def cmd_cacti_list(args: argparse.Namespace) -> int:
    n = args.arity
    if args.prime:
        for u in prime_cacti(n):
            print(u)
        return 0
    if args.degree is not None:
        degrees = [args.degree]
    else:
        top = length_cap() - n
        if args.level == 2:
            top = min(top, n - 1)
        # Degree 0 is always tried, so enumerate_basis rejects a bad arity or level.
        degrees = range(0, max(top, 0) + 1)
    for k in degrees:
        for u in enumerate_basis(n, k, level=args.level):
            print(u)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    text = render_lobe_tree(parse_surjection(args.surjection), args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else [args.suite]

    def cfg_for(name: str) -> SuiteConfig:
        max_arity = args.max_arity if args.max_arity is not None else default_max_arity(name)
        return SuiteConfig(
            max_arity=max_arity,
            samples=args.samples,
            seed=args.seed,
            fail_fast=args.fail_fast,
        )

    results = run_suites(names, cfg_for)
    all_passed = all(r.passed for _, _, reports in results for r in reports)

    if args.json:
        doc = {
            "pass": all_passed,
            "suites": [
                {
                    "suite": name,
                    "config": dataclasses.asdict(cfg),
                    "reports": [r.to_json() for r in reports],
                }
                for name, cfg, reports in results
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name, cfg, reports in results:
            print(
                f"# suite={name} max-arity={cfg.max_arity} "
                f"samples={cfg.samples} seed={cfg.seed}"
            )
            for r in reports:
                detail = f" ({r.notes[0]})" if r.notes else ""
                print(f"{'PASS' if r.passed else 'FAIL'} {r.check}{detail}")
                if not r.passed:
                    print(f"  witness: {json.dumps(r.witness, sort_keys=True)}")
    return 0 if all_passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (CactusOpsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
