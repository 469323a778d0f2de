"""``python3 -m bench``: one run, the whole suite, or a comparison.

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one measured run; the
  last line of stdout is the result object (``correct``, ``attempted``,
  ``failed``, ``metrics``).
* no ``--workload`` — the suite: every declared workload over ten seeds
  (interleaved, so machine drift is spread over all of them) plus one traced
  run each; writes ``results.json`` to ``--out``.
* ``--compare A.json B.json`` — two suite results side by side; exit 1 on any
  ``worse``.

``--scale smoke`` shrinks every workload (sessions ÷20, ticks ÷3, 2 passes,
1 seed) for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import add_src_to_path, declaration


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload (else: the suite)")
    parser.add_argument("--seed", type=int, help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics from traced passes")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="directory for spans and results.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)

    add_src_to_path()  # exits 2 where there is no program to measure
    from bench import procs, run, suite

    declared = declaration()
    seed = run.pinned()["seed"] if args.seed is None else args.seed
    if args.seconds is not None:
        seconds = args.seconds
    else:  # a smoke run stops at its minimum number of passes
        seconds = declared["run_seconds"] if args.scale == "full" else 0.0
    out_dir = args.out or run.DEFAULT_OUT
    children = procs.Children()
    procs.exit_on_signals()
    result = None
    code = 1
    try:
        if args.workload is None:
            code = suite.run_suite(declared, seed, seconds, args.scale, out_dir, children)
        else:
            result = run.run(
                args.workload, seed, seconds, bool(args.trace), args.scale, out_dir, children
            )
    except run.RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
    finally:
        leaks = children.report_leaks()
    if result is not None:
        if leaks:
            result["correct"] = False
            result["failed"] += leaks
        sys.stdout.flush()
        print(json.dumps(result))
        code = 0
    return 1 if leaks else code


if __name__ == "__main__":
    raise SystemExit(main())
