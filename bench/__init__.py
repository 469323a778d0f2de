"""The repo's benchmark: seeded fleet workloads, end-to-end metrics, a traced per-layer budget.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` is one
measured run; ``python3 -m bench`` runs every workload over ten seeds and
``python3 -m bench --compare A.json B.json`` compares two such result files.
See ``bench/README.md``.

Nothing under ``src/`` knows this package exists: layers are measured from
outside, through a timing proxy around the backend, a timed tick iterator and
(traced runs only) wrappers installed around public callables.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARATION = ROOT / "BENCHMARK.json"


def declaration() -> dict:
    """``BENCHMARK.json``: the workload and metric names this benchmark reports."""
    return json.loads(DECLARATION.read_text())


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout this package sits in.

    Exits non-zero when the program is not there (a directory holding only
    the benchmark), before anything is measured or printed as a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {src}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
