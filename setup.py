"""Packaging for the MPN reproduction (src layout, setuptools).

Note for hermetic environments without `wheel`: the PEP 517 editable
path (`bdist_wheel`) is unavailable there; install with

    pip install -e . --no-build-isolation --no-use-pep517

A plain `pip install .` works anywhere pip can provision its default
build backend (CI exercises exactly that plus `import repro`).
"""

import pathlib
import re

from setuptools import find_packages, setup

# Single source of truth: repro.__version__ (imported textually — the
# package's dependencies need not be importable at build time).
_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro-mpn",
    version=_VERSION,
    description=(
        "Reproduction of 'Efficient Notification of Meeting Points for "
        "Moving Groups via Independent Safe Regions' (ICDE 2013) grown "
        "into a sharded serving stack"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    # NumPy is the base install's one dependency: the flat R-tree (the
    # one Euclidean index), its batched kernels and the delta layer
    # both POI indexes share are written against it.
    install_requires=["numpy"],
    extras_require={
        # Road-network spaces: networkx carries the graphs themselves
        # (repro.network_ext, repro.space.network, repro.mobility.network,
        # repro.workloads.citygraph), scipy runs the Dijkstra of
        # repro.index.oracle, the one engine every road-network distance
        # comes from (no fallback: the network modules fail to import
        # without it).  Every Euclidean workload runs without the extra;
        # those modules load only when a network space or dataset is
        # built.
        "network": ["scipy", "networkx"],
        # repro.viz renders plain SVG with the stdlib today; the extra
        # is the named hook for future plotting dependencies.
        "viz": [],
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
            "ruff",
        ],
    },
)
