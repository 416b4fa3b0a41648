"""Shared benchmark fixtures.

Workloads and fitted engines are generated once per session (they are
deterministic) so each table/figure benchmark measures its experiment,
not dataset generation.  Scales are environment-tunable:

* ``REPRO_FOUR_MARKET_SCALE``  (default 0.05  → ~6K carriers)
* ``REPRO_FULL_NETWORK_SCALE`` (default 0.02 → 28 markets, ~14K carriers)
* ``REPRO_TABLE4_PARAMS``      (default 20; "all" for the full 65)

Rendered experiment outputs are written to ``benchmarks/results/`` and
echoed to stdout.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import pytest

from repro.core import AuricEngine
from repro.datagen import four_markets_workload, full_network_workload
from repro.experiments.parameter_selection import evaluation_parameters

ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def source_commit() -> str:
    """HEAD's sha, suffixed ``-dirty`` when ``src/`` differs from it;
    ``unknown`` outside a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if head.returncode != 0:
            return "unknown"
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"],
            cwd=ROOT, capture_output=True, timeout=10,
        ).returncode
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty else "")


@pytest.fixture(scope="session")
def run_environment() -> dict:
    """Where a BENCH number comes from: host cores, Python and commit."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": source_commit(),
    }


@pytest.fixture(scope="session")
def four_market_dataset():
    return four_markets_workload()


@pytest.fixture(scope="session")
def full_network_dataset():
    return full_network_workload()


@pytest.fixture(scope="session")
def four_market_parameters(four_market_dataset):
    return evaluation_parameters(four_market_dataset)


@pytest.fixture(scope="session")
def full_network_parameters(full_network_dataset):
    return evaluation_parameters(full_network_dataset)


@pytest.fixture(scope="session")
def four_market_engine(four_market_dataset, four_market_parameters):
    return AuricEngine(
        four_market_dataset.network, four_market_dataset.store
    ).fit(four_market_parameters)


@pytest.fixture(scope="session")
def full_network_engine(full_network_dataset, full_network_parameters):
    return AuricEngine(
        full_network_dataset.network, full_network_dataset.store
    ).fit(full_network_parameters)


def publish(results_dir: pathlib.Path, experiment_id: str, text: str) -> None:
    """Echo a rendered experiment and persist it under results/."""
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
    (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
