"""Read counters out of Prometheus text exposition.

The load generator scrapes ``GET /metrics`` before and after a run and
the server launcher reads its own registry around each fit; both go
through :func:`parse` and :func:`total`.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Tuple

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

Samples = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse(text: str) -> Samples:
    """``{(name, sorted label pairs): value}`` for every sample line
    (comments and exemplars are skipped)."""
    samples: Samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def total(samples: Samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over every series whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample, pairs), value in samples.items()
        if sample == name and wanted <= set(pairs)
    )


def delta(before: Samples, after: Samples, name: str, **labels: str) -> float:
    return total(after, name, **labels) - total(before, name, **labels)


def registry_samples() -> Samples:
    """The server process's own global registry, parsed."""
    from repro.obs import metrics as obs_metrics

    return parse(obs_metrics.get_registry().to_prometheus_text())


def fit_phases(before: Samples, after: Samples) -> Mapping[str, float]:
    """Seconds per fit phase (``repro_fit_phase_seconds``) between two
    scrapes, summed over parameters."""
    return {
        phase: delta(before, after, "repro_fit_phase_seconds_sum", phase=phase)
        for phase in ("encode", "select", "vote")
    }
