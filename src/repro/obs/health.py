"""Drift detection and the aggregated health report.

Auric's accuracy rests on a population assumption: the carriers the
dependency models were fitted on still look like the carriers being
served.  This module makes that assumption observable.  The baseline is
the population an engine votes from: :func:`baseline_distributions`
counts per-attribute and per-parameter categorical value distributions
off the engine's columnar snapshot.  At serve time a
:class:`DriftDetector` scores live distributions against that baseline
with two complementary statistics:

* **PSI** (population stability index) — magnitude of the shift; the
  conventional 0.1 / 0.25 thresholds mark moderate / major drift,
* **chi-square homogeneity** — significance of the shift, so a large
  PSI on a handful of samples does not page anyone.

An attribute is flagged only when *both* agree (PSI over threshold and
p-value under alpha) and both sides have at least
:attr:`DriftThresholds.min_samples` observations.  Scores are published
as ``repro_drift_score{attribute=...}`` gauges on the global registry —
zero-cost while :func:`repro.obs.metrics.disable` is in effect.

:class:`HealthReport` folds a drift report together with an SLO report
(:mod:`repro.obs.slo`) and top profile frames
(:mod:`repro.obs.profiler`) into the ``repro health`` surface, with
process exit-code semantics: 0 healthy / 1 degraded / 2 failing.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import chi2

from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.obs import metrics
from repro.obs.logs import get_logger

__all__ = [
    "AttributeDrift",
    "DriftDetector",
    "DriftReport",
    "DriftThresholds",
    "DriftWindow",
    "HealthReport",
    "baseline_distributions",
    "chi_square_drift",
    "population_stability_index",
]

logger = get_logger("obs.health")

#: Smoothing floor for PSI proportions — keeps categories that are
#: present on one side only from producing infinite terms.
PSI_EPSILON = 1e-4

Distribution = Mapping[Any, float]


def _normalise(dist: Distribution) -> Tuple[Dict[str, float], float]:
    """Counts keyed by ``str(category)`` plus their total."""
    counts: Dict[str, float] = {}
    for category, count in dist.items():
        key = str(category)
        counts[key] = counts.get(key, 0.0) + float(count)
    return counts, sum(counts.values())


def population_stability_index(expected: Distribution, actual: Distribution) -> float:
    """PSI between two categorical distributions (counts or shares).

    ``sum((a_i - e_i) * ln(a_i / e_i))`` over the union of categories,
    with proportions floored at :data:`PSI_EPSILON`.  0 means identical;
    by convention >= 0.1 is a moderate and >= 0.25 a major shift.
    """
    e_counts, e_total = _normalise(expected)
    a_counts, a_total = _normalise(actual)
    if e_total <= 0 or a_total <= 0:
        return 0.0
    psi = 0.0
    for category in set(e_counts) | set(a_counts):
        e = max(e_counts.get(category, 0.0) / e_total, PSI_EPSILON)
        a = max(a_counts.get(category, 0.0) / a_total, PSI_EPSILON)
        psi += (a - e) * math.log(a / e)
    return psi


def chi_square_drift(
    expected: Distribution, actual: Distribution
) -> Tuple[float, int, float]:
    """Two-sample chi-square homogeneity test on categorical counts.

    Treats ``expected`` and ``actual`` as the two rows of a contingency
    table over the union of categories and returns ``(statistic, dof,
    p_value)``.  Degenerate tables (one category, or an empty side)
    return ``(0.0, 0, 1.0)`` — no evidence of drift.
    """
    e_counts, e_total = _normalise(expected)
    a_counts, a_total = _normalise(actual)
    categories = sorted(set(e_counts) | set(a_counts))
    grand = e_total + a_total
    if e_total <= 0 or a_total <= 0 or len(categories) < 2:
        return 0.0, 0, 1.0
    statistic = 0.0
    for category in categories:
        column = e_counts.get(category, 0.0) + a_counts.get(category, 0.0)
        for observed, row_total in (
            (e_counts.get(category, 0.0), e_total),
            (a_counts.get(category, 0.0), a_total),
        ):
            cell = row_total * column / grand
            if cell > 0:
                statistic += (observed - cell) ** 2 / cell
    dof = len(categories) - 1
    p_value = float(chi2.sf(statistic, dof))
    return statistic, dof, p_value


@dataclass(frozen=True)
class DriftThresholds:
    """When does a distribution shift count as drift?

    An attribute is flagged only when the PSI magnitude and the
    chi-square significance agree, and both sides carry at least
    ``min_samples`` observations — small live windows never alert.
    """

    psi_moderate: float = 0.1
    psi_major: float = 0.25
    alpha: float = 0.01
    min_samples: int = 20

    def to_dict(self) -> Dict:
        return {
            "psi_moderate": self.psi_moderate,
            "psi_major": self.psi_major,
            "alpha": self.alpha,
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DriftThresholds":
        return cls(
            psi_moderate=float(payload.get("psi_moderate", 0.1)),
            psi_major=float(payload.get("psi_major", 0.25)),
            alpha=float(payload.get("alpha", 0.01)),
            min_samples=int(payload.get("min_samples", 20)),
        )


#: Distribution key prefix for configured-parameter values, so attribute
#: and parameter drift ride the same gauge with distinct label values.
PARAMETER_PREFIX = "parameter:"


def parameter_distribution(store, name: str) -> Dict[str, float]:
    """Value counts of one parameter over a configuration store, read
    from the parameter's own kind (pair-wise or singular values)."""
    values = (
        store.pairwise_values(name)
        if store.catalog.spec(name).is_pairwise
        else store.singular_values(name)
    )
    counts: Dict[str, float] = {}
    for value in values.values():
        key = str(value)
        counts[key] = counts.get(key, 0.0) + 1.0
    return counts


def _code_counts(codes, vocab: Sequence) -> Dict[str, float]:
    """Counts of one code column, keyed by ``str`` of its vocab entry."""
    counts: Dict[str, float] = {}
    for value, count in zip(
        vocab, np.bincount(codes, minlength=len(vocab)).tolist()
    ):
        key = str(value)
        counts[key] = counts.get(key, 0.0) + float(count)
    return counts


def baseline_distributions(
    snapshot, parameters: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """The drift baseline: the population of the snapshot an engine
    votes from (:meth:`repro.core.auric.AuricEngine.ensure_columnar`).

    Each attribute's code column is counted through its vocab, and each
    named parameter's label codes through its label vocab, keyed
    ``parameter:<name>``: the same counts as
    :func:`attribute_distributions` over the snapshot's network plus
    :func:`parameter_distribution` over its store.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for column, name in enumerate(ATTRIBUTE_SCHEMA.names):
        counts = _code_counts(snapshot.codes[:, column], snapshot.vocabs[column])
        if counts:
            merged[name] = counts
    for name in parameters:
        columns = snapshot.parameter(name)
        counts = _code_counts(columns.label_codes, columns.label_vocab)
        if counts:
            merged[PARAMETER_PREFIX + name] = counts
    return merged


def attribute_distributions(network) -> Dict[str, Dict[str, float]]:
    """Per-attribute value counts over every carrier in a network."""
    out: Dict[str, Dict[str, float]] = {}
    for carrier in network.carriers():
        for name, value in carrier.attributes.values.items():
            bucket = out.setdefault(name, {})
            key = str(value)
            bucket[key] = bucket.get(key, 0.0) + 1.0
    return out


@dataclass
class AttributeDrift:
    """Drift scores for one attribute (or ``parameter:<name>``)."""

    attribute: str
    psi: float
    statistic: float
    dof: int
    p_value: float
    n_expected: int
    n_actual: int
    verdict: str  # stationary | moderate | major | insufficient

    def to_dict(self) -> Dict:
        return {
            "attribute": self.attribute,
            "psi": self.psi,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "n_expected": self.n_expected,
            "n_actual": self.n_actual,
            "verdict": self.verdict,
        }


@dataclass
class DriftReport:
    """Scored drift for every baselined attribute, worst first."""

    attributes: List[AttributeDrift]
    thresholds: DriftThresholds = field(default_factory=DriftThresholds)

    @property
    def psi_max(self) -> float:
        flagged = [
            d.psi for d in self.attributes if d.verdict != "insufficient"
        ]
        return max(flagged) if flagged else 0.0

    @property
    def drifted(self) -> List[AttributeDrift]:
        return [
            d for d in self.attributes if d.verdict in ("moderate", "major")
        ]

    @property
    def verdict(self) -> str:
        """``healthy`` / ``drifting`` (moderate) / ``stale`` (major)."""
        verdicts = {d.verdict for d in self.attributes}
        if "major" in verdicts:
            return "stale"
        if "moderate" in verdicts:
            return "drifting"
        return "healthy"

    @property
    def stale(self) -> bool:
        return self.verdict != "healthy"

    def record(self) -> None:
        """Publish ``repro_drift_*`` gauges on the global registry.

        No-op (shared null instruments) while metrics are disabled.
        """
        score = metrics.gauge(
            "repro_drift_score",
            "PSI drift score per fitted attribute/parameter distribution",
            labelnames=("attribute",),
        )
        for drift in self.attributes:
            score.labels(attribute=drift.attribute).set(drift.psi)
        metrics.gauge(
            "repro_drift_psi_max",
            "Largest PSI across baselined distributions",
        ).set(self.psi_max)
        metrics.gauge(
            "repro_drift_stale",
            "1 when the drift verdict recommends a refit",
        ).set(1.0 if self.stale else 0.0)
        if self.stale:
            logger.warning(
                "drift detected",
                extra={
                    "verdict": self.verdict,
                    "psi_max": round(self.psi_max, 4),
                    "attributes": ",".join(
                        d.attribute for d in self.drifted
                    ),
                },
            )

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "psi_max": self.psi_max,
            "thresholds": self.thresholds.to_dict(),
            "attributes": [d.to_dict() for d in self.attributes],
        }


class DriftDetector:
    """Scores live distributions against a baseline
    (:func:`baseline_distributions`)."""

    def __init__(
        self,
        baseline: Mapping[str, Distribution],
        thresholds: Optional[DriftThresholds] = None,
    ) -> None:
        self.baseline = baseline
        self.thresholds = thresholds or DriftThresholds()

    def _classify(
        self, psi: float, p_value: float, n_expected: int, n_actual: int
    ) -> str:
        t = self.thresholds
        if n_expected < t.min_samples or n_actual < t.min_samples:
            return "insufficient"
        if psi >= t.psi_major and p_value < t.alpha:
            return "major"
        if psi >= t.psi_moderate and p_value < t.alpha:
            return "moderate"
        return "stationary"

    def score(
        self, live: Mapping[str, Distribution]
    ) -> DriftReport:
        """Score live ``{name: {category: count}}`` maps vs the baseline.

        Only names present in the baseline are scored — the baseline
        defines what the models depend on; novel live attributes are an
        upstream schema change, not drift.
        """
        scored: List[AttributeDrift] = []
        for name, expected in sorted(self.baseline.items()):
            actual = live.get(name)
            if actual is None:
                continue
            psi = population_stability_index(expected, actual)
            statistic, dof, p_value = chi_square_drift(expected, actual)
            n_expected = int(sum(expected.values()))
            n_actual = int(sum(float(v) for v in actual.values()))
            scored.append(
                AttributeDrift(
                    attribute=name,
                    psi=psi,
                    statistic=statistic,
                    dof=dof,
                    p_value=p_value,
                    n_expected=n_expected,
                    n_actual=n_actual,
                    verdict=self._classify(psi, p_value, n_expected, n_actual),
                )
            )
        scored.sort(key=lambda d: d.psi, reverse=True)
        return DriftReport(attributes=scored, thresholds=self.thresholds)


class DriftWindow:
    """Sampled live attribute observations, accumulated by the service.

    The serving hot path calls :meth:`observe` with a request's resolved
    attribute mapping; only every ``sample_every``-th request is folded
    into the window (one dict walk), so the warm cache-hit path stays
    within the health-overhead budget.  Thread-safe.
    """

    def __init__(self, sample_every: int = 8, max_samples: int = 4096) -> None:
        self.sample_every = max(1, int(sample_every))
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._counts: Dict[str, Dict[str, float]] = {}
        self._seen = 0
        self._sampled = 0

    def observe(self, values: Mapping[str, Any]) -> bool:
        """Maybe fold one request's attribute values into the window.

        Returns True when this request was sampled.
        """
        with self._lock:
            seen = self._seen
            self._seen = seen + 1
            if seen % self.sample_every:
                return False
            if self._sampled >= self.max_samples:
                return False
            self._sampled += 1
            for name, value in values.items():
                bucket = self._counts.setdefault(name, {})
                key = str(value)
                bucket[key] = bucket.get(key, 0.0) + 1.0
            return True

    @property
    def seen(self) -> int:
        with self._lock:
            return self._seen

    @property
    def sampled(self) -> int:
        with self._lock:
            return self._sampled

    def counts(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(dist) for name, dist in self._counts.items()}

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._seen = 0
            self._sampled = 0


@dataclass
class HealthReport:
    """The ``repro health`` surface: drift + SLO + profile, one verdict.

    ``slo`` is any object with ``status`` / ``to_dict()`` / ``lines()``
    (duck-typed so this module does not import :mod:`repro.obs.slo`);
    ``profile`` is flamegraph-collapsed ``(stack, samples)`` pairs,
    hottest first.
    """

    drift: Optional[DriftReport] = None
    slo: Optional[Any] = None
    profile: Sequence[Tuple[str, int]] = ()
    notes: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        slo_status = getattr(self.slo, "status", "ok")
        if slo_status == "failing":
            return "failing"
        if slo_status == "degraded":
            return "degraded"
        if self.drift is not None and self.drift.stale:
            return "degraded"
        return "healthy"

    @property
    def exit_code(self) -> int:
        return {"healthy": 0, "degraded": 1, "failing": 2}[self.status]

    def to_dict(self) -> Dict:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "drift": self.drift.to_dict() if self.drift else None,
            "slo": self.slo.to_dict() if self.slo is not None else None,
            "profile": [
                {"stack": stack, "samples": samples}
                for stack, samples in self.profile
            ],
            "notes": list(self.notes),
        }

    def to_text(self, top_frames: int = 5) -> str:
        """The plain-text report ``repro health`` prints."""
        lines: List[str] = [f"health: {self.status}"]
        if self.drift is not None:
            lines.append("")
            lines.append(
                f"drift: {self.drift.verdict} "
                f"(psi_max={self.drift.psi_max:.4f})"
            )
            for d in self.drift.attributes[:10]:
                lines.append(
                    f"  {d.attribute:<28s} psi={d.psi:8.4f} "
                    f"p={d.p_value:.4f} n={d.n_actual:<5d} {d.verdict}"
                )
        if self.slo is not None:
            lines.append("")
            lines.append(f"slo: {getattr(self.slo, 'status', 'ok')}")
            slo_lines = getattr(self.slo, "lines", None)
            if callable(slo_lines):
                lines.extend("  " + line for line in slo_lines())
        if self.profile:
            lines.append("")
            lines.append(f"top frames ({len(self.profile)} stacks):")
            for stack, samples in list(self.profile)[:top_frames]:
                frame = stack.split(";")[-1]
                lines.append(f"  {samples:6d}  {frame}  [{stack}]")
        for note in self.notes:
            lines.append("")
            lines.append(f"note: {note}")
        return "\n".join(lines)
