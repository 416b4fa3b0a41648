"""Performance-feedback weighted voting (section 6 of the paper).

"For the similar carriers with matching attributes and different
distribution of parameter values, we can provide higher weights (in our
voting approach) to configuration changes that have improved service
performance in the past."

The experiment simulates the KPI history Auric would consult: carriers
whose configuration deviates from its engineering intent (trial
leftovers) show degraded KPIs with high probability; well-configured
carriers rarely do.  Down-weighting poor-KPI carriers in the vote should
recover part of the trial-noise error — the paper's hypothesized benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.auric import AuricEngine
from repro.datagen.generator import SyntheticDataset
from repro.datagen.provenance import Provenance
from repro.datagen.workloads import four_markets_workload
from repro.eval.runner import EvaluationRunner
from repro.reporting.tables import format_table
from repro.rng import derive

DEFAULT_PARAMETERS = ("pMax", "sFreqPrio", "qrxlevmin", "qHyst", "lbCapacityThreshold")


def simulate_kpi_weights(
    dataset: SyntheticDataset,
    parameters: Sequence[str],
    poor_kpi_weight: float = 0.25,
    detection_rate: float = 0.7,
    false_alarm_rate: float = 0.05,
    seed: int = 88,
) -> Dict[Hashable, float]:
    """Vote weights from simulated KPI monitoring.

    A trial-leftover value degrades KPIs and is *detected* with
    ``detection_rate``; healthy carriers trip the detector with
    ``false_alarm_rate``.  Detected carriers get ``poor_kpi_weight``.
    The simulation never reads the intended value — only whether the
    carrier's KPI history looks degraded, which is what a production
    system would have.
    """
    rng = derive(seed, "kpi-weights")
    weights: Dict[Hashable, float] = {}
    for parameter in parameters:
        spec = dataset.catalog.spec(parameter)
        mapping = (
            dataset.store.pairwise_values(parameter)
            if spec.is_pairwise
            else dataset.store.singular_values(parameter)
        )
        for key in sorted(mapping):
            record = dataset.provenance.get(parameter, key)
            degraded = record.provenance is Provenance.TRIAL_LEFTOVER
            probability = detection_rate if degraded else false_alarm_rate
            if rng.random() < probability:
                weights[key] = poor_kpi_weight
    return weights


@dataclass
class FeedbackResult:
    parameters: List[str]
    unweighted: Dict[str, float]
    weighted: Dict[str, float]
    #: Accuracy restricted to *contested* targets — those whose vote cell
    #: contains at least one detected-degraded voter; weighting can only
    #: change outcomes there, so this subset shows the effect undiluted.
    contested_unweighted: float = float("nan")
    contested_weighted: float = float("nan")
    contested_targets: int = 0

    def mean_unweighted(self) -> float:
        return sum(self.unweighted.values()) / len(self.unweighted)

    def mean_weighted(self) -> float:
        return sum(self.weighted.values()) / len(self.weighted)

    @property
    def improvement(self) -> float:
        return self.mean_weighted() - self.mean_unweighted()

    @property
    def contested_improvement(self) -> float:
        return self.contested_weighted - self.contested_unweighted

    def render(self) -> str:
        rows = [
            (
                parameter,
                100.0 * self.unweighted[parameter],
                100.0 * self.weighted[parameter],
            )
            for parameter in self.parameters
        ]
        rows.append(("MEAN", 100.0 * self.mean_unweighted(),
                     100.0 * self.mean_weighted()))
        table = format_table(
            ["parameter", "unweighted voting (%)", "KPI-weighted voting (%)"],
            rows,
            title="Section 6 extension — performance-feedback weighted voting",
        )
        contested = ""
        if self.contested_targets:
            contested = (
                f"\ncontested targets ({self.contested_targets}): "
                f"{100.0 * self.contested_unweighted:.2f}% -> "
                f"{100.0 * self.contested_weighted:.2f}% "
                f"({100.0 * self.contested_improvement:+.2f} points)"
            )
        return table + (
            f"\nweighting improvement: {100.0 * self.improvement:+.2f} points"
            + contested
        )


def run(
    dataset: Optional[SyntheticDataset] = None,
    parameters: Sequence[str] = DEFAULT_PARAMETERS,
    max_targets_per_parameter: int = 800,
) -> FeedbackResult:
    if dataset is None:
        dataset = four_markets_workload()
    parameters = list(parameters)
    runner = EvaluationRunner(dataset)

    plain = AuricEngine(dataset.network, dataset.store).fit(parameters)
    plain_result = runner.loo_accuracy(
        plain, parameters, max_targets_per_parameter=max_targets_per_parameter,
        scopes=("local",),
    )

    weights = simulate_kpi_weights(dataset, parameters)
    weighted = AuricEngine(dataset.network, dataset.store).fit(
        parameters, vote_weights=weights
    )
    weighted_result = runner.loo_accuracy(
        weighted, parameters,
        max_targets_per_parameter=max_targets_per_parameter,
        scopes=("local",),
    )

    # Contested subset: targets whose vote cell contains a down-weighted
    # voter — the only places the weighting can act.
    contested_hits = [0, 0]
    contested_total = 0
    weighted_keys = set(weights)
    view = runner.view
    for parameter in parameters:
        spec = dataset.catalog.spec(parameter)
        targets = weighted._model(parameter).encoded.targets()
        cells_with_detected = {
            targets[key][0] for key in weighted_keys if key in targets
        }
        samples = view.samples(parameter)
        for key, label in zip(samples.keys, samples.labels):
            if targets.get(key, (None,))[0] not in cells_with_detected:
                continue
            contested_total += 1
            for slot, engine in ((0, plain), (1, weighted)):
                if spec.is_pairwise:
                    rec = engine.recommend_for_pair(parameter, key, local=True)
                else:
                    rec = engine.recommend_for_carrier(parameter, key, local=True)
                contested_hits[slot] += rec.value == label

    return FeedbackResult(
        parameters=parameters,
        unweighted=plain_result.parameter_accuracy_local,
        weighted=weighted_result.parameter_accuracy_local,
        contested_unweighted=(
            contested_hits[0] / contested_total if contested_total else float("nan")
        ),
        contested_weighted=(
            contested_hits[1] / contested_total if contested_total else float("nan")
        ),
        contested_targets=contested_total,
    )
