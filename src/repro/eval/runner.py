"""The evaluation runner: learner comparisons and LOO accuracy.

Two evaluation modes, matching the paper's two experiments:

* :meth:`EvaluationRunner.compare_learners` — k-fold cross-validation of
  the five global learners on each parameter (Table 4, Fig 10).
* :meth:`EvaluationRunner.loo_accuracy` — leave-one-out accuracy of the
  Auric engine (CF), globally or locally scoped (section 4.3.2, Fig 11),
  collecting mismatches for the Fig 12 labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.auric import AuricEngine
from repro.datagen.generator import SyntheticDataset
from repro.eval.accuracy import LearnerScore, ParameterAccuracy
from repro.eval.dataset import LearningView, ParameterSamples
from repro.eval.splits import kfold_indices, uniform_sample_indices
from repro.learners.base import Learner
from repro.learners.metrics import accuracy_score
from repro.netmodel.identifiers import MarketId
from repro.obs import tracing
from repro.rng import derive, derive_seed
from repro.types import ParameterValue

Mismatch = Tuple[str, Hashable, ParameterValue, ParameterValue]


def evaluate_loo_chunk(
    engine: AuricEngine,
    parameter: str,
    samples: ParameterSamples,
    indices: Sequence[int],
    scopes: Tuple[str, ...],
) -> Tuple[Dict[str, int], Dict[str, List[Mismatch]]]:
    """Leave-one-out-evaluate one parameter over a chunk of target indices.

    The shared inner loop of the serial sweep and the process-pool
    workers (:mod:`repro.parallel.evaluate`): per scope, bulk-recommend
    the chunk's targets with the target's own value excluded and count
    hits, collecting mismatches in target order.  Returns
    ``(hits per scope, mismatches per scope)``.
    """
    hits = {scope: 0 for scope in scopes}
    mismatches: Dict[str, List[Mismatch]] = {scope: [] for scope in scopes}
    keys = [samples.keys[i] for i in indices]
    with tracing.span(
        "eval.loo_chunk", parameter=parameter, targets=len(indices)
    ):
        for scope in scopes:
            recommendations = engine.recommend_for_targets(
                parameter, keys, local=(scope == "local"), leave_one_out=True
            )
            for i, rec in zip(indices, recommendations):
                truth = samples.labels[i]
                if rec.value == truth:
                    hits[scope] += 1
                else:
                    mismatches[scope].append(
                        (parameter, samples.keys[i], truth, rec.value)
                    )
    return hits, mismatches


@dataclass
class LocalVsGlobalResult:
    """LOO accuracy of the CF engine, local vs global voting."""

    parameter_accuracy_local: Dict[str, float] = field(default_factory=dict)
    parameter_accuracy_global: Dict[str, float] = field(default_factory=dict)
    mismatches_local: List[Mismatch] = field(default_factory=list)
    mismatches_global: List[Mismatch] = field(default_factory=list)
    evaluated: int = 0

    def mean_local(self) -> float:
        values = list(self.parameter_accuracy_local.values())
        return sum(values) / len(values) if values else float("nan")

    def mean_global(self) -> float:
        values = list(self.parameter_accuracy_global.values())
        return sum(values) / len(values) if values else float("nan")


class EvaluationRunner:
    """Runs the paper's evaluations over a synthetic dataset."""

    def __init__(self, dataset: SyntheticDataset, seed: int = 11):
        self.dataset = dataset
        self.view = LearningView(dataset.network, dataset.store)
        self.seed = seed
        self._samples_cache: Dict[Tuple, ParameterSamples] = {}

    def samples(
        self, parameter: str, market_id: Optional[MarketId] = None
    ) -> ParameterSamples:
        """Per-(parameter, market) sample sets, cached for the runner's
        lifetime — :meth:`loo_plan` and the sweep share one key sort."""
        cache_key = (parameter, market_id)
        samples = self._samples_cache.get(cache_key)
        if samples is None:
            samples = self.view.samples(parameter, market_id)
            self._samples_cache[cache_key] = samples
        return samples

    # -- global-learner comparison (Table 4 / Fig 10) ----------------------

    def compare_learners(
        self,
        factories: Mapping[str, Callable[[], Learner]],
        parameters: Sequence[str],
        market_id: Optional[MarketId] = None,
        folds: int = 3,
        max_samples_per_parameter: Optional[int] = 4000,
    ) -> ParameterAccuracy:
        """k-fold accuracy of each learner on each parameter.

        ``max_samples_per_parameter`` caps per-parameter sample counts
        with a *uniform* subsample: the paper's accuracy is an
        all-carriers population metric, so the estimator must not skew
        the label distribution.
        """
        market_name = (
            self.dataset.network.market(market_id).name
            if market_id is not None
            else None
        )
        results = ParameterAccuracy()
        for parameter in parameters:
            samples = self.samples(parameter, market_id)
            if len(samples) < folds * 2:
                continue
            if (
                max_samples_per_parameter is not None
                and len(samples) > max_samples_per_parameter
            ):
                picked = uniform_sample_indices(
                    len(samples), max_samples_per_parameter, seed=self.seed
                )
                samples = samples.subset(picked)
            distinct = len(set(samples.labels))
            for learner_name, factory in factories.items():
                hits = 0
                total = 0
                for train, test in kfold_indices(len(samples), folds, self.seed):
                    learner = factory()
                    learner.fit(
                        [samples.rows[i] for i in train],
                        [samples.labels[i] for i in train],
                    )
                    predictions = learner.predict([samples.rows[i] for i in test])
                    hits += sum(
                        1
                        for i, p in zip(test, predictions)
                        if p == samples.labels[i]
                    )
                    total += len(test)
                results.add(
                    LearnerScore(
                        learner=learner_name,
                        parameter=parameter,
                        accuracy=hits / total,
                        samples=len(samples),
                        distinct_values=distinct,
                        market=market_name,
                    )
                )
        return results

    # -- leave-one-out CF evaluation (sections 4.3.2-4.3.3) -----------------

    def loo_plan(
        self,
        parameters: Sequence[str],
        market_id: Optional[MarketId] = None,
        max_targets_per_parameter: Optional[int] = 2000,
    ) -> List[Tuple[str, List[int]]]:
        """The LOO evaluation plan: ``(parameter, target indices)`` pairs.

        Target subsampling happens here, in the master, from a stable
        per-parameter derived seed — so the plan is reproducible across
        processes and interpreter runs (``hash()``-free) and the
        process-pool path evaluates exactly the targets the serial path
        would.
        """
        plan: List[Tuple[str, List[int]]] = []
        for parameter in parameters:
            samples = self.samples(parameter, market_id)
            if not len(samples):
                continue
            indices = list(range(len(samples)))
            if (
                max_targets_per_parameter is not None
                and len(indices) > max_targets_per_parameter
            ):
                indices = uniform_sample_indices(
                    len(indices), max_targets_per_parameter,
                    seed=derive_seed(self.seed, f"loo-targets:{parameter}"),
                )
            plan.append((parameter, indices))
        return plan

    def loo_accuracy(
        self,
        engine: AuricEngine,
        parameters: Sequence[str],
        market_id: Optional[MarketId] = None,
        max_targets_per_parameter: Optional[int] = 2000,
        scopes: Tuple[str, ...] = ("local", "global"),
        jobs: int = 1,
    ) -> LocalVsGlobalResult:
        """Leave-one-out accuracy of the fitted Auric engine.

        Each evaluated target's own value is excluded from the vote; the
        recommendation is compared against the currently configured
        value.  Mismatches are collected per scope for Fig 12 labeling.

        ``jobs`` fans the evaluation out across a process pool
        (:mod:`repro.parallel.evaluate`); the sampled target indices are
        decided here first, so the parallel result — accuracies and
        mismatch lists alike — is identical to ``jobs=1``.
        """
        plan = self.loo_plan(parameters, market_id, max_targets_per_parameter)
        if jobs != 1 and plan:
            from repro.parallel.evaluate import parallel_loo_accuracy

            with tracing.span("eval.loo", parameters=len(plan), jobs=jobs):
                return parallel_loo_accuracy(
                    engine, plan, market_id, scopes, jobs
                )
        with tracing.span("eval.loo", parameters=len(plan), jobs=1):
            return self._loo_serial(engine, plan, market_id, scopes)

    def _loo_serial(
        self,
        engine: AuricEngine,
        plan: List[Tuple[str, List[int]]],
        market_id: Optional[MarketId],
        scopes: Tuple[str, ...],
    ) -> LocalVsGlobalResult:
        result = LocalVsGlobalResult()
        for parameter, indices in plan:
            samples = self.samples(parameter, market_id)
            hits, mismatches = evaluate_loo_chunk(
                engine, parameter, samples, indices, scopes
            )
            for scope in scopes:
                if scope == "local":
                    result.mismatches_local.extend(mismatches[scope])
                else:
                    result.mismatches_global.extend(mismatches[scope])
            n = len(indices)
            if "local" in scopes:
                result.parameter_accuracy_local[parameter] = hits["local"] / n
            if "global" in scopes:
                result.parameter_accuracy_global[parameter] = hits["global"] / n
            result.evaluated += n
        return result

    def shadow_audit(
        self,
        engine: AuricEngine,
        parameters: Optional[Sequence[str]] = None,
        max_targets_per_parameter: int = 50,
        scope: str = "global",
    ) -> Dict[str, float]:
        """A cheap LOO spot-check feeding the accuracy SLO.

        Samples a small per-parameter target set (deterministic via the
        runner's derived seeds) and leave-one-out-evaluates the *fitted*
        engine against the currently configured values — the shadow
        traffic a live deployment would replay off the serving path.
        Publishes ``repro_shadow_audit_accuracy`` (mean over parameters)
        and per-parameter ``repro_shadow_audit_parameter_accuracy``
        gauges on the global registry, which the stock
        ``shadow-accuracy`` SLO rule (:mod:`repro.obs.slo`) reads.
        Returns the per-parameter accuracies.
        """
        from repro.obs import metrics

        if parameters is None:
            parameters = engine.fitted_parameters()
        with tracing.span(
            "eval.shadow_audit", parameters=len(parameters)
        ) as sp:
            result = self.loo_accuracy(
                engine,
                parameters,
                max_targets_per_parameter=max_targets_per_parameter,
                scopes=(scope,),
            )
            accuracies = (
                result.parameter_accuracy_local
                if scope == "local"
                else result.parameter_accuracy_global
            )
            per_parameter = metrics.gauge(
                "repro_shadow_audit_parameter_accuracy",
                "Shadow LOO audit accuracy per parameter",
                labelnames=("parameter",),
            )
            for name, accuracy in accuracies.items():
                per_parameter.labels(parameter=name).set(accuracy)
            if accuracies:
                mean = sum(accuracies.values()) / len(accuracies)
                metrics.gauge(
                    "repro_shadow_audit_accuracy",
                    "Mean shadow LOO audit accuracy across parameters",
                ).set(mean)
                sp.set("accuracy", round(mean, 4))
            sp.set("targets", result.evaluated)
            return dict(accuracies)

    def loo_accuracy_by_market(
        self,
        engine: AuricEngine,
        parameter: str,
        max_targets_per_market: int = 500,
        scope: str = "local",
        jobs: int = 1,
    ) -> Dict[str, float]:
        """LOO accuracy of one parameter per market (the Fig 11 series)."""
        out: Dict[str, float] = {}
        for market in self.dataset.network.markets:
            result = self.loo_accuracy(
                engine,
                [parameter],
                market_id=market.market_id,
                max_targets_per_parameter=max_targets_per_market,
                scopes=(scope,),
                jobs=jobs,
            )
            accuracy = (
                result.parameter_accuracy_local
                if scope == "local"
                else result.parameter_accuracy_global
            ).get(parameter)
            if accuracy is not None:
                out[market.name] = accuracy
        return out
