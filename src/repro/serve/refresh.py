"""Snapshot refresh for a serving engine.

Networks grow continuously (the paper's opening observation; the
deployment stream of Table 5), and SmartLaunch pushes its own
recommendations back into the network, so a long-lived service cannot
fit once and serve forever.  An engine is never edited after its fit:
new configured values — pushed changes and newly launched carriers
alike — are written to the store, recorded in a changelog, and reach
the votes through a refit.

:func:`refit_engine` builds a new engine and
:meth:`EngineRefresher.refit` swaps it in atomically
(:meth:`RecommendationService.refresh_snapshot`), so the stale engine
keeps serving until the new one is ready.  Without a changelog it is a
complete re-fit on the current snapshot.  With one (the
:class:`~repro.ops.history.ChangeLog` the push controller writes), only
the touched parameters are refit: their label columns are re-encoded
against the mutated store, the vote structures rebuilt vectorized, and
chi-square attribute selection re-run *only when the changes could
have altered it* — when the capped fit subsample provably never saw a
changed sample (and the sample topology is unchanged), the previous
selection is reused, which is byte-identical to re-running it because
every chi-square builder re-ranks label codes to within-subsample
first-appearance order (bijective-recode invariant).  A new carrier's
values change the sample topology, so its parameters re-run selection.
Untouched parameters share the old engine's models, which a full refit
would reproduce bit-for-bit anyway.  The equivalence suite asserts the
whole engine matches a full refit on the same changelog.

A refit persists nothing: :func:`repro.serve.save_engine` on the
swapped-in engine writes its artifact (and, for an mmap engine, its
snapshot store).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.config.parameters import ParameterSpec
from repro.core.auric import AuricEngine, _ParameterModel
from repro.core.columnar import ParameterColumns
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.health import DriftReport
from repro.serve.service import RecommendationService

logger = logging.getLogger(__name__)


def _drift_payload(report: Optional[DriftReport]) -> Optional[Dict]:
    """The journal's compact drift summary for a report (or ``None``)."""
    if report is None:
        return None
    return {
        "verdict": report.verdict,
        "psi_max": round(report.psi_max, 6),
        "drifted": [d.attribute for d in report.drifted],
    }


@dataclass
class RefreshResult:
    """What one refresh did."""

    mode: str  # "incremental-refit" or "full"
    duration_s: float
    generation: int = 0
    #: parameter → number of changed sample positions (changelog
    #: refit only; -1 when the sample topology itself changed).
    refitted: Dict[str, int] = field(default_factory=dict)
    #: touched parameters whose chi-square selection was provably
    #: unaffected and therefore reused (changelog refit only).
    reused_selection: Tuple[str, ...] = ()
    #: touched parameters whose re-encoded columns came out identical
    #: (e.g. a rollback round-trip) — models kept as-is.
    skipped: Tuple[str, ...] = ()


@dataclass
class DriftCheck:
    """Outcome of one drift check against the serving baseline."""

    #: None when nothing live was scored.
    report: Optional[DriftReport]
    #: The verdict recommends a full refit (moderate or major drift).
    refit_recommended: bool
    #: The refit that ran, when :attr:`EngineRefresher.auto_refit` is on.
    refreshed: Optional[RefreshResult] = None

    @property
    def refit_triggered(self) -> bool:
        return self.refreshed is not None


def refit_engine(
    engine: AuricEngine, changes=None, jobs: int = 1
) -> Tuple[AuricEngine, RefreshResult]:
    """Build the engine that replaces ``engine`` on its current store.

    With ``changes=None`` this is a full fit of ``engine``'s fitted
    parameters; ``jobs`` fans it across a process pool.  With a
    changelog (a :class:`repro.ops.history.ChangeLog` or any iterable
    of its records) only the touched fitted parameters are refit, on a
    fork of ``engine`` that shares every other model and the attribute
    arrays.  Each touched parameter's label column is re-encoded
    against the mutated store and one of three things happens:

    * the re-encoded column is value-identical (e.g. a rollback
      round-trip) — the model is kept;
    * the sample topology is unchanged and every changed position falls
      outside the deterministic chi-square fit subsample — the previous
      attribute selection is **reused** (provably identical to
      re-running it, see the module docstring) and only the vote
      structures are rebuilt;
    * otherwise selection re-runs for that one parameter.

    Either way the new engine is byte-identical to a full fit on the
    same store, and ``engine`` itself is never modified.  When no model
    changed, the returned engine *is* ``engine``.  The returned result
    reports the per-parameter paths; its ``generation`` is the caller's
    to set.

    Every refit keeps the vote weights (section 6 performance feedback)
    that ``engine``'s models carry: the changelog branch refits each
    touched model with its own weights, a full refit with the union of
    every model's.  A target none of them weighs — a newly configured
    carrier — weighs 1.
    """
    started = time.perf_counter()
    if changes is None:
        models = engine.fitted_models()
        weights: Dict[Hashable, float] = {}
        for name in sorted(models):
            weights.update(models[name].weights)
        fresh = AuricEngine(engine.network, engine.store, engine.config).fit(
            engine.fitted_parameters(), vote_weights=weights or None, jobs=jobs
        )
        return fresh, RefreshResult(
            mode="full", duration_s=time.perf_counter() - started
        )
    models = engine.fitted_models()
    fork = _fork(engine)
    refitted: Dict[str, int] = {}
    reused: List[str] = []
    skipped: List[str] = []
    for name in sorted({record.parameter for record in changes}):
        model = models.get(name)
        if model is None:
            continue  # not served; nothing fitted to refresh
        new_model, changed_count, reuse = _refit_parameter(
            fork, engine.catalog.spec(name), model
        )
        if new_model is None:
            skipped.append(name)
            continue
        fork.install_model(name, new_model)
        refitted[name] = changed_count
        if reuse:
            reused.append(name)
    # The fork's encode / select / vote time, like a full fit's.
    fork._observe_fit_phases()
    result = RefreshResult(
        mode="incremental-refit",
        duration_s=time.perf_counter() - started,
        refitted=refitted,
        reused_selection=tuple(reused),
        skipped=tuple(skipped),
    )
    return (fork if refitted else engine), result


def _fork(engine: AuricEngine) -> AuricEngine:
    """A new engine sharing ``engine``'s models, attribute arrays and
    lineage, but owning its model dict and parameter-column dict — what
    a changelog refit edits instead of ``engine``."""
    fork = AuricEngine(engine.network, engine.store, engine.config)
    for name, model in engine.fitted_models().items():
        fork.install_model(name, model)
    snapshot = engine.columnar_snapshot()
    if snapshot is not None:
        fork.attach_columnar(snapshot.shallow_copy())
    fork.lineage = engine.lineage
    return fork


def _refit_parameter(
    engine: AuricEngine,
    spec: ParameterSpec,
    old_model: _ParameterModel,
) -> Tuple[Optional[_ParameterModel], int, bool]:
    """Refit one touched parameter; ``(model, changed, reused)``.

    ``model`` is ``None`` when the mutated store encodes to columns
    value-identical to the fitted ones (keep the old model);
    ``changed`` counts changed sample positions (-1 when the topology
    itself changed); ``reused`` flags a reused selection.  The new
    model keeps ``old_model``'s vote weights.
    """
    weights = old_model.weights or None
    old_columns = old_model.encoded.columns
    # Re-encode this parameter's label column against the mutated
    # store (the attribute matrix is untouched by config changes).
    engine.invalidate_columnar(spec.name)
    new_columns = engine.ensure_columnar([spec]).parameter(spec.name)
    changed = _changed_positions(old_columns, new_columns)
    if changed is not None and len(changed) == 0:
        return None, 0, False
    if changed is not None:
        picked = engine._fit_sample_positions(spec.name, len(new_columns))
        if picked is not None and not np.isin(changed, picked).any():
            # Selection only ever saw the picked subsample, whose
            # labels (and all attribute codes) are unchanged — the
            # chi-square pass would reproduce the old outcome bit for
            # bit, so skip straight to the vote rebuild.
            model = engine._build_columnar_model(
                spec,
                old_model.dependent_columns,
                old_model.dependent_stats,
                weights,
            )
            return model, int(len(changed)), True
    return (
        engine._fit_parameter(spec, weights),
        int(len(changed)) if changed is not None else -1,
        False,
    )


def _changed_positions(
    old_columns: ParameterColumns, new_columns: ParameterColumns
) -> Optional[np.ndarray]:
    """Sample positions whose configured value changed, or ``None``
    when the topology (which targets exist) changed too."""
    if len(old_columns) != len(new_columns):
        return None
    if not np.array_equal(old_columns.sources, new_columns.sources):
        return None
    if (old_columns.neighbors is None) != (new_columns.neighbors is None):
        return None
    if old_columns.neighbors is not None and not np.array_equal(
        old_columns.neighbors, new_columns.neighbors
    ):
        return None
    old_labels = np.asarray(old_columns.label_vocab, dtype=object)[
        old_columns.label_codes
    ]
    new_labels = np.asarray(new_columns.label_vocab, dtype=object)[
        new_columns.label_codes
    ]
    return np.nonzero(old_labels != new_labels)[0]


def _count_changelog_refit(result: RefreshResult) -> None:
    """Feed the ``repro_store_*refit*`` counters for one changelog refit."""
    obs_metrics.counter(
        "repro_store_incremental_refit_total",
        "Changelog-scoped incremental refits",
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_refit_parameters_total",
        "Parameters refit by incremental refits",
    ).inc(float(len(result.refitted)))
    obs_metrics.counter(
        "repro_store_selection_reused_total",
        "Chi-square selections reused across incremental refits",
    ).inc(float(len(result.reused_selection)))
    obs_metrics.counter(
        "repro_store_refit_samples_total",
        "Changed sample positions handled by incremental refits",
    ).inc(float(sum(c for c in result.refitted.values() if c > 0)))


class EngineRefresher:
    """Keeps a service's engine in step with a growing network.

    With ``auto_refit`` on, :meth:`check_drift` escalates a stale drift
    verdict straight into a full :meth:`refit`; the default merely
    *recommends*, leaving the refit decision to the operator (the
    paper's §6 posture: automation proposes, humans approve).
    """

    def __init__(self, service: RecommendationService, auto_refit: bool = False):
        self.service = service
        self.auto_refit = auto_refit

    def check_drift(self, live=None, jobs: int = 1) -> DriftCheck:
        """Score drift and (optionally) act on a stale verdict.

        ``live`` overrides the service's sampled request window — pass
        :func:`repro.obs.health.attribute_distributions` output to score
        a whole candidate snapshot.
        """
        report = self.service.drift_report(live)
        stale = report is not None and report.stale
        obs_journal.record(
            "drift-check",
            scope="service",
            stream=self.service.journal_stream,
            generation=self.service.generation,
            parent_generation=self.service.generation,
            drift=_drift_payload(report),
            refit_recommended=stale,
            auto_refit=self.auto_refit,
        )
        if not stale:
            return DriftCheck(
                report=report, refit_recommended=False
            )
        logger.warning(
            "drift check recommends refit",
            extra={
                "verdict": report.verdict,
                "psi_max": round(report.psi_max, 4),
                "auto_refit": self.auto_refit,
            },
        )
        if not self.auto_refit:
            return DriftCheck(report=report, refit_recommended=True)
        result = self.refit(jobs=jobs, trigger="drift", drift_report=report)
        return DriftCheck(
            report=report, refit_recommended=True, refreshed=result
        )

    def refit(
        self,
        changes=None,
        jobs: int = 1,
        trigger: Optional[str] = None,
        drift_report: Optional[DriftReport] = None,
    ) -> RefreshResult:
        """Refit the serving engine and swap the new one in.

        ``changes=None`` refits every fitted parameter from scratch;
        a changelog refits only the parameters it touched (see
        :func:`refit_engine`).  The new engine is built while the old
        one keeps serving (stale-but-available), then
        :meth:`RecommendationService.refresh_snapshot` swaps it in: the
        generation bumps and the vote cache clears.  A changelog refit
        that changed no model swaps nothing and keeps the generation.

        ``trigger`` and ``drift_report`` annotate the lifecycle-journal
        record — :meth:`check_drift` passes them so the journal ties the
        new generation to the drift scores that caused it.
        """
        records = None if changes is None else list(changes)
        started = time.perf_counter()
        span_name = (
            "refresh.full" if records is None else "refresh.incremental_refit"
        )
        with tracing.span(span_name, jobs=jobs) as sp:
            old = self.service.engine
            engine, result = refit_engine(old, records, jobs=jobs)
            swapped = engine is not old
            generation = self.service.generation
            if swapped:
                generation = self.service.refresh_snapshot(engine)
            duration = time.perf_counter() - started
            self.service.metrics.record_refresh(duration)
            sp.set("swapped", swapped)
            if records is None:
                event, default_trigger = "full-refit", "manual"
                refit = {"kind": "full"}
                attrs = {
                    "parameters": len(engine.fitted_parameters()),
                    "jobs": jobs,
                    "engine_stream": engine.lineage,
                }
            else:
                _count_changelog_refit(result)
                event, default_trigger = "incremental-refit", "changelog"
                refit = {
                    "kind": "incremental",
                    "refitted": dict(result.refitted),
                    "reused_selection": list(result.reused_selection),
                    "skipped": list(result.skipped),
                }
                attrs = {"changes": len(records)}
            obs_journal.record(
                event,
                scope="service",
                stream=self.service.journal_stream,
                generation=generation,
                parent_generation=generation - 1 if swapped else generation,
                trigger=trigger or default_trigger,
                drift=_drift_payload(drift_report),
                refit=refit,
                duration_s=duration,
                **attrs,
            )
            logger.info(
                "refit applied",
                extra={
                    "mode": result.mode,
                    "swapped": swapped,
                    "generation": generation,
                    "refitted": len(result.refitted),
                    "selection_reused": len(result.reused_selection),
                    "unchanged": len(result.skipped),
                    "duration_s": round(duration, 6),
                },
            )
            return replace(result, duration_s=duration, generation=generation)
