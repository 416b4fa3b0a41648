"""SmartLaunch: the automated carrier-launch workflow.

The production workflow of section 5: vendors physically integrate a new
carrier and set its initial software configuration; SmartLaunch then
runs pre-checks, generates Auric's recommendation, pushes only the
mismatches through the EMS *while the carrier is still locked*, unlocks
the carrier, and monitors alarms/KPIs as post-checks (rolling back on
degradation).

The two fall-out causes the paper reports are both modelled:

* **premature unlock** — an engineer unlocks the carrier through an
  off-band interface between the recommendation and the push, so the
  conservative controller skips it, and
* **EMS timeout** — large parameter batches exceed what the EMS can
  execute concurrently.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.pipeline import NewCarrierRequest
from repro.core.recommendation import CarrierRecommendation, RecommendRequest
from repro.exceptions import RecommendationError
from repro.netmodel.identifiers import CarrierId
from repro.obs import journal as obs_journal
from repro.obs import tracing
from repro.obs.provenance import ResultExplanation
from repro.ops.controller import ConfigPushController, PushOutcome, PushResult
from repro.ops.monitoring import KPIMonitor
from repro.ops.prechecks import run_prechecks
from repro.rng import derive
from repro.serve.refresh import EngineRefresher
from repro.types import ParameterValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import RecommendationService

logger = logging.getLogger(__name__)


class LaunchOutcome(enum.Enum):
    """Final status of one carrier launch."""

    LAUNCHED_NO_CHANGES = "launched-no-changes"
    LAUNCHED_WITH_CHANGES = "launched-with-changes"
    FALLOUT_PREMATURE_UNLOCK = "fallout-premature-unlock"
    FALLOUT_EMS_TIMEOUT = "fallout-ems-timeout"
    FALLOUT_PRECHECK = "fallout-precheck"
    ROLLED_BACK = "rolled-back"


#: Outcomes counted as fall-outs in Table 5.
FALLOUT_OUTCOMES = frozenset(
    {
        LaunchOutcome.FALLOUT_PREMATURE_UNLOCK,
        LaunchOutcome.FALLOUT_EMS_TIMEOUT,
        LaunchOutcome.FALLOUT_PRECHECK,
    }
)


@dataclass(frozen=True)
class SmartLaunchConfig:
    """Workflow behaviour knobs."""

    #: Probability an engineer unlocks the carrier off-band before the
    #: controller's push lands.
    premature_unlock_rate: float = 0.10
    seed: int = 314
    #: Ask the recommendation service for provenance on every resolved
    #: request; the explanation rides on the launch record and the
    #: pushed changes' audit-log entries.
    explain: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.premature_unlock_rate <= 1.0:
            raise ValueError("premature_unlock_rate must be in [0, 1]")


@dataclass
class LaunchRecord:
    """Everything that happened for one launch."""

    carrier_id: CarrierId
    outcome: LaunchOutcome
    changes_recommended: int
    parameters_pushed: int
    push_result: Optional[PushResult] = None
    #: Recommendation provenance, when the workflow asked for it
    #: (:attr:`SmartLaunchConfig.explain`).
    explanation: Optional[ResultExplanation] = None


@dataclass
class LaunchStats:
    """Aggregate over a launch campaign — the Table 5 rows."""

    records: List[LaunchRecord] = field(default_factory=list)

    def add(self, record: LaunchRecord) -> None:
        self.records.append(record)

    @property
    def launched(self) -> int:
        return len(self.records)

    @property
    def changes_recommended(self) -> int:
        """Carriers for which Auric recommended at least one change."""
        return sum(1 for r in self.records if r.changes_recommended > 0)

    @property
    def changes_implemented(self) -> int:
        """Carriers whose changes were successfully pushed."""
        return sum(
            1 for r in self.records if r.outcome is LaunchOutcome.LAUNCHED_WITH_CHANGES
        )

    @property
    def parameters_changed(self) -> int:
        return sum(r.parameters_pushed for r in self.records)

    @property
    def fallouts(self) -> int:
        return sum(1 for r in self.records if r.outcome in FALLOUT_OUTCOMES)

    @property
    def rollbacks(self) -> int:
        return sum(1 for r in self.records if r.outcome is LaunchOutcome.ROLLED_BACK)

    def outcome_counts(self) -> Dict[LaunchOutcome, int]:
        counts: Dict[LaunchOutcome, int] = {o: 0 for o in LaunchOutcome}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    def table5_rows(self) -> List[tuple]:
        """(label, count, percent-of-launches) rows, Table 5 layout."""
        n = max(self.launched, 1)
        return [
            ("New carriers launched", self.launched, 100.0),
            (
                "Changes recommended by Auric",
                self.changes_recommended,
                100.0 * self.changes_recommended / n,
            ),
            (
                "Changes implemented successfully",
                self.changes_implemented,
                100.0 * self.changes_implemented / n,
            ),
        ]


class SmartLaunch:
    """The launch workflow orchestrator."""

    def __init__(
        self,
        controller: ConfigPushController,
        monitor: KPIMonitor,
        config: Optional[SmartLaunchConfig] = None,
        service: Optional["RecommendationService"] = None,
    ) -> None:
        self.controller = controller
        self.monitor = monitor
        self.config = config or SmartLaunchConfig()
        #: Optional long-lived recommendation service.  With it, launch
        #: entries may carry a :class:`NewCarrierRequest` instead of a
        #: pre-computed recommendation — the workflow asks the service
        #: (one persistent fitted engine, cached voting) instead of the
        #: caller refitting an engine per carrier.
        self.service = service
        self._rng = derive(self.config.seed, "smartlaunch")

    def _resolve(
        self,
        recommendation: Union[CarrierRecommendation, NewCarrierRequest],
        parameters: Optional[Sequence[str]] = None,
    ) -> Tuple[CarrierRecommendation, Optional[ResultExplanation]]:
        """Resolve a launch entry to (recommendation, explanation).

        Pre-computed recommendations carry no explanation; service
        resolutions request one when the workflow's ``explain`` knob is
        on.
        """
        if isinstance(recommendation, CarrierRecommendation):
            return recommendation, None
        if self.service is None:
            raise RecommendationError(
                "launch entry is a NewCarrierRequest but SmartLaunch has "
                "no recommendation service attached"
            )
        unified = RecommendRequest.from_new_carrier(
            recommendation,
            parameters=tuple(parameters) if parameters is not None else None,
        )
        if self.config.explain:
            unified = replace(unified, explain=True)
        result = self.service.handle(unified)
        return result.recommendation, result.explain

    def launch_request(
        self,
        carrier_id: CarrierId,
        vendor_config: Dict[str, ParameterValue],
        request: NewCarrierRequest,
        parameters: Optional[Sequence[str]] = None,
    ) -> LaunchRecord:
        """Launch one carrier, recommendations served by the service."""
        recommendation, explanation = self._resolve(request, parameters)
        return self.launch(
            carrier_id, vendor_config, recommendation, explanation
        )

    def launch(
        self,
        carrier_id: CarrierId,
        vendor_config: Dict[str, ParameterValue],
        recommendation: CarrierRecommendation,
        explanation: Optional[ResultExplanation] = None,
    ) -> LaunchRecord:
        """Run the full workflow for one new carrier.

        ``vendor_config`` is the initial configuration the integration
        vendor set; the controller pushes only Auric's confident
        mismatches against it.  ``explanation`` (when the resolution
        produced one) rides on the launch record and is audited with
        the pushed changes.
        """
        with tracing.span("ops.launch", carrier=str(carrier_id)) as sp:
            record = self._launch(
                carrier_id, vendor_config, recommendation, explanation
            )
            record.explanation = explanation
            sp.set("outcome", record.outcome.value)
            obs_journal.record(
                "launch",
                scope="ops",
                trigger="smartlaunch",
                carrier=str(carrier_id),
                outcome=record.outcome.value,
                changes_recommended=record.changes_recommended,
                parameters_pushed=record.parameters_pushed,
            )
            logger.info(
                "carrier launch finished",
                extra={
                    "carrier": str(carrier_id),
                    "outcome": record.outcome.value,
                    "changes_recommended": record.changes_recommended,
                    "parameters_pushed": record.parameters_pushed,
                },
            )
            return record

    def _launch(
        self,
        carrier_id: CarrierId,
        vendor_config: Dict[str, ParameterValue],
        recommendation: CarrierRecommendation,
        explanation: Optional[ResultExplanation] = None,
    ) -> LaunchRecord:
        ems = self.controller.ems
        network = ems.network
        ems.lock_carrier(carrier_id)  # new carriers arrive locked

        precheck = run_prechecks(network, carrier_id)
        diff = self.controller.plan(carrier_id, vendor_config, recommendation)
        changes_recommended = len(diff)
        if not precheck.passed:
            ems.unlock_carrier(carrier_id)
            return LaunchRecord(
                carrier_id, LaunchOutcome.FALLOUT_PRECHECK, changes_recommended, 0
            )

        # An engineer may unlock the carrier off-band before our push.
        if (
            changes_recommended > 0
            and self._rng.random() < self.config.premature_unlock_rate
        ):
            ems.unlock_carrier(carrier_id)

        self.monitor.snapshot(carrier_id)
        push = self.controller.push(
            carrier_id, vendor_config, recommendation, provenance=explanation
        )
        ems.unlock_carrier(carrier_id)

        if push.outcome is PushOutcome.SKIPPED_UNLOCKED:
            return LaunchRecord(
                carrier_id,
                LaunchOutcome.FALLOUT_PREMATURE_UNLOCK,
                changes_recommended,
                0,
                push,
            )
        if push.outcome is PushOutcome.EMS_TIMEOUT:
            return LaunchRecord(
                carrier_id,
                LaunchOutcome.FALLOUT_EMS_TIMEOUT,
                changes_recommended,
                0,
                push,
            )

        changed = push.outcome is PushOutcome.PUSHED
        report = self.monitor.observe(carrier_id, changed=changed)
        if changed and not report.healthy:
            self.monitor.rollback(carrier_id)
            return LaunchRecord(
                carrier_id,
                LaunchOutcome.ROLLED_BACK,
                changes_recommended,
                push.parameters_pushed,
                push,
            )
        outcome = (
            LaunchOutcome.LAUNCHED_WITH_CHANGES
            if changed
            else LaunchOutcome.LAUNCHED_NO_CHANGES
        )
        return LaunchRecord(
            carrier_id, outcome, changes_recommended, push.parameters_pushed, push
        )

    def run_campaign(
        self,
        launches: Iterable[tuple],
    ) -> LaunchStats:
        """Launch a sequence of (carrier_id, vendor_config, recommendation).

        The third element may be a pre-computed
        :class:`CarrierRecommendation` or, when a service is attached, a
        :class:`NewCarrierRequest` the service resolves at launch time.

        When a service is attached and the controller keeps a
        changelog, the campaign ends with one refit over the changes it
        recorded, so the pushed values join the votes once per launch
        wave (a campaign that changed no model swaps nothing).
        """
        changelog = self.controller.changelog
        first = len(changelog) if changelog is not None else 0
        stats = LaunchStats()
        for carrier_id, vendor_config, recommendation in launches:
            resolved, explanation = self._resolve(recommendation)
            stats.add(
                self.launch(carrier_id, vendor_config, resolved, explanation)
            )
        if self.service is not None and changelog is not None:
            EngineRefresher(self.service).refit(
                changelog.all_records()[first:], trigger="campaign"
            )
        return stats
