"""Post-launch KPI monitoring and rollback.

Section 4.3.3 ("Implications of inaccurate recommendations") and
section 6: after a new carrier is unlocked, engineers monitor traffic
distribution and service KPIs (data throughput, voice call admissions);
unexpected degradation triggers an immediate rollback of the carrier's
configuration to its pre-change state.

The simulator draws KPIs from a healthy baseline; carriers whose pushed
configuration deviated from the generator's intended values degrade with
elevated probability, exercising the rollback path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.config.store import ConfigurationStore
from repro.netmodel.identifiers import CarrierId
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics, tracing
from repro.obs.logs import get_logger
from repro.rng import derive

logger = get_logger("ops.monitoring")
from repro.types import ParameterValue


@dataclass(frozen=True)
class KPIReport:
    """Post-unlock KPI snapshot for one carrier."""

    carrier_id: CarrierId
    throughput_mbps: float
    drop_rate: float
    admission_rate: float

    @property
    def healthy(self) -> bool:
        return (
            self.throughput_mbps >= 10.0
            and self.drop_rate <= 0.02
            and self.admission_rate >= 0.95
        )


class KPIMonitor:
    """Synthesises post-launch KPIs and performs rollbacks."""

    def __init__(
        self,
        store: ConfigurationStore,
        degradation_rate: float = 0.02,
        seed: int = 5150,
        changelog=None,
    ) -> None:
        if not 0.0 <= degradation_rate <= 1.0:
            raise ValueError("degradation_rate must be in [0, 1]")
        self.store = store
        self.degradation_rate = degradation_rate
        self._rng = derive(seed, "kpi-monitor")
        self._snapshots: Dict[CarrierId, Dict[str, ParameterValue]] = {}
        self.rollbacks: List[CarrierId] = []
        #: Optional audit log; rollbacks are recorded to it.
        self.changelog = changelog

    def snapshot(self, carrier_id: CarrierId) -> None:
        """Record the carrier's config before changes (rollback point)."""
        self._snapshots[carrier_id] = self.store.carrier_config(carrier_id)

    def observe(self, carrier_id: CarrierId, changed: bool) -> KPIReport:
        """Draw a KPI report; changed carriers carry the degradation risk."""
        degraded = changed and self._rng.random() < self.degradation_rate
        if degraded:
            report = KPIReport(
                carrier_id=carrier_id,
                throughput_mbps=float(self._rng.uniform(1.0, 8.0)),
                drop_rate=float(self._rng.uniform(0.03, 0.10)),
                admission_rate=float(self._rng.uniform(0.80, 0.94)),
            )
        else:
            report = KPIReport(
                carrier_id=carrier_id,
                throughput_mbps=float(self._rng.uniform(25.0, 90.0)),
                drop_rate=float(self._rng.uniform(0.001, 0.01)),
                admission_rate=float(self._rng.uniform(0.97, 1.0)),
            )
        self._record_observation(report)
        return report

    @staticmethod
    def _record_observation(report: KPIReport) -> None:
        obs_metrics.counter(
            "repro_kpi_observations_total",
            "Post-launch KPI observations by health",
            labelnames=("healthy",),
        ).labels(str(report.healthy).lower()).inc()

    def rollback(self, carrier_id: CarrierId) -> int:
        """Restore the pre-change configuration; returns the number of
        values the rollback changed back."""
        snapshot = self._snapshots.get(carrier_id)
        if snapshot is None:
            return 0
        with tracing.span("ops.rollback", carrier=str(carrier_id)) as sp:
            restored: List[str] = []
            for name, value in snapshot.items():
                current = self.store.get_singular(carrier_id, name)
                if current != value:
                    restored.append(name)
                    if self.changelog is not None:
                        from repro.ops.history import ChangeSource

                        self.changelog.record(
                            carrier_id, name, current, value,
                            ChangeSource.ROLLBACK,
                        )
                self.store.set_singular(carrier_id, name, value)
            sp.set("values", len(restored))
            self.rollbacks.append(carrier_id)
            obs_metrics.counter(
                "repro_rollbacks_total", "Post-launch configuration rollbacks"
            ).inc()
            obs_journal.record(
                "rollback",
                scope="ops",
                trigger="kpi-degradation",
                carrier=str(carrier_id),
                values_restored=len(restored),
                parameters=sorted(restored),
            )
            logger.warning(
                "configuration rolled back",
                extra={
                    "carrier": str(carrier_id),
                    "values_restored": len(restored),
                },
            )
            return len(restored)


class SimulationKPIMonitor(KPIMonitor):
    """KPI monitoring backed by the radio simulator.

    Instead of drawing KPIs from a distribution, this monitor runs the
    :class:`~repro.radio.simulator.RadioSimulator` over the carrier's
    eNodeB and its X2 neighborhood under the *current* configuration —
    so a genuinely harmful push (say, ``pMax`` crushed to 0 dBm, killing
    coverage, or ``qrxlevmin`` raised until nobody qualifies) produces
    degraded KPIs and triggers the rollback path physically, not
    probabilistically.
    """

    def __init__(self, network, store: ConfigurationStore, seed: int = 5150):
        super().__init__(store, degradation_rate=0.0, seed=seed)
        self.network = network
        self._sim_seed = seed

    def observe(self, carrier_id: CarrierId, changed: bool) -> KPIReport:
        from repro.radio.simulator import RadioSimulator

        enodeb_id = carrier_id.enodeb
        scope = [self.network.enodeb(enodeb_id)]
        for neighbor_id in self.network.x2.enodeb_neighbors(enodeb_id):
            scope.append(self.network.enodeb(neighbor_id))
        simulator = RadioSimulator(
            self.network, self.store, enodebs=scope, seed=self._sim_seed
        )
        report = simulator.run()
        kpi = report.kpi_of(carrier_id)
        if kpi is None or kpi.connected_users == 0:
            # No traffic landed on the carrier: treat coverage collapse
            # on a previously-offered carrier as degradation.
            offered = kpi.offered_users if kpi is not None else 0
            if changed and offered == 0 and report.users_total > 0:
                return KPIReport(carrier_id, 0.0, 0.0, 0.0)
            return KPIReport(carrier_id, 25.0, 0.0, 1.0)
        return KPIReport(
            carrier_id=carrier_id,
            throughput_mbps=max(kpi.mean_throughput_mbps, 0.0) * 10.0,
            drop_rate=kpi.drop_rate,
            admission_rate=kpi.admission_rate,
        )
