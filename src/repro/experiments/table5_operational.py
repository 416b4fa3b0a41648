"""Table 5: two months of SmartLaunch operation.

Paper numbers: 1251 new carriers launched; Auric recommended changes on
143 (11.4%); 114 (9%) were implemented successfully (1102 parameters
changed); 29 fall-outs, caused by premature off-band unlocks and EMS
timeouts.

The simulation launches a stream of carriers: the integration vendor
sets an initial configuration from its (coarse, network-wide) rule-book;
SmartLaunch runs pre-checks, gets Auric's recommendation, pushes only
the confident mismatches through the EMS while the carrier is locked,
unlocks and monitors.  Expected shape: a ~10% minority of launches get
changes, most pushes succeed, and a small number of fall-outs split
between premature unlocks and EMS timeouts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.config.managed_objects import build_vendor_schema
from repro.config.templates import ConfigTemplate
from repro.core.auric import AuricEngine
from repro.core.recommendation import CarrierRecommendation
from repro.datagen.generator import SyntheticDataset
from repro.datagen.workloads import four_markets_workload
from repro.eval.splits import stratified_sample_indices
from repro.ops.controller import ConfigPushController
from repro.ops.ems import ElementManagementSystem
from repro.ops.monitoring import KPIMonitor
from repro.ops.smartlaunch import LaunchStats, SmartLaunch, SmartLaunchConfig
from repro.reporting.tables import format_table
from repro.rng import derive
from repro.types import ParameterValue, Vendor

@dataclass
class Table5Result:
    """The launch-campaign aggregate."""

    stats: LaunchStats

    def render(self) -> str:
        rows = [
            (label, count, f"{percent:.1f}%")
            for label, count, percent in self.stats.table5_rows()
        ]
        table = format_table(
            ["metric", "count", "% of launches"],
            rows,
            title="Table 5 — SmartLaunch operational experience",
        )
        outcomes = self.stats.outcome_counts()
        detail = ", ".join(
            f"{outcome.value}={count}"
            for outcome, count in outcomes.items()
            if count
        )
        return table + (
            f"\nparameters changed: {self.stats.parameters_changed}; "
            f"fall-outs: {self.stats.fallouts}; outcomes: {detail}"
        )


def run(
    dataset: Optional[SyntheticDataset] = None,
    launches: int = 1251,
    parameters: Optional[Sequence[str]] = None,
    vendor_error_rate: float = 0.001,
    seed: int = 2021,
) -> Table5Result:
    """Simulate a launch campaign of ``launches`` carriers.

    The vendor's initial configuration follows current network-wide
    practice (the global majority for the carrier's attribute class —
    vendors work from the engineering rule-books), with rare mistakes
    and out-of-date entries at ``vendor_error_rate`` per parameter.
    Auric's launch-time value-add is therefore exactly what section 5
    describes: catching vendor mistakes, out-of-date rule-books, and
    pending local tuning.

    The campaign pushes into a copy of ``dataset``'s store, which the
    engine is fitted on too, so the caller's dataset (a cached workload
    is shared) keeps its values.
    """
    if dataset is None:
        dataset = four_markets_workload()
    singular = [s.name for s in dataset.catalog.singular_parameters()]
    if parameters is None:
        parameters = singular
    store = copy.deepcopy(dataset.store)
    engine = AuricEngine(dataset.network, store).fit(parameters)

    schema = build_vendor_schema(Vendor.VENDOR_A, dataset.catalog)
    ems = ElementManagementSystem(dataset.network, store)
    controller = ConfigPushController(ems, ConfigTemplate(schema))
    monitor = KPIMonitor(store)
    workflow = SmartLaunch(controller, monitor, SmartLaunchConfig(seed=seed))

    # Launch candidates: existing carriers replayed as new launches
    # (their stored config is the post-launch truth the vendor would
    # converge to; the vendor's *initial* config comes from its book).
    all_carriers = sorted(
        c.carrier_id for c in dataset.network.carriers()
    )
    rng = derive(seed, "table5-launches")
    count = min(launches, len(all_carriers))
    picked = rng.choice(len(all_carriers), size=count, replace=False)
    launch_stream = []
    for i in sorted(picked):
        carrier_id = all_carriers[int(i)]
        vendor_config = _vendor_config(
            engine, dataset, carrier_id, parameters, vendor_error_rate, rng
        )
        recommendation = _recommend(engine, carrier_id, parameters)
        launch_stream.append((carrier_id, vendor_config, recommendation))

    stats = workflow.run_campaign(launch_stream)
    return Table5Result(stats=stats)


def _vendor_config(
    engine: AuricEngine,
    dataset: SyntheticDataset,
    carrier_id,
    parameters: Sequence[str],
    vendor_error_rate: float,
    rng,
    stale_book_rate: float = 0.045,
    stale_book_parameters: int = 8,
) -> Dict[str, ParameterValue]:
    """The vendor's initial configuration for a launching carrier.

    Vendors configure from current engineering rule-books — the global
    majority for the carrier's attribute class — with two error modes:
    rare per-parameter mistakes (``vendor_error_rate``) and occasional
    *stale rule-books* that set several parameters from an out-of-date
    edition at once (the paper's changed carriers averaged ~10 changed
    parameters each, which points at whole-book staleness rather than
    independent slips).
    """
    row = engine.carrier_row(carrier_id)
    stale: set = set()
    if rng.random() < stale_book_rate:
        count = min(stale_book_parameters, len(parameters))
        picked = rng.choice(len(parameters), size=count, replace=False)
        stale = {parameters[int(i)] for i in picked}
    config: Dict[str, ParameterValue] = {}
    for name in parameters:
        value = engine.recommend_global(name, row, exclude=carrier_id).value
        if name in stale or (
            vendor_error_rate > 0.0 and rng.random() < vendor_error_rate
        ):
            spec = dataset.catalog.spec(name)
            legal = spec.legal_values(limit=500)
            value = legal[int(rng.integers(0, len(legal)))]
        config[name] = value
    return config


def _recommend(
    engine: AuricEngine, carrier_id, parameters: Sequence[str]
) -> CarrierRecommendation:
    recommendation = CarrierRecommendation(target=str(carrier_id))
    for name in parameters:
        recommendation.add(
            engine.recommend_for_carrier(
                name, carrier_id, local=True, leave_one_out=True
            )
        )
    return recommendation
