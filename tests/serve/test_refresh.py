"""Snapshot refresh: store subsets, incremental growth, full refits.

Every test fits its own engine on a *subset* store, so the package
dataset and the package-scoped ``fitted_engine`` are never mutated.
"""

import pytest

from repro.core import AuricEngine
from repro.datagen.growth import build_growth_timeline
from repro.serve import (
    EngineRefresher,
    GrowthReplay,
    RecommendationService,
    store_subset,
)

from .conftest import SERVE_PARAMETERS, serve

START_QUARTER = 4


@pytest.fixture(scope="module")
def timeline(dataset):
    return build_growth_timeline(dataset.network, seed=11)


@pytest.fixture(scope="module")
def initial_carriers(timeline):
    return {
        cid
        for cid, quarter in timeline.activation_quarter.items()
        if quarter <= START_QUARTER
    }


def make_replay_service(dataset, timeline, initial_carriers):
    """A service fitted only on carriers active at the start quarter."""
    subset = store_subset(dataset.store, initial_carriers)
    engine = AuricEngine(dataset.network, subset).fit(list(SERVE_PARAMETERS))
    service = RecommendationService(engine)
    replay = GrowthReplay(
        service, timeline, dataset.store, start_quarter=START_QUARTER
    )
    return service, replay


class TestStoreSubset:
    def test_keeps_only_listed_carriers(self, dataset, initial_carriers):
        subset = store_subset(dataset.store, initial_carriers)
        assert set(subset.carriers()) <= initial_carriers
        assert len(set(subset.carriers())) < len(set(dataset.store.carriers()))

    def test_pairs_need_both_endpoints(self, dataset, initial_carriers):
        subset = store_subset(dataset.store, initial_carriers)
        for pair in subset.pairs():
            assert pair.carrier in initial_carriers
            assert pair.neighbor in initial_carriers

    def test_values_are_copied_verbatim(self, dataset, initial_carriers):
        subset = store_subset(dataset.store, initial_carriers)
        carrier_id = sorted(subset.carriers())[0]
        assert subset.carrier_config(carrier_id) == dataset.store.carrier_config(
            carrier_id
        )


class TestIncrementalAdd:
    def test_growth_replay_adds_votes(self, dataset, timeline, initial_carriers):
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        model = service.engine.fitted_models()["pMax"]
        before = len(model.samples)
        result = replay.advance_to(timeline.quarters - 1)
        launched = sum(
            len(timeline.launched_in(q))
            for q in range(START_QUARTER + 1, timeline.quarters)
        )
        assert launched > 0
        assert result.mode == "incremental"
        # The electorate now matches a from-scratch fit on all carriers
        # (not every launched carrier configures every parameter, so the
        # full fit — not the raw launch count — is the reference).
        full = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        expected = len(full.fitted_models()["pMax"].samples) - before
        assert 0 < expected <= launched
        assert result.added.get("pMax", 0) == expected
        assert len(model.samples) == before + expected

    def test_new_votes_change_answers(self, dataset, timeline, initial_carriers):
        """The activated carriers actually vote: the engine can now
        answer leave-one-out for a carrier it had never seen."""
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        late = next(
            cid
            for cid, q in sorted(timeline.activation_quarter.items())
            if q > START_QUARTER
        )
        assert late not in service.engine.fitted_models()["pMax"].samples
        replay.advance_to(timeline.quarters - 1)
        assert late in service.engine.fitted_models()["pMax"].samples
        rec = service.engine.recommend_for_carrier(
            "pMax", late, local=False, leave_one_out=True
        )
        assert rec.value is not None

    def test_incremental_invalidates_and_records(
        self, dataset, timeline, initial_carriers
    ):
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        carrier_id = sorted(initial_carriers)[0]
        attrs = dataset.network.carrier(carrier_id).attributes
        from repro.core import NewCarrierRequest

        serve(service, 
            NewCarrierRequest(attributes=attrs), parameters=["pMax"]
        )
        assert service.cache_len() > 0
        result = replay.advance_to(START_QUARTER + 2)
        if result.total_added:
            assert service.cache_len() == 0
        assert service.metrics.refreshes == 1
        assert service.metrics.refresh_duration.count == 1

    def test_incremental_drops_stale_encoded_columns(
        self, dataset, timeline, initial_carriers
    ):
        """The store mutates under the engine's columnar snapshot: the
        affected parameters' encoded columns must be re-encoded before
        the next columnar fit."""
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        engine = service.engine
        snapshot = engine.columnar_snapshot()
        assert snapshot is not None
        result = replay.advance_to(START_QUARTER + 2)
        if not result.total_added:
            pytest.skip("no carriers launched in the replayed quarters")
        for name in result.added:
            assert not snapshot.has_parameter(name)
        # Refitting an updated parameter re-encodes from the mutated
        # store and picks up the new electorate.
        name = next(iter(result.added))
        before = len(engine.fitted_models()[name].samples)
        engine.fit([name])
        assert len(engine.fitted_models()[name].samples) == before

    def test_advance_backwards_rejected(self, dataset, timeline, initial_carriers):
        _, replay = make_replay_service(dataset, timeline, initial_carriers)
        with pytest.raises(ValueError, match="backwards"):
            replay.advance_to(START_QUARTER - 1)

    def test_pairwise_joins_when_endpoints_active(
        self, dataset, timeline, initial_carriers
    ):
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        model = service.engine.fitted_models()["hysA3Offset"]
        before = len(model.samples)
        replay.advance_to(timeline.quarters - 1)
        assert len(model.samples) > before
        for pair in model.samples:
            value = dataset.store.get_pairwise(pair, "hysA3Offset")
            assert value is not None


class TestFullRefit:
    def test_full_refit_matches_fresh_fit(self, dataset, timeline, initial_carriers):
        """incremental_add then a full refit converge: the refitted
        engine equals a from-scratch fit on the same (grown) store."""
        service, replay = make_replay_service(dataset, timeline, initial_carriers)
        replay.advance_to(timeline.quarters - 1)
        stale = service.engine
        result = EngineRefresher(service).refit()
        assert result.mode == "full"
        assert result.generation == 1
        assert service.engine is not stale
        fresh = AuricEngine(
            dataset.network, service.engine.store
        ).fit(list(SERVE_PARAMETERS))
        for name in SERVE_PARAMETERS:
            assert len(service.engine.fitted_models()[name].samples) == len(
                fresh.fitted_models()[name].samples
            )

    def test_stale_engine_serves_until_swap(self, dataset, initial_carriers, timeline):
        """Stale-but-available: the service keeps answering from the old
        engine while a replacement is fitted, then swaps atomically."""
        from repro.core import NewCarrierRequest

        service, _ = make_replay_service(dataset, timeline, initial_carriers)
        stale = service.engine
        carrier_id = sorted(initial_carriers)[0]
        request = NewCarrierRequest(
            attributes=dataset.network.carrier(carrier_id).attributes
        )
        before_swap = serve(service, request, parameters=["pMax"])
        # Build the replacement outside the service lock…
        replacement = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        # …the service still answers (old generation) until the swap.
        assert service.engine is stale
        assert serve(service, request, parameters=["pMax"]).value_map() == (
            before_swap.value_map()
        )
        generation = service.refresh_snapshot(replacement)
        assert generation == 1
        assert service.engine is replacement
        assert service.cache_len() == 0
        after = serve(service, request, parameters=["pMax"])
        assert after.recommendations["pMax"].value is not None


class TestDriftRefreshCycle:
    """check_drift: stationary streams stay quiet, shifts trigger."""

    def _make_service(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        service.enable_drift_tracking(sample_every=1)
        return service

    def _serve_population(self, service, dataset):
        """One pass over every carrier — the baseline population, so
        the sampled window is stationary by construction."""
        from repro.core.recommendation import RecommendRequest

        for carrier in dataset.network.carriers():
            service.handle(
                RecommendRequest(
                    carrier_id=carrier.carrier_id,
                    parameters=("pMax",),
                    leave_one_out=True,
                )
            )

    def test_stationary_stream_never_alerts(self, dataset):
        service = self._make_service(dataset)
        refresher = EngineRefresher(service)
        for cycle in range(10):
            self._serve_population(service, dataset)
            check = refresher.check_drift()
            assert check.report is not None, f"cycle {cycle}: no report"
            assert check.report.verdict == "healthy"
            assert not check.refit_recommended
            assert not check.refit_triggered

    def test_injected_shift_flagged_within_one_cycle(self, dataset):
        from repro.obs.health import attribute_distributions

        service = self._make_service(dataset)
        refresher = EngineRefresher(service)
        live = attribute_distributions(dataset.network)
        total = sum(live["hardware"].values())
        live["hardware"] = {"RRH9": total}
        check = refresher.check_drift(live=live)
        assert check.report is not None
        assert check.report.stale
        assert check.refit_recommended
        # Default posture: recommend only, never refit on its own.
        assert check.refreshed is None
        assert not check.refit_triggered

    def test_auto_refit_swaps_engine_and_resets_window(self, dataset):
        from repro.obs.health import attribute_distributions

        service = self._make_service(dataset)
        refresher = EngineRefresher(service, auto_refit=True)
        self._serve_population(service, dataset)
        assert service.drift_window.seen > 0
        stale_engine = service.engine
        live = attribute_distributions(dataset.network)
        total = sum(live["hardware"].values())
        live["hardware"] = {"RRH9": total}
        check = refresher.check_drift(live=live)
        assert check.refit_triggered
        assert check.refreshed.mode == "full"
        assert service.engine is not stale_engine
        # The fresh fit carries a fresh baseline, and the swap clears
        # the sampled window — drift restarts from the new generation.
        assert service.drift_baseline() is not None
        assert service.drift_window.seen == 0
        assert refresher.check_drift().report is None

    def test_drift_report_none_without_window_or_baseline(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        # Tracking never enabled and no live override: nothing to score.
        assert service.drift_report() is None
        engine.drift_baseline = None
        service.enable_drift_tracking(sample_every=1)
        self._serve_population(service, dataset)
        # Window populated but the baseline is gone (pre-v3 artifact).
        assert service.drift_report() is None
