"""Snapshot refresh: carrier growth, full refits and drift-triggered
refits.

Tests that grow the store work on a private copy of it, so the package
dataset and the package-scoped ``fitted_engine`` are never mutated.
"""

import copy

import pytest

from repro.config.store import ConfigurationStore
from repro.core import AuricEngine
from repro.datagen.growth import build_growth_timeline
from repro.ops.history import ChangeLog, ChangeSource
from repro.serve import EngineRefresher, RecommendationService

from .conftest import SERVE_PARAMETERS, serve

START_QUARTER = 4


@pytest.fixture(scope="module")
def timeline(dataset):
    return build_growth_timeline(dataset.network, seed=11)


def active_at(timeline, quarter):
    return {
        cid for cid, q in timeline.activation_quarter.items() if q <= quarter
    }


def launch(store, source, active, log):
    """Write every value ``source`` configures on an ``active`` carrier
    (on both endpoints of a pair) that ``store`` lacks, and record each
    in ``log``: the launch of those carriers into the store."""
    for carrier in sorted(active):
        for name, value in sorted(source.carrier_config(carrier).items()):
            if store.get_singular(carrier, name) is None:
                store.set_singular(carrier, name, value)
                log.record(carrier, name, None, value, ChangeSource.MANUAL)
    for pair in sorted(source.pairs()):
        if pair.carrier not in active or pair.neighbor not in active:
            continue
        for name, value in sorted(source.pair_config(pair).items()):
            if store.get_pairwise(pair, name) is None:
                store.set_pairwise(pair, name, value)
                log.record(pair.carrier, name, None, value, ChangeSource.MANUAL)


def make_growth_service(dataset, timeline):
    """A service fitted on a store holding only the carriers active at
    the start quarter; returns it with that store."""
    store = ConfigurationStore(dataset.store.catalog)
    launch(store, dataset.store, active_at(timeline, START_QUARTER), ChangeLog())
    engine = AuricEngine(dataset.network, store).fit(list(SERVE_PARAMETERS))
    return RecommendationService(engine), store


def grow(dataset, timeline, store, quarter):
    """Launch the carriers active by ``quarter``; returns the changelog."""
    log = ChangeLog()
    launch(store, dataset.store, active_at(timeline, quarter), log)
    return log


def configure_unset_carriers(dataset, store):
    """Give every carrier that configures no value of a served singular
    parameter one (the launch of a carrier into the store); returns the
    carriers configured per parameter."""
    carriers = sorted(c.carrier_id for c in dataset.network.carriers())
    launched = {}
    for name in SERVE_PARAMETERS:
        if store.catalog.spec(name).is_pairwise:
            continue
        values = store.singular_values(name)
        value = sorted(set(values.values()), key=repr)[0]
        launched[name] = [c for c in carriers if c not in values]
        for carrier_id in launched[name]:
            store.set_singular(carrier_id, name, value)
    return launched


class TestIncrementalAdd:
    """Carrier growth replayed the one way in: a launch writes the
    carrier's values into the store and records them, and a changelog
    refit adds their votes to a new engine."""

    def test_growth_replay_adds_votes(self, dataset, timeline):
        service, store = make_growth_service(dataset, timeline)
        stale = service.engine
        before = len(stale.fitted_models()["pMax"].encoded.targets())
        log = grow(dataset, timeline, store, timeline.quarters - 1)
        launched = sum(
            len(timeline.launched_in(q))
            for q in range(START_QUARTER + 1, timeline.quarters)
        )
        assert launched > 0
        result = EngineRefresher(service).refit(log)
        assert result.mode == "incremental-refit"
        # New carriers change the sample topology: every parameter with
        # a launched value reselects.
        assert result.refitted["pMax"] == -1
        # The electorate now matches a from-scratch fit on all carriers
        # (not every launched carrier configures every parameter, so the
        # full fit — not the raw launch count — is the reference).
        full = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        expected = len(full.fitted_models()["pMax"].encoded.targets()) - before
        assert 0 < expected <= launched
        samples = service.engine.fitted_models()["pMax"].encoded.targets()
        assert samples == full.fitted_models()["pMax"].encoded.targets()
        # The engine it replaced keeps its own electorate.
        assert len(stale.fitted_models()["pMax"].encoded.targets()) == before

    def test_new_votes_change_answers(self, dataset, timeline):
        """The activated carriers actually vote: the engine can now
        answer leave-one-out for a carrier it had never seen."""
        service, store = make_growth_service(dataset, timeline)
        late = next(
            cid
            for cid, q in sorted(timeline.activation_quarter.items())
            if q > START_QUARTER and dataset.store.get_singular(cid, "pMax")
            is not None
        )
        assert late not in service.engine.fitted_models()["pMax"].encoded.targets()
        log = grow(dataset, timeline, store, timeline.quarters - 1)
        EngineRefresher(service).refit(log)
        assert late in service.engine.fitted_models()["pMax"].encoded.targets()
        rec = service.engine.recommend_for_carrier(
            "pMax", late, local=False, leave_one_out=True
        )
        assert rec.value is not None

    def test_incremental_invalidates_and_records(self, dataset, timeline):
        from repro.core import NewCarrierRequest

        service, store = make_growth_service(dataset, timeline)
        carrier_id = sorted(active_at(timeline, START_QUARTER))[0]
        attrs = dataset.network.carrier(carrier_id).attributes
        serve(service, NewCarrierRequest(attributes=attrs), parameters=["pMax"])
        assert service.cache_len() > 0
        log = grow(dataset, timeline, store, START_QUARTER + 2)
        assert len(log) > 0
        result = EngineRefresher(service).refit(log)
        assert result.refitted
        assert result.generation == service.generation == 1
        assert service.cache_len() == 0
        assert service.metrics.refreshes == 1
        assert service.metrics.refresh_duration.count == 1

    def test_pairwise_joins_when_endpoints_active(self, dataset, timeline):
        service, store = make_growth_service(dataset, timeline)
        before = len(service.engine.fitted_models()["hysA3Offset"].encoded.targets())
        log = grow(dataset, timeline, store, timeline.quarters - 1)
        EngineRefresher(service).refit(log)
        model = service.engine.fitted_models()["hysA3Offset"]
        assert len(model.encoded.targets()) > before
        active = active_at(timeline, timeline.quarters - 1)
        for pair in model.encoded.targets():
            assert pair.carrier in active and pair.neighbor in active
            value = dataset.store.get_pairwise(pair, "hysA3Offset")
            assert value is not None
        full = AuricEngine(dataset.network, dataset.store).fit(["hysA3Offset"])
        assert model.encoded.targets() == full.fitted_models()["hysA3Offset"].encoded.targets()


class TestFullRefit:
    def test_full_refit_matches_fresh_fit(self, dataset):
        """Values written into the store reach the votes through a full
        refit, which equals a from-scratch fit on the grown store."""
        store = copy.deepcopy(dataset.store)
        stale = AuricEngine(dataset.network, store).fit(list(SERVE_PARAMETERS))
        service = RecommendationService(stale)
        launched = configure_unset_carriers(dataset, store)
        assert any(launched.values())
        result = EngineRefresher(service).refit()
        assert result.mode == "full"
        assert result.generation == 1
        assert service.engine is not stale
        fresh = AuricEngine(dataset.network, store).fit(list(SERVE_PARAMETERS))
        for name in SERVE_PARAMETERS:
            samples = service.engine.fitted_models()[name].encoded.targets()
            assert samples == fresh.fitted_models()[name].encoded.targets()
            for carrier_id in launched.get(name, ()):
                assert carrier_id in samples
                assert carrier_id not in stale.fitted_models()[name].encoded.targets()

    def test_stale_engine_serves_until_swap(self, dataset):
        """Stale-but-available: the service keeps answering from the old
        engine while a replacement is fitted, then swaps atomically."""
        from repro.core import NewCarrierRequest

        stale = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(stale)
        carrier_id = sorted(dataset.store.singular_values("pMax"))[0]
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
        # The swap clears the sampled window — drift restarts from the
        # new generation, against the population the fresh fit votes
        # from.
        assert service.drift_window.seen == 0
        assert refresher.check_drift().report is None
        assert refresher.check_drift(live=live).report.stale

    def test_drift_report_none_without_window_or_baseline(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        # Tracking never enabled and no live override: nothing to score.
        assert service.drift_report() is None
        service.enable_drift_tracking(sample_every=1)
        # Tracking enabled but nothing served yet: the window is empty.
        assert service.drift_report() is None
        self._serve_population(service, dataset)
        # Every engine has the baseline of the snapshot it votes from.
        assert service.drift_report().verdict == "healthy"
