"""RecommendationService: caching, cold start, invalidation, ops wiring.

The push-integration tests at the bottom mutate the package dataset's
store (EMS pushes); they are deliberately placed in this module, which
sorts after the read-only artifact/refresh suites.
"""

import copy
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config.managed_objects import build_vendor_schema
from repro.config.templates import ConfigTemplate
from repro.core import AuricEngine, NewCarrierRequest
from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
)
from repro.exceptions import RecommendationError
from repro.obs import journal as obs_journal
from repro.ops.controller import ConfigPushController
from repro.ops.ems import ElementManagementSystem, EMSConfig
from repro.ops.history import ChangeLog
from repro.ops.monitoring import KPIMonitor
from repro.ops.smartlaunch import SmartLaunch, SmartLaunchConfig
from repro.serve import RecommendationService
from repro.types import Vendor

from .conftest import SERVE_PARAMETERS, serve, serve_batch

SINGULAR = ["pMax", "inactivityTimer"]


@pytest.fixture()
def service(fitted_engine, rulebook):
    return RecommendationService(fitted_engine, rulebook)


def make_requests(dataset, count):
    """Requests modeled on existing carriers (attributes + eNodeB)."""
    requests = []
    for enodeb in dataset.network.enodebs():
        for template in enodeb.carriers():
            requests.append(
                NewCarrierRequest(
                    attributes=template.attributes, enodeb_id=enodeb.enodeb_id
                )
            )
            if len(requests) == count:
                return requests
    return requests


class TestServing:
    def test_batch_of_100_hits_cache(self, service, dataset):
        """The acceptance scenario: a 100-request batch must report
        cache hits — repeated (cell, neighborhood) pairs vote once."""
        unique = make_requests(dataset, 50)
        requests = (unique * 2)[:100]
        results = serve_batch(service, requests, parameters=SINGULAR)
        assert len(results) == 100
        metrics = service.metrics.as_dict()
        assert metrics["requests"] == 100
        assert metrics["cache_hits"] >= 1
        assert metrics["cache_hit_rate"] > 0.0
        # Duplicated requests get identical answers.
        for first, second in zip(results[: len(unique)], results[len(unique):]):
            assert first.value_map() == second.value_map()

    def test_matches_live_engine(self, service, fitted_engine, dataset):
        """Cached service answers equal direct engine votes."""
        for request in make_requests(dataset, 10):
            served = serve(service, request, parameters=["pMax"])
            neighborhood = fitted_engine.request_neighborhood(request)
            row = request.attributes.as_tuple()
            if neighborhood:
                direct = fitted_engine.recommend_local(
                    "pMax", row, fitted_engine.voters(neighborhood), exclude=None
                )
            else:
                direct = fitted_engine.recommend_global("pMax", row, exclude=None)
            assert served.recommendations["pMax"] == direct

    def test_default_parameters_serve_full_config(self, service, dataset):
        request = make_requests(dataset, 1)[0]
        result = serve(service, request)
        singular_range = {
            s.name for s in dataset.catalog.singular_parameters()
        }
        assert singular_range <= set(result.value_map())

    def test_pairwise_parameter_rejected_in_recommend(self, service, dataset):
        request = make_requests(dataset, 1)[0]
        with pytest.raises(RecommendationError, match="pair-wise"):
            serve(service, request, parameters=["hysA3Offset"])

    def test_recommend_neighbors(self, service, fitted_engine, dataset):
        enodeb = next(dataset.network.enodebs())
        template = next(enodeb.carriers())
        neighbors = tuple(
            sorted(fitted_engine.neighborhood_of(template.carrier_id))[:3]
        )
        assert neighbors
        request = NewCarrierRequest(
            attributes=template.attributes,
            enodeb_id=enodeb.enodeb_id,
            neighbor_carriers=neighbors,
        )
        results = service.recommend_neighbors(request, parameters=["hysA3Offset"])
        assert set(results) == set(neighbors)
        for recommendation in results.values():
            assert "hysA3Offset" in recommendation.value_map()

    def test_recommend_neighbors_points_singular_parameters_at_handle(
        self, service, dataset
    ):
        template = next(dataset.network.carriers())
        request = NewCarrierRequest(attributes=template.attributes)
        with pytest.raises(
            RecommendationError, match=r"^pMax is singular; use handle\(\)$"
        ):
            service.recommend_neighbors(request, parameters=["pMax"])
        assert callable(service.handle)

    def test_thread_safety_smoke(self, service, dataset):
        requests = make_requests(dataset, 20)
        baseline = [
            r.value_map()
            for r in serve_batch(service, requests, parameters=SINGULAR)
        ]

        def serve_all(_):
            return [
                serve(service, req, parameters=SINGULAR).value_map()
                for req in requests
            ]

        with ThreadPoolExecutor(max_workers=4) as pool:
            for result in pool.map(serve_all, range(4)):
                assert result == baseline


class TestColdStart:
    def test_unfitted_parameter_falls_back_to_rulebook(
        self, service, rulebook, dataset
    ):
        """qHyst is a range parameter the engine never fitted: the
        service must answer from the rule-book, count a fallback, and
        not raise."""
        request = make_requests(dataset, 1)[0]
        before = service.metrics.fallbacks
        result = serve(service, request, parameters=["qHyst"])
        rec = result.recommendations["qHyst"]
        assert rec.scope == "rulebook"
        assert rec.value == rulebook.value_for("qHyst", request.attributes)
        assert not rec.confident
        assert service.metrics.fallbacks == before + 1
        assert service.metrics.fallback_rate > 0.0

    def test_unobserved_cell_never_raises(self, service, dataset):
        """An attribute combination no carrier has ever exhibited must
        still produce an answer (the engine relaxes to the global
        distribution; the rule-book backstops it)."""
        template = make_requests(dataset, 1)[0]
        weird = NewCarrierRequest(
            attributes=template.attributes.replace(
                carrier_frequency=99999,
                hardware="RRH-unseen",
                morphology="lunar",
            )
        )
        result = serve(service, weird, parameters=SINGULAR)
        for name in SINGULAR:
            assert result.recommendations[name].value is not None

    def test_no_rulebook_unfitted_parameter_raises(self, fitted_engine, dataset):
        bare = RecommendationService(fitted_engine, rulebook=None)
        request = make_requests(dataset, 1)[0]
        with pytest.raises(RecommendationError, match="no rule-book"):
            serve(bare, request, parameters=["qHyst"])


class TestInvalidation:
    def test_invalidate_all(self, service, dataset):
        serve_batch(service, make_requests(dataset, 5), parameters=SINGULAR)
        assert service.cache_len() > 0
        dropped = service.invalidate()
        assert dropped > 0
        assert service.cache_len() == 0
        assert service.metrics.invalidations == 1

    def test_invalidate_one_parameter(self, service, dataset):
        serve_batch(service, make_requests(dataset, 5), parameters=SINGULAR)
        total = service.cache_len()
        dropped = service.invalidate("pMax")
        assert 0 < dropped < total
        assert service.cache_len() == total - dropped

    def test_refresh_snapshot_swaps_and_clears(self, fitted_engine, rulebook, dataset):
        service = RecommendationService(fitted_engine, rulebook)
        serve_batch(service, make_requests(dataset, 3), parameters=SINGULAR)
        assert service.cache_len() > 0
        generation = service.refresh_snapshot(fitted_engine)
        assert generation == 1
        assert service.cache_len() == 0


def confident_pmax(carrier_id, value):
    recommendation = CarrierRecommendation(str(carrier_id))
    recommendation.add(
        ParameterRecommendation(
            parameter="pMax", value=value, support=0.9,
            matched=10, confident=True, scope="local",
        )
    )
    return recommendation


def loo_pmax(service, carriers):
    """The service's leave-one-out pMax answer for every carrier."""
    return [
        service.handle(
            RecommendRequest(
                carrier_id=carrier, parameters=("pMax",), leave_one_out=True
            )
        ).recommendation.recommendations["pMax"]
        for carrier in carriers
    ]


class TestOpsIntegration:
    def make_push_stack(self, dataset, store):
        ems = ElementManagementSystem(
            dataset.network,
            store,
            EMSConfig(base_timeout_rate=0.0, per_parameter_timeout_rate=0.0),
        )
        schema = build_vendor_schema(Vendor.VENDOR_A, dataset.catalog)
        controller = ConfigPushController(
            ems, ConfigTemplate(schema), changelog=ChangeLog()
        )
        return ems, controller

    def make_campaign(self, dataset, service, store):
        _, controller = self.make_push_stack(dataset, store)
        return SmartLaunch(
            controller,
            KPIMonitor(store, degradation_rate=0.0),
            SmartLaunchConfig(premature_unlock_rate=0.0),
            service=service,
        )

    def test_push_invalidates_service_cache(self, dataset, tmp_path):
        """A launch wave's pushes reach the votes: the campaign ends with
        one changelog refit, after which the service answers exactly
        like a fresh fit on the pushed-to store."""
        store = copy.deepcopy(dataset.store)
        service = RecommendationService(
            AuricEngine(dataset.network, store).fit(["pMax"])
        )
        workflow = self.make_campaign(dataset, service, store)
        values = dict(store.singular_values("pMax"))
        counts = Counter(values.values())
        rare = min(counts, key=lambda value: (counts[value], repr(value)))
        targets = [c for c in sorted(values) if values[c] != rare][:40]
        carriers = sorted(values)
        before = loo_pmax(service, carriers)
        journal = obs_journal.configure(
            str(tmp_path / "journal.jsonl"), fsync=False
        )
        try:
            stats = workflow.run_campaign(
                (c, {"pMax": values[c]}, confident_pmax(c, rare))
                for c in targets
            )
            refits = [
                e for e in journal.tail() if e["event"] == "incremental-refit"
            ]
        finally:
            obs_journal.disable()
        assert stats.changes_implemented == len(targets)
        assert service.generation == 1
        assert len(refits) == 1
        assert refits[0]["attrs"]["changes"] == len(targets)
        fresh = RecommendationService(
            AuricEngine(dataset.network, store).fit(["pMax"])
        )
        after = loo_pmax(service, carriers)
        assert after == loo_pmax(fresh, carriers)
        assert after != before

    def test_campaign_without_pushes_keeps_generation(self, dataset):
        store = copy.deepcopy(dataset.store)
        engine = AuricEngine(dataset.network, store).fit(["pMax"])
        service = RecommendationService(engine)
        workflow = self.make_campaign(dataset, service, store)
        values = store.singular_values("pMax")
        carriers = sorted(values)[:5]
        stats = workflow.run_campaign(
            (c, {"pMax": values[c]}, confident_pmax(c, values[c]))
            for c in carriers
        )
        assert stats.changes_implemented == 0
        assert service.engine is engine
        assert service.generation == 0

    def test_smartlaunch_campaign_through_service(
        self, service, fitted_engine, rulebook, dataset
    ):
        """Launch entries carry NewCarrierRequests; the workflow asks
        the persistent service instead of refitting per carrier."""
        ems, controller = self.make_push_stack(dataset, dataset.store)
        monitor = KPIMonitor(dataset.store, degradation_rate=0.0)
        workflow = SmartLaunch(
            controller,
            monitor,
            SmartLaunchConfig(premature_unlock_rate=0.0),
            service=service,
        )
        launches = []
        for enodeb in list(dataset.network.enodebs())[:8]:
            template = next(enodeb.carriers())
            request = NewCarrierRequest(
                attributes=template.attributes, enodeb_id=enodeb.enodeb_id
            )
            vendor_config = {
                name: rulebook.value_for(name, template.attributes)
                for name in SINGULAR
            }
            launches.append((template.carrier_id, vendor_config, request))
        before = service.metrics.requests
        stats = workflow.run_campaign(launches)
        assert stats.launched == 8
        assert service.metrics.requests == before + 8

    def test_smartlaunch_request_without_service_raises(self, dataset, rulebook):
        ems = ElementManagementSystem(dataset.network, dataset.store)
        schema = build_vendor_schema(Vendor.VENDOR_A, dataset.catalog)
        controller = ConfigPushController(ems, ConfigTemplate(schema))
        workflow = SmartLaunch(controller, KPIMonitor(dataset.store))
        template = next(dataset.network.carriers())
        request = NewCarrierRequest(attributes=template.attributes)
        with pytest.raises(RecommendationError, match="no recommendation service"):
            workflow.launch_request(template.carrier_id, {}, request)
