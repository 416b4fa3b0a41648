"""Inputs of the two workloads, and the answer audit.

The snapshot is the four-market synthetic snapshot at scale 0.01 made
by ``repro.datagen`` with the generator's default seed (1,125
carriers).  It is a fixed fixture: fit and load cost depend on the
snapshot, so keeping it fixed keeps ``setup_s`` comparable across
seeds.  The benchmark's ``--seed`` drives what the load generator
sends — the carrier order of the leave-one-out wave and the
composition of the bulk batches — so one seed always gives the same
requests.

The server process and the load generator both build the snapshot
from the same call; the program under test only ever sees the
requests posted to it.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

SCALE = 0.01
#: Shards of the serving stack.
SHARDS = 2

#: Requests in one ``bulk`` batch, the number of carrier templates the
#: batches draw from, and the fixed seed that picks the templates.
BULK_BATCH = 16
BULK_TEMPLATES = 16
TEMPLATE_SEED = 11


def load_snapshot():
    from repro.datagen import four_markets_workload

    return four_markets_workload(scale=SCALE)


def served_parameters(catalog) -> Tuple[str, ...]:
    """The 39 singular range parameters: fitted, served and audited."""
    return tuple(s.name for s in catalog.range_parameters() if not s.is_pairwise)


def shuffled_carriers(dataset, seed: int) -> list:
    carriers = sorted(dataset.store.carriers())
    random.Random(seed).shuffle(carriers)
    return carriers


def loo_payloads(dataset, seed: int) -> List[Dict]:
    """One leave-one-out query per existing carrier, seeded order."""
    from repro.dataio.keys import carrier_key_to_str

    return [
        {"carrier": carrier_key_to_str(c), "leave_one_out": True}
        for c in shuffled_carriers(dataset, seed)
    ]


def bulk_templates(dataset) -> List[Tuple[Dict, object]]:
    """``(payload, template carrier)`` pairs for ``bulk``.

    The template set is fixed (the benchmark seed only changes how the
    batches draw from it), so the answers audited for template match
    are the same on every seed.  Each template copies an existing
    carrier's 14 attributes.  Half of them name the template's eNodeB
    as the launch site; the other half are site-less (attribute-only)
    launches, which take the vectorized plurality-table path instead of
    the scalar neighbourhood chain.
    """
    rng = random.Random(TEMPLATE_SEED)
    chosen = rng.sample(sorted(dataset.store.carriers()), BULK_TEMPLATES)
    templates = []
    for index, carrier_id in enumerate(chosen):
        attributes = dataset.network.carrier(carrier_id).attributes
        payload = {"attributes": dict(attributes.values)}
        if index % 2 == 0:
            payload["enodeb"] = (
                f"{carrier_id.market.index}.{carrier_id.enodeb.index}"
            )
        templates.append((payload, carrier_id))
    return templates


def shard_of(payload: Dict, parameters: Sequence[str]) -> int:
    """The shard the server routes ``payload`` to: its consistent-hash
    ring over :data:`SHARDS` shards, keyed as the front end keys it."""
    from repro.serve.front.routing import HashRing, shard_key
    from repro.serve.validation import unified_request_from_dict

    request = unified_request_from_dict(payload, "request", parameters)
    return HashRing(range(SHARDS)).node_for(shard_key(request))


def bulk_batches(
    count: int, seed: int, template_shards: Sequence[int]
) -> List[List[int]]:
    """``count`` batches of :data:`BULK_BATCH` template indexes.

    Each batch is one shard's launch list: the batches take turns over
    the shards, and each draws only templates that shard serves.  The
    server then hands every batch to one shard worker, so the phases in
    its ``timings`` answer follow one another and add up; a batch split
    over two shards runs both halves at once under one ``timings``.
    """
    by_shard: Dict[int, List[int]] = {}
    for index, shard in enumerate(template_shards):
        by_shard.setdefault(shard, []).append(index)
    shards = sorted(by_shard)
    rng = random.Random(seed)
    return [
        [rng.choice(by_shard[shards[b % len(shards)]]) for _ in range(BULK_BATCH)]
        for b in range(count)
    ]


class Oracle:
    """The audit oracle: the same engine fitted in this process.

    Every HTTP answer must equal what a directly-called
    :class:`~repro.serve.RecommendationService` over an identically
    fitted engine answers for the same payload.  Fitting is
    deterministic, so this holds whether the server fitted its engine
    or loaded it from an artifact.
    """

    def __init__(self, dataset, engine, parameters: Sequence[str]):
        from repro.config.rulebook import RuleBook
        from repro.serve import RecommendationService

        self.dataset = dataset
        self.parameters = tuple(parameters)
        self.service = RecommendationService(engine, RuleBook(dataset.store.catalog))
        self._expected: Dict[str, Dict] = {}

    @staticmethod
    def key(payload: Dict) -> str:
        return json.dumps(payload, sort_keys=True)

    def expect(self, payloads: Sequence[Dict]) -> None:
        """Compute (once) the expected values of ``payloads``."""
        from repro.serve.validation import unified_request_from_dict

        todo = {}
        for payload in payloads:
            key = self.key(payload)
            if key not in self._expected and key not in todo:
                todo[key] = payload
        if not todo:
            return
        requests = [
            unified_request_from_dict(p, "request", self.parameters)
            for p in todo.values()
        ]
        results = self.service.handle_batch(requests)
        for key, result in zip(todo, results):
            values = {
                name: rec.value
                for name, rec in result.recommendation.recommendations.items()
            }
            # Compare in the JSON domain the server answers in.
            self._expected[key] = json.loads(json.dumps(values, default=str))

    def expected(self, payload: Dict) -> Dict:
        return self._expected[self.key(payload)]

    def audit(self, payload: Dict, values) -> bool:
        """True when an answer's ``values`` equal the oracle's."""
        return values == self.expected(payload)

    def configured(self, carrier_id, name: str):
        value = self.dataset.store.get_singular(carrier_id, name)
        return json.loads(json.dumps(value, default=str))


def match_counts(oracle: Oracle, answers: Sequence[Tuple[object, Dict]]) -> Tuple[int, int]:
    """``(matched, compared)`` over (carrier, values) answers: how many
    recommended values equal the carrier's configured value."""
    matched = compared = 0
    for carrier_id, values in answers:
        for name, value in values.items():
            configured = oracle.configured(carrier_id, name)
            if configured is None:
                continue
            compared += 1
            matched += value == configured
    return matched, compared
