"""Golden-answer oracle for the Auric engine's votes.

:func:`compute_seed` replays a fixed battery of recommendation queries
against engines fitted on the one-market datasets of :data:`SEEDS` and
returns every answer as JSON-ready data.  ``answers.json`` next to this
file holds the frozen output; ``test_golden_answers.py`` recomputes it
with the current code and requires an exact match.

The battery covers, per scenario engine (plain and vote-weighted):

* global, local, leave-one-out, relaxed and global-fallback votes over
  singular and pair-wise parameters;
* vote capture through explain requests, new-carrier requests, rule-book
  cold starts and the batch-planning service path;
* ``repro.core.explain`` lines and ``EvaluationRunner.loo_accuracy``
  summaries.

Regenerate (a behaviour change; see README.md) from the repository
root::

    PYTHONPATH=src python -m tests.golden.generate
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import Dict, List, Sequence

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricEngine
from repro.core.explain import explain_recommendation
from repro.core.pipeline import RecommendationPipeline
from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_to_str, pair_key_to_str
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile
from repro.eval.runner import EvaluationRunner
from repro.exceptions import RecommendationError
from repro.serve.service import RecommendationService

GOLDEN_PATH = pathlib.Path(__file__).with_name("answers.json")

SEEDS = (7, 11, 23)
#: Singular parameters spanning 1 to 8 dependent attributes, 2 to ~100
#: distinct values and many singleton cells; plus one pair-wise one.
SINGULAR = (
    "pMax",
    "inactivityTimer",
    "qrxlevmin",
    "pZeroNominalPusch",
    "maxNumRrcConnections",
)
PAIRWISE = "a3Offset"
PARAMETERS = SINGULAR + (PAIRWISE,)
#: A range parameter left unfitted (rule-book cold start) and an
#: enumeration parameter (always rule-book).
COLD_START = "sFreqPrio"
#: Vote weights assigned round-robin over the sorted targets.
WEIGHT_CYCLE = (0.0, 0.1, 0.25, 1.7, 1.0)
TARGETS = 12
UNSEEN = "never-seen"


def dataset_for(seed: int):
    base = four_market_profile()
    return generate_dataset(GenerationProfile(markets=base.markets[:1], seed=seed))


def _key(key) -> str:
    if hasattr(key, "neighbor"):
        return pair_key_to_str(key)
    return carrier_key_to_str(key)


#: Distinct dependent-attribute tuples of the seed being computed;
#: records store an index into it (emitted as the "dependents" section)
#: instead of repeating the names.
_DEPENDENTS: Dict[tuple, int] = {}


def _rec(rec) -> List:
    """Every non-wall-clock field of a ParameterRecommendation."""
    dependents = _DEPENDENTS.setdefault(
        tuple(rec.dependent_attributes), len(_DEPENDENTS)
    )
    return [
        rec.value,
        float(rec.support),
        float(rec.matched),
        bool(rec.confident),
        rec.scope,
        dependents,
        [[value, float(weight)] for value, weight in rec.votes],
    ]


def _answer(call) -> List:
    try:
        return _rec(call())
    except RecommendationError as exc:
        return ["error", type(exc).__name__, str(exc)]


def _targets(model, extra: Sequence = ()) -> List:
    samples = model.encoded.targets()
    keys = list(samples)
    step = max(len(keys) // TARGETS, 1)
    picked = keys[::step][:TARGETS]
    return picked + [k for k in extra if k in samples and k not in picked]


def _mask(row, columns) -> tuple:
    masked = list(row)
    for col in columns:
        masked[col] = UNSEEN
    return tuple(masked)


def _vote_queries(engine: AuricEngine, name: str, extra: Sequence = ()) -> List:
    model = engine._model(name)
    pairwise = model.spec.is_pairwise
    row_of = engine.pair_row if pairwise else engine.carrier_row
    one = engine.recommend_for_pair if pairwise else engine.recommend_for_carrier
    deps = model.dependent_columns
    keys = _targets(model, extra)
    samples = model.encoded.targets()
    out: List = []
    for local in (False, True):
        for loo in (True, False):
            recs = engine.recommend_for_targets(name, keys, local=local, leave_one_out=loo)
            tag = f"targets/{'local' if local else 'global'}/{'loo' if loo else 'all'}"
            out += [[f"{tag}/{_key(k)}", *_rec(r)] for k, r in zip(keys, recs)]
    for key in keys[:4] + list(extra):
        if key not in samples:
            continue
        for local in (False, True):
            out.append([
                f"scalar/{'local' if local else 'global'}/{_key(key)}",
                *_answer(lambda: one(name, key, local=local, leave_one_out=True)),
            ])
    probes = keys[:5] + [k for k in extra if k in samples]
    for key in probes:
        row = row_of(key)
        source = key.carrier if pairwise else key
        out.append([
            f"new-local/{_key(key)}",
            *_answer(lambda: engine.recommend_local(
                name, row, engine.voters(engine.neighborhood_of(source))
            )),
        ])
        for label, columns in (
            ("relaxed-last", deps[-1:]),
            ("relaxed-half", deps[len(deps) // 2:]),
            ("fallback", deps),
        ):
            masked = _mask(row, columns)
            for exclude in (None, key):
                tag = "loo" if exclude is not None else "all"
                out.append([
                    f"{label}/{tag}/{_key(key)}",
                    *_answer(lambda: engine.recommend_global(name, masked, exclude)),
                ])
    batch = keys[:8]
    rows = [row_of(k) for k in batch] + [_mask(row_of(keys[0]), deps)]
    excludes = [k if i % 2 else None for i, k in enumerate(batch)] + [None]
    for i, (row, exclude) in enumerate(zip(rows, excludes)):
        out.append([f"cells/{i}", *_rec(engine.recommend_global(name, row, exclude))])
    return out


def _carriers(dataset, count: int) -> List:
    carriers = sorted(dataset.network.carriers(), key=lambda c: c.carrier_id)
    step = max(len(carriers) // count, 1)
    return carriers[::step][:count]


def _explain_queries(engine: AuricEngine, dataset) -> List:
    out: List = []
    for carrier in _carriers(dataset, 2):
        cid = carrier.carrier_id
        for local in (True, False):
            result = engine.handle(RecommendRequest(
                carrier_id=cid, leave_one_out=True, local=local, explain=True
            ))
            tag = f"{'local' if local else 'global'}/{_key(cid)}"
            for name, rec in sorted(result.recommendation.recommendations.items()):
                out.append([f"handle-explain/{tag}/{name}", *_rec(rec)])
            out.append([f"explanation/{tag}", [
                line
                for name in sorted(result.explain.parameters)
                for line in result.explain.parameters[name].lines()
            ]])
            for name in SINGULAR:
                out.append([
                    f"explain-lines/{tag}/{name}",
                    explain_recommendation(engine, name, cid, local=local),
                ])
    return out


def _serving_queries(engine: AuricEngine, dataset) -> List:
    """New-carrier requests through the engine, the pipeline (rule-book
    cold start) and the batch-planning service."""
    rulebook = RuleBook(engine.catalog)
    enumeration = engine.catalog.enumeration_parameters()[0].name
    names = SINGULAR + (COLD_START, enumeration)
    requests = []
    for carrier in _carriers(dataset, 3):
        for local in (True, False):
            requests.append(RecommendRequest(
                attributes=carrier.attributes,
                enodeb_id=carrier.carrier_id.enodeb if local else None,
                local=local,
                parameters=names,
            ))
        requests.append(RecommendRequest(carrier_id=carrier.carrier_id, parameters=names))
    requests.append(RecommendRequest(
        attributes=requests[0].attributes, parameters=names, explain=True
    ))
    out: List = []

    def record(tag, results):
        for i, result in enumerate(results):
            for name, rec in sorted(result.recommendation.recommendations.items()):
                out.append([f"{tag}/{i}/{name}", *_rec(rec)])
            if result.explain is not None:
                out.append([f"{tag}/{i}/explanation", [
                    line
                    for name in sorted(result.explain.parameters)
                    for line in result.explain.parameters[name].lines()
                ]])

    record("engine", [
        engine.handle(RecommendRequest(
            attributes=r.attributes, enodeb_id=r.enodeb_id, local=r.local,
            explain=r.explain,
        ))
        for r in requests if r.attributes is not None
    ])
    pipeline = RecommendationPipeline(engine, rulebook)
    record("pipeline", [pipeline.handle(r) for r in requests])
    service = RecommendationService(engine, rulebook=rulebook)
    # Duplicates serve cache hits.
    record("service-batch", service.handle_batch(requests + requests[:4]))
    return out


def _loo_summary(engine: AuricEngine, dataset, parameters) -> Dict:
    result = EvaluationRunner(dataset, seed=11).loo_accuracy(
        engine, list(parameters), max_targets_per_parameter=80
    )
    return {
        "local": result.parameter_accuracy_local,
        "global": result.parameter_accuracy_global,
        "mismatches_local": [
            [p, _key(k), truth, got] for p, k, truth, got in result.mismatches_local
        ],
        "mismatches_global": [
            [p, _key(k), truth, got] for p, k, truth, got in result.mismatches_global
        ],
        "evaluated": result.evaluated,
    }


def vote_weights(dataset, plain: AuricEngine) -> Dict:
    """Round-robin weights over every target, plus two zero-weight
    edge cases: each singular parameter's first singleton cell (if it
    has one) gets a voter of weight 0, and every voter of
    inactivityTimer's rarest value weighs 0 (a value with zero total
    weight)."""
    weights: Dict = {}
    carriers = sorted(c.carrier_id for c in dataset.network.carriers())
    for i, cid in enumerate(carriers):
        weights[cid] = WEIGHT_CYCLE[i % len(WEIGHT_CYCLE)]
    for i, pair in enumerate(sorted(dataset.store.pairwise_values(PAIRWISE))):
        weights[pair] = WEIGHT_CYCLE[i % len(WEIGHT_CYCLE)]
    for name in SINGULAR:
        samples = plain._model(name).encoded.targets()
        sizes = Counter(cell for cell, _ in samples.values())
        singles = [k for k, (cell, _) in samples.items() if sizes[cell] == 1]
        if singles:
            weights[singles[0]] = 0.0
    samples = plain._model("inactivityTimer").encoded.targets()
    labels = Counter(label for _, label in samples.values())
    rare = min(labels, key=labels.get)
    for key, (_, label) in samples.items():
        if label == rare:
            weights[key] = 0.0
    return weights


def _zero_keys(engine: AuricEngine, name: str) -> List:
    model = engine._model(name)
    return [k for k, w in model.weights.items() if w == 0.0][:6]


def compute_seed(seed: int) -> Dict:
    """Every golden answer for one dataset seed (JSON-ready)."""
    dataset = dataset_for(seed)
    network, store = dataset.network, dataset.store
    sections: Dict = {}
    _DEPENDENTS.clear()

    plain = AuricEngine(network, store).fit(list(PARAMETERS))
    weights = vote_weights(dataset, plain)
    weighted = AuricEngine(network, store).fit(list(PARAMETERS), vote_weights=weights)

    for scenario, engine in (("plain", plain), ("weighted", weighted)):
        for name in PARAMETERS:
            extra = _zero_keys(engine, name)
            sections[f"{scenario}/{name}"] = _vote_queries(engine, name, extra)
        sections[f"{scenario}/explain"] = _explain_queries(engine, dataset)
        sections[f"{scenario}/serving"] = _serving_queries(engine, dataset)
        sections[f"{scenario}/loo"] = _loo_summary(engine, dataset, PARAMETERS)
    sections["dependents"] = [list(names) for names in _DEPENDENTS]
    return json.loads(json.dumps(sections))


def compute_answers() -> Dict:
    return {str(seed): compute_seed(seed) for seed in SEEDS}


def main() -> None:
    answers = compute_answers()
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    # One record per line keeps a regeneration's diff readable.
    text = text.replace('],["', '],\n["') + "\n"
    assert json.loads(text) == answers
    GOLDEN_PATH.write_text(text)


if __name__ == "__main__":
    main()
