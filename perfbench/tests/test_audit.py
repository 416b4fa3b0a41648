"""The answer audit flags an injected wrong answer."""

import copy

import pytest

import run
import workloads
from client import Call

PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def oracle():
    from repro.core import AuricEngine
    from repro.datagen import tiny_workload

    dataset = tiny_workload()
    engine = AuricEngine(dataset.network, dataset.store).fit(list(PARAMETERS))
    return workloads.Oracle(dataset, engine, PARAMETERS)


def bench_for(workload, oracle):
    bench = run.Bench(workload, seed=1, seconds=1.0, trace=False)
    bench.oracle = oracle
    return bench


def answered(payload, body):
    call = Call()
    call.status = 200
    call.body = body
    return run.Record(payload, call, 0.0)


def loo_records(oracle, count=6):
    payloads = workloads.loo_payloads(oracle.dataset, seed=3)[:count]
    oracle.expect(payloads)
    return [
        answered(p, {"values": copy.deepcopy(oracle.expected(p))}) for p in payloads
    ]


def test_correct_answers_pass_and_feed_the_match_rate(oracle):
    bench = bench_for("wave", oracle)
    audit = bench.audit(loo_records(oracle))
    assert audit["mismatched_calls"] == 0
    assert audit["targets"] == 6
    assert 0 < audit["loo_matched"] <= audit["loo_compared"] == 6 * len(PARAMETERS)


def test_a_wrong_value_is_flagged(oracle):
    records = loo_records(oracle)
    records[2].call.body["values"]["pMax"] = "not-a-pMax"
    audit = bench_for("wave", oracle).audit(records)
    assert audit["mismatched_calls"] == 1
    # A mismatched answer never counts toward the match rate.
    assert audit["targets"] == 5


def test_a_missing_parameter_or_body_is_flagged(oracle):
    records = loo_records(oracle)
    del records[0].call.body["values"]["inactivityTimer"]
    records[1].call.body = {"unexpected": True}
    audit = bench_for("wave", oracle).audit(records)
    assert audit["mismatched_calls"] == 2


def test_one_wrong_or_missing_result_fails_a_whole_batch(oracle):
    bench = bench_for("bulk", oracle)
    templates = workloads.bulk_templates(oracle.dataset)
    bench.template_of = {oracle.key(p): carrier for p, carrier in templates}
    requests = [templates[i % len(templates)][0] for i in range(10)]
    oracle.expect(requests)
    results = [{"values": copy.deepcopy(oracle.expected(r))} for r in requests]
    good = answered({"requests": requests}, {"results": results})
    bad_results = copy.deepcopy(results)
    bad_results[7]["values"]["pMax"] = -999
    bad = answered({"requests": requests}, {"results": bad_results})
    short = answered({"requests": requests}, {"results": results[:9]})
    audit = bench.audit([good, bad, short])
    assert audit["mismatched_calls"] == 2
    assert audit["targets"] == 10


def test_each_bulk_batch_goes_to_one_shard(oracle):
    templates = workloads.bulk_templates(oracle.dataset)
    shards = [workloads.shard_of(p, PARAMETERS) for p, _ in templates]
    batches = workloads.bulk_batches(8, seed=5, template_shards=shards)
    assert batches == workloads.bulk_batches(8, seed=5, template_shards=shards)
    assert all(len(batch) == workloads.BULK_BATCH for batch in batches)
    assert all(len({shards[i] for i in batch}) == 1 for batch in batches)
    # The batches take turns over the shards.
    assert len({shards[batch[0]] for batch in batches}) == len(set(shards))
