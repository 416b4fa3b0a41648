"""The engine's answers must match the frozen golden file exactly.

``answers.json`` was produced by :mod:`tests.golden.generate`; any
difference — a value, a support float's last bit, a vote distribution's
order, a scope — is a behaviour change and fails here.

One record kind is a contract rather than a value: ``table/i`` is what
``AuricEngine.table_global_votes`` returned, where ``None`` means "not
answerable from the table, take the full vote".  The golden file dates
from an engine whose table declined every vote of a weighted model, so a
``None`` there may now be an answer — but only the answer the full vote
gave for the same cell (the golden ``cells/i`` record).
"""

import json

import pytest

from tests.golden.generate import GOLDEN_PATH, SEEDS, compute_seed

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_seed():
    assert sorted(GOLDEN) == sorted(str(seed) for seed in SEEDS)


def _check_records(section, got, want):
    assert len(got) == len(want), section
    full_votes = {
        record[0].split("/", 1)[1]: record
        for record in want
        if record[0].startswith("cells/")
    }
    for got_record, want_record in zip(got, want):
        if want_record[0].startswith("table/") and want_record[1:] == [None]:
            if got_record[1:] != [None]:
                index = want_record[0].split("/", 1)[1]
                assert got_record[1:] == full_votes[index][1:], section
            continue
        assert got_record == want_record, section


@pytest.mark.parametrize("seed", SEEDS)
def test_answers_match_golden(seed):
    expected = GOLDEN[str(seed)]
    actual = compute_seed(seed)
    assert sorted(actual) == sorted(expected)
    for section, want in expected.items():
        got = actual[section]
        if isinstance(want, list) and section != "dependents":
            _check_records(section, got, want)
        else:
            assert got == want, section
