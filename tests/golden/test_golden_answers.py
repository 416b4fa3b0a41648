"""The engine's answers must match the frozen golden file exactly.

``answers.json`` was produced by :mod:`tests.golden.generate`; any
difference — a value, a support float's last bit, a vote distribution's
order, a scope — is a behaviour change and fails here.
"""

import json

import pytest

from tests.golden.generate import GOLDEN_PATH, SEEDS, compute_seed

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_seed():
    assert sorted(GOLDEN) == sorted(str(seed) for seed in SEEDS)


def _check_records(section, got, want):
    assert len(got) == len(want), section
    for got_record, want_record in zip(got, want):
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
