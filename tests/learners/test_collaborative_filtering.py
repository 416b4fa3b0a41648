import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.learners.chi_square import factorize
from repro.learners.collaborative_filtering import (
    CollaborativeFilteringRecommender,
    VoteOutcome,
    prefix_table,
    select_attributes,
)


def rule_dataset(n=400, seed=0, noise=0.0):
    """Label depends on columns 0 and 2; columns 1 and 3 are irrelevant."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for _ in range(n):
        a = rng.choice(["u", "s", "r"])
        b = rng.choice(["x", "y", "z", "w"])
        c = int(rng.choice([700, 1900, 2500]))
        d = str(rng.integers(0, 8))
        label = f"{a}:{c}"
        if noise and rng.random() < noise:
            label = "NOISE"
        rows.append((a, b, c, d))
        labels.append(label)
    return rows, labels


class TestDependentAttributeSelection:
    def test_selects_true_attributes(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert set(cf.dependent_attributes) == {0, 2}

    def test_irrelevant_attributes_excluded(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert 1 not in cf.dependent_attributes
        assert 3 not in cf.dependent_attributes

    def test_redundant_copy_attribute_excluded(self):
        rows, labels = rule_dataset()
        # Append a copy of column 0 — marginally dependent, conditionally not.
        rows = [row + (row[0],) for row in rows]
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert not {0, 4} <= set(cf.dependent_attributes)
        assert (0 in cf.dependent_attributes) or (4 in cf.dependent_attributes)

    def test_test_result_accessible_per_column(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert cf.test_result(0).dependent
        assert not cf.test_result(1).dependent


class TestVoting:
    def test_predicts_rule(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert cf.predict_one(("u", "q", 700, "9")) == "u:700"

    def test_vote_outcome_fields(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        outcome = cf.vote(("u", "x", 700, "0"))
        assert isinstance(outcome, VoteOutcome)
        assert outcome.value == "u:700"
        assert outcome.support == 1.0
        assert outcome.confident
        assert not outcome.fallback_used

    def test_vote_ignores_minority_noise(self):
        rows, labels = rule_dataset(noise=0.1, seed=3)
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert cf.predict_one(("s", "x", 1900, "1")) == "s:1900"

    def test_support_threshold_flags_low_confidence(self):
        rows = [("a",)] * 10
        labels = [1] * 6 + [2] * 4
        cf = CollaborativeFilteringRecommender(support_threshold=0.75).fit(
            rows, labels
        )
        outcome = cf.vote(("a",))
        assert outcome.value == 1
        assert outcome.support == pytest.approx(0.6)
        assert not outcome.confident

    def test_paper_threshold_default(self):
        assert CollaborativeFilteringRecommender().support_threshold == 0.75
        assert CollaborativeFilteringRecommender().p_value == 0.01


class TestFallback:
    def test_unseen_combo_relaxes(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        # ("u", 99999) combo never seen on column 2: relaxes to column-0 vote.
        outcome = cf.vote(("u", "x", 99999, "0"))
        assert outcome.fallback_used
        assert outcome.value.startswith("u:")


class TestWeightedVoting:
    """Vote weights (section 6's performance feedback) ride on the
    shared vote table the engine builds its models' votes from."""

    def test_weights_shift_vote(self):
        table = prefix_table(
            np.zeros(4, dtype=np.int64),
            [1],
            [["a"]],
            1,
            np.array([0, 0, 1, 1]),
            [1, 2],
            weights=np.array([1.0, 1.0, 5.0, 5.0]),
        )
        assert table.vote(("a",)) == (2, 10.0, 12.0)

    def test_weights_length_validated(self):
        with pytest.raises(ValueError):
            prefix_table(
                np.zeros(1, dtype=np.int64),
                [1],
                [["a"]],
                1,
                np.array([0]),
                [1],
                weights=np.array([1.0, 2.0]),
            )


class TestValidationAndExplain:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(support_threshold=0.0)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(support_threshold=1.5)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(p_value=1.0)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(min_effect_size=2.0)

    def test_not_fitted(self):
        cf = CollaborativeFilteringRecommender()
        with pytest.raises(NotFittedError):
            cf.predict([("a",)])
        with pytest.raises(NotFittedError):
            _ = cf.dependent_attributes


class TestRecommendMany:
    def test_matches_single_row_votes(self):
        """predict answers a batch of rows, an unseen cell included,
        with each row's own vote."""
        rows, labels = rule_dataset()
        model = CollaborativeFilteringRecommender().fit(rows, labels)
        batch = rows[:50] + [("u", "x", 99999, "0")]
        assert model.predict(batch) == [model.vote(row).value for row in batch]


class TestSelectionStrategies:
    def test_marginal_mode_keeps_more_attributes(self):
        rows, labels = rule_dataset()
        # Append a redundant copy of a dependent column: marginal keeps
        # both, conditional keeps exactly one.
        rows = [row + (row[0],) for row in rows]
        marginal = CollaborativeFilteringRecommender(
            selection="marginal", min_effect_size=0.0
        ).fit(rows, labels)
        conditional = CollaborativeFilteringRecommender(
            min_effect_size=0.0
        ).fit(rows, labels)
        assert {0, 4} <= set(marginal.dependent_attributes)
        assert len(conditional.dependent_attributes) < len(
            marginal.dependent_attributes
        )

    def test_marginal_mode_predicts(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender(selection="marginal").fit(
            rows, labels
        )
        assert cf.predict_one(("u", "x", 700, "0")) == "u:700"

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(selection="bogus")


def sorted_codes(values):
    """Codes in sorted-value order, and their count."""
    rank = {value: code for code, value in enumerate(sorted(set(values)))}
    return np.array([rank[value] for value in values]), len(rank)


class TestEncodedFit:
    @pytest.mark.parametrize("selection", ["conditional", "marginal"])
    def test_fit_and_fit_encoded_select_identically(self, selection):
        """Fitting on rows (codes in first-appearance order) selects the
        same attributes, in the same order, with equal statistics as
        select_attributes over another one-to-one coding: codes in
        sorted-value order.  The engine's selection over the snapshot's
        codes rests on that invariance."""
        rows, labels = rule_dataset(noise=0.05, seed=4)
        rows = [row + (row[0],) for row in rows]  # a redundant copy
        columns = [sorted_codes(column) for column in zip(*rows)]
        code_matrix = np.column_stack([codes for codes, _ in columns])
        label_codes, _ = sorted_codes(labels)
        # Not the first-appearance coding the fit uses.
        assert not np.array_equal(label_codes, factorize(labels)[0])
        fitted = CollaborativeFilteringRecommender(selection=selection).fit(
            rows, labels
        )
        dependent, results = select_attributes(
            code_matrix,
            label_codes,
            [size for _, size in columns],
            fitted.p_value,
            fitted.min_effect_size,
            selection,
        )
        assert fitted.dependent_attributes
        assert fitted.dependent_attributes == dependent
        for col in range(len(columns)):
            assert fitted.test_result(col) == results[col]
