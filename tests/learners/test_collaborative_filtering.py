import numpy as np
import pytest

from repro.exceptions import ColdStartError, NotFittedError
from repro.learners.chi_square import factorize
from repro.learners.collaborative_filtering import (
    CollaborativeFilteringRecommender,
    VoteOutcome,
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

    def test_predict_confident_returns_none_below_threshold(self):
        rows = [("a",)] * 10 + [("b",)] * 10
        labels = [1] * 6 + [2] * 4 + [3] * 10
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        assert cf.predict_confident([("a",), ("b",)]) == [None, 3]

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

    def test_error_mode_raises_on_cold_start(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender(fallback="error").fit(rows, labels)
        with pytest.raises(ColdStartError):
            cf.vote(("zzz", "x", 12345, "0"))

    def test_error_mode_fine_on_known_combo(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender(fallback="error").fit(rows, labels)
        assert cf.vote(("u", "x", 700, "0")).value == "u:700"

    def test_min_matched_relaxes_thin_cells(self):
        rows = [("a", "p")] * 1 + [("b", "p")] * 20 + [("b", "q")] * 20
        labels = ["rare"] + ["common"] * 40
        cf = CollaborativeFilteringRecommender(min_matched=5).fit(rows, labels)
        # Whatever the dependent set, the thin ("a", ...) cell (1 sample)
        # must be skipped in favour of a coarser vote.
        outcome = cf.vote(("a", "p"))
        assert outcome.value == "common"


class TestWeightedVoting:
    def test_weights_shift_vote(self):
        rows = [("a",)] * 4
        labels = [1, 1, 2, 2]
        cf = CollaborativeFilteringRecommender().fit_weighted(
            rows, labels, weights=[1.0, 1.0, 5.0, 5.0]
        )
        assert cf.predict_one(("a",)) == 2

    def test_weights_length_validated(self):
        cf = CollaborativeFilteringRecommender()
        with pytest.raises(ValueError):
            cf.fit_weighted([("a",)], [1], weights=[1.0, 2.0])


class TestValidationAndExplain:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(support_threshold=0.0)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(support_threshold=1.5)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(fallback="whatever")
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(min_matched=0.5)
        with pytest.raises(ValueError):
            CollaborativeFilteringRecommender(min_effect_size=2.0)

    def test_not_fitted(self):
        cf = CollaborativeFilteringRecommender()
        with pytest.raises(NotFittedError):
            cf.predict([("a",)])
        with pytest.raises(NotFittedError):
            _ = cf.dependent_attributes

    def test_explain_mentions_dependent_attributes(self):
        rows, labels = rule_dataset()
        cf = CollaborativeFilteringRecommender().fit(rows, labels)
        lines = cf.explain_one(
            ("u", "x", 700, "0"), ["morph", "junk", "freq", "junk2"]
        )
        text = "\n".join(lines)
        assert "morph=u" in text or "freq=700" in text
        assert "recommend" in text


class TestRecommendMany:
    def test_matches_single_row_votes(self):
        rows, labels = rule_dataset()
        model = CollaborativeFilteringRecommender().fit(rows, labels)
        outcomes = model.recommend_many(rows[:50])
        for row, outcome in zip(rows[:50], outcomes):
            single = model.vote(row)
            assert outcome == single

    def test_memoizes_identical_dependent_cells(self):
        rows, labels = rule_dataset()
        model = CollaborativeFilteringRecommender().fit(rows, labels)
        # Two rows agreeing on the dependent attributes (0 and 2) share
        # one memoized VoteOutcome even if irrelevant columns differ.
        base = rows[0]
        twin = (base[0], "DIFFERENT", base[2], "999")
        outcomes = model.recommend_many([base, twin])
        assert outcomes[0] is outcomes[1]

    def test_predict_goes_through_bulk_path(self):
        rows, labels = rule_dataset()
        model = CollaborativeFilteringRecommender().fit(rows, labels)
        assert model.predict(rows[:20]) == [
            outcome.value for outcome in model.recommend_many(rows[:20])
        ]


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


class TestEncodedFit:
    @pytest.mark.parametrize("selection", ["conditional", "marginal"])
    def test_fit_and_fit_encoded_select_identically(self, selection):
        """The raw fit (value-tuple strata) and the encoded fit (packed
        integer strata) select the same attributes, in the same order,
        with equal statistics."""
        rows, labels = rule_dataset(noise=0.05, seed=4)
        rows = [row + (row[0],) for row in rows]  # a redundant copy
        columns = list(zip(*rows))
        code_matrix = np.column_stack(
            [factorize(list(column))[0] for column in columns]
        )
        label_codes, _ = factorize(labels)
        raw = CollaborativeFilteringRecommender(selection=selection).fit(
            rows, labels
        )
        encoded = CollaborativeFilteringRecommender(
            selection=selection
        ).fit_encoded(code_matrix, label_codes)
        assert raw.dependent_attributes
        assert raw.dependent_attributes == encoded.dependent_attributes
        for col in range(len(columns)):
            assert raw.test_result(col) == encoded.test_result(col)
