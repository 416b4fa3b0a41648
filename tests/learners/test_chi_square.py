import numpy as np
import pytest

from repro.learners.chi_square import (
    chi_square_statistic,
    contingency_from_codes,
    contingency_table,
    factorize,
    marginal_tests,
    test_conditional_independence,
    test_independence,
)


class TestContingencyTable:
    def test_counts(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        table, rows, cols = contingency_table(xs, ys)
        assert rows == ["a", "b"]
        assert cols == [1, 2]
        assert table.tolist() == [[1.0, 1.0], [2.0, 1.0]]

    def test_total_preserved(self):
        xs = list("aabbccdd")
        ys = [1, 2] * 4
        table, _, _ = contingency_table(xs, ys)
        assert table.sum() == len(xs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contingency_table([], [])

    def test_numpy_arrays_match_lists(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        from_lists = contingency_table(xs, ys)
        from_arrays = contingency_table(np.array(xs), np.array(ys))
        assert np.array_equal(from_lists[0], from_arrays[0])
        assert from_lists[1] == from_arrays[1]
        assert from_lists[2] == from_arrays[2]

    def test_empty_numpy_rejected(self):
        # np.array truthiness is not len-based; must still be a clean error.
        with pytest.raises(ValueError):
            contingency_table(np.array([]), np.array([]))

    def test_mixed_type_column_falls_back_safely(self):
        xs = ["a", 1, "a", None, 1]
        ys = [0, 1, 0, 1, 1]
        table, row_values, _ = contingency_table(xs, ys)
        assert row_values == ["a", 1, None]
        assert table.sum() == len(xs)


class TestFactorizeAndCodes:
    def test_first_appearance_order(self):
        codes, uniques = factorize(["b", "a", "b", "c"])
        assert uniques == ["b", "a", "c"]
        assert codes.tolist() == [0, 1, 0, 2]

    def test_numpy_input_matches_list_input(self):
        values = [3, 1, 3, 2, 1]
        list_codes, list_uniques = factorize(values)
        array_codes, array_uniques = factorize(np.array(values))
        assert list_codes.tolist() == array_codes.tolist()
        assert list_uniques == array_uniques

    def test_pre_encoded_codes_match_contingency_table(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        x_codes, x_uniques = factorize(xs)
        y_codes, y_uniques = factorize(ys)
        table = contingency_from_codes(
            x_codes, y_codes, len(x_uniques), len(y_uniques)
        )
        reference, _, _ = contingency_table(xs, ys)
        assert np.array_equal(table, reference)

    def test_code_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contingency_from_codes(np.array([0]), np.array([0, 1]))


class TestMarginalTests:
    def test_matches_per_column_test_independence(self):
        rng = np.random.default_rng(0)
        labels = rng.choice(["p", "q", "r"], size=200).tolist()
        columns = [
            [f"{label}!" for label in labels],  # dependent copy
            rng.choice(["x", "y"], size=200).tolist(),  # independent
        ]
        batched = marginal_tests(columns, labels, p_value=0.01)
        for column, result in zip(columns, batched):
            single = test_independence(column, labels, p_value=0.01)
            assert result.statistic == pytest.approx(single.statistic)
            assert result.dof == single.dof
            assert result.dependent == single.dependent
        assert batched[0].dependent
        assert not batched[1].dependent


class TestChiSquareStatistic:
    def test_independent_table_zero(self):
        # Perfectly proportional counts: expected == observed.
        table = np.array([[10.0, 20.0], [20.0, 40.0]])
        assert chi_square_statistic(table) == pytest.approx(0.0, abs=1e-9)

    def test_known_2x2(self):
        # Classic textbook 2x2: chi2 = N(ad-bc)^2 / (row/col marginals).
        table = np.array([[20.0, 30.0], [30.0, 20.0]])
        n = table.sum()
        a, b, c, d = 20.0, 30.0, 30.0, 20.0
        expected = n * (a * d - b * c) ** 2 / (50 * 50 * 50 * 50)
        assert chi_square_statistic(table) == pytest.approx(expected)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            chi_square_statistic(np.zeros(3))
        with pytest.raises(ValueError):
            chi_square_statistic(np.zeros((2, 2)))


class TestIndependenceTest:
    def test_strong_dependence_detected(self):
        xs = ["a"] * 50 + ["b"] * 50
        ys = [1] * 50 + [2] * 50
        result = test_independence(xs, ys)
        assert result.dependent
        assert result.statistic > result.critical_value
        assert result.cramers_v == pytest.approx(1.0)

    def test_independent_variables_not_flagged(self):
        rng = np.random.default_rng(3)
        xs = rng.choice(["a", "b", "c"], size=500).tolist()
        ys = rng.choice([1, 2, 3, 4], size=500).tolist()
        result = test_independence(xs, ys)
        assert not result.dependent

    def test_degenerate_single_category(self):
        result = test_independence(["a"] * 10, [1, 2] * 5)
        assert not result.dependent
        assert result.dof == 0

    def test_dof_formula(self):
        xs = ["a", "b", "c"] * 10
        ys = [1, 2] * 15
        result = test_independence(xs, ys)
        assert result.dof == (3 - 1) * (2 - 1)

    def test_p_value_validated(self):
        with pytest.raises(ValueError):
            test_independence(["a"], [1], p_value=0.0)
        with pytest.raises(ValueError):
            test_independence(["a"], [1], p_value=1.5)

    def test_stricter_p_value_raises_critical(self):
        xs = ["a", "b"] * 30
        ys = [1, 2, 1, 1, 2, 2] * 10
        loose = test_independence(xs, ys, p_value=0.05)
        strict = test_independence(xs, ys, p_value=0.001)
        assert strict.critical_value > loose.critical_value


class TestConditionalIndependence:
    def test_redundant_attribute_screened_out(self):
        # z mirrors x exactly; conditioned on x, z is independent of y.
        rng = np.random.default_rng(0)
        xs = rng.choice(["a", "b"], size=400).tolist()
        zs = list(xs)  # perfect copy
        ys = [("hi" if x == "a" else "lo") for x in xs]
        marginal = test_independence(zs, ys)
        assert marginal.dependent  # z looks associated marginally
        conditional = test_conditional_independence(zs, ys, strata=xs)
        assert not conditional.dependent  # but adds nothing beyond x

    def test_true_joint_dependence_survives(self):
        # y depends on both x and z jointly.
        rng = np.random.default_rng(1)
        xs = rng.choice(["a", "b"], size=600)
        zs = rng.choice(["p", "q"], size=600)
        ys = [f"{x}{z}" for x, z in zip(xs, zs)]
        conditional = test_conditional_independence(
            zs.tolist(), ys, strata=xs.tolist()
        )
        assert conditional.dependent

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            test_conditional_independence([1], [1, 2], [1, 2])

    def test_all_degenerate_strata(self):
        # Each stratum has a single x value: no testable association.
        xs = ["a", "a", "b", "b"]
        ys = [1, 2, 1, 2]
        strata = ["s1", "s1", "s2", "s2"]
        result = test_conditional_independence(xs, ys, strata)
        # x is constant within each stratum -> dof 0 -> independent.
        assert not result.dependent

    def test_statistic_sums_over_strata(self):
        xs = ["a", "b"] * 50
        ys = ["u", "v"] * 50
        single = test_independence(xs, ys)
        doubled = test_conditional_independence(
            xs + xs, ys + ys, strata=["s1"] * 100 + ["s2"] * 100
        )
        assert doubled.statistic == pytest.approx(2 * single.statistic)
        assert doubled.dof == 2 * single.dof

    def test_raw_and_encoded_strata_agree_exactly(self):
        # Value-tuple strata and packed integer strata over the same
        # columns group the samples identically, so every statistic
        # comes out float-identical (not merely close).
        rng = np.random.default_rng(7)
        n = 600
        a = rng.choice(["u", "s", "r"], size=n).tolist()
        b = rng.integers(0, 4, size=n).tolist()
        xs = rng.choice(["p", "q", "w"], size=n).tolist()
        noise = rng.random(n) < 0.2
        ys = [
            "z" if flip else f"{u}{v % 2}"
            for u, v, flip in zip(a, b, noise)
        ]
        raw = test_conditional_independence(xs, ys, list(zip(a, b)))
        a_codes, _ = factorize(a)
        b_codes, _ = factorize(b)
        packed = a_codes.astype(np.int64) * 4 + b_codes
        x_codes, _ = factorize(xs)
        y_codes, _ = factorize(ys)
        encoded = test_conditional_independence(x_codes, y_codes, packed)
        assert raw.dof > 0
        assert raw == encoded
