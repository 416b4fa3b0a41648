"""Chi-square test of independence between attributes and parameters.

Implements equations (3) and (4) of the paper: a contingency table lays
out counts for each (attribute value, parameter value) pair; the test
statistic is the normalized squared deviation of observed from expected
counts, compared against the chi-square critical value at degrees of
freedom (R-1)(C-1) and the chosen significance level (p = 0.01 in the
paper's evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats


def factorize(values: Sequence[Hashable]) -> Tuple[np.ndarray, List[Hashable]]:
    """Integer-encode a categorical sequence in first-appearance order.

    Returns ``(codes, uniques)`` where ``codes[i] == uniques.index(values[i])``.
    First-appearance ordering (not sorted order) keeps downstream
    contingency tables byte-identical to the historical dict-based
    builder for a fixed dataset order.

    Numpy arrays with a non-object dtype (including pre-encoded integer
    columns) take a fully vectorized path; lists and object arrays fall
    back to a single dict-encoding pass.
    """
    if isinstance(values, np.ndarray) and values.dtype != np.dtype(object):
        if values.ndim != 1:
            raise ValueError("can only factorize 1-dimensional arrays")
        codes, ordered = _factorize_codes(values)
        uniques = [u.item() if isinstance(u, np.generic) else u for u in ordered]
        return codes, uniques
    index: Dict[Hashable, int] = {}
    codes = np.fromiter(
        (index.setdefault(v, len(index)) for v in values),
        dtype=np.intp,
        count=len(values),
    )
    return codes, list(index)


def _factorize_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`factorize` for a non-object 1-D array, without decoding the
    unique values to Python objects: ``(codes, ordered_uniques)`` where
    the uniques stay a numpy array in first-appearance order."""
    uniq, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[order] = np.arange(len(uniq), dtype=np.intp)
    return rank[inverse.reshape(-1)], uniq[order]


def _encoded_column(
    values: Sequence[Hashable],
) -> Tuple[np.ndarray, int]:
    """Codes plus a distinct-count bound for one stratified-test column.

    A pre-encoded non-negative integer column passes through untouched:
    the stratified builder only re-ranks codes *within* each stratum
    (first-appearance order), so any bijective encoding yields identical
    tables, and the bound merely sizes the key packing.  Anything else
    is factorized.
    """
    if (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and np.issubdtype(values.dtype, np.integer)
        and (len(values) == 0 or int(values.min()) >= 0)
    ):
        return values, int(values.max()) + 1 if len(values) else 0
    codes, uniques = factorize(values)
    return codes, len(uniques)


def contingency_from_codes(
    x_codes: np.ndarray,
    y_codes: np.ndarray,
    n_rows: Optional[int] = None,
    n_cols: Optional[int] = None,
) -> np.ndarray:
    """The observed-count table for two pre-encoded integer columns.

    One vectorized ``bincount`` pass — no per-cell Python dict.  Codes
    must be non-negative; ``n_rows``/``n_cols`` default to the observed
    maxima.
    """
    if len(x_codes) != len(y_codes):
        raise ValueError("xs and ys must have equal length")
    if len(x_codes) == 0:
        raise ValueError("cannot build a contingency table from zero samples")
    if n_rows is None:
        n_rows = int(x_codes.max()) + 1
    if n_cols is None:
        n_cols = int(y_codes.max()) + 1
    flat = np.asarray(x_codes, dtype=np.intp) * n_cols + np.asarray(
        y_codes, dtype=np.intp
    )
    counts = np.bincount(flat, minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols).astype(np.float64)


def contingency_table(
    xs: Sequence[Hashable], ys: Sequence[Hashable]
) -> Tuple[np.ndarray, List[Hashable], List[Hashable]]:
    """Build the observed-count table O for two categorical sequences.

    Returns ``(table, row_values, col_values)`` where ``table[a, b]`` is
    the number of samples with ``xs == row_values[a]`` and
    ``ys == col_values[b]``.  Row/column orders follow first appearance,
    which keeps tables deterministic for a fixed dataset order.

    Accepts plain sequences, numpy arrays, and pre-encoded integer
    columns alike; counting is a single vectorized pass.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) == 0:
        raise ValueError("cannot build a contingency table from zero samples")
    x_codes, rows = factorize(xs)
    y_codes, cols = factorize(ys)
    table = contingency_from_codes(x_codes, y_codes, len(rows), len(cols))
    return table, rows, cols


def chi_square_statistic(table: np.ndarray) -> float:
    """The chi-square statistic of an observed-count table (equation 3).

    Expected counts come from the marginals (equation 4).  Cells whose
    expected count is zero (an all-zero row or column) contribute nothing.
    """
    if table.ndim != 2:
        raise ValueError("contingency table must be 2-dimensional")
    total = table.sum()
    if total <= 0:
        raise ValueError("contingency table has no observations")
    row_sums = table.sum(axis=1, keepdims=True)
    col_sums = table.sum(axis=0, keepdims=True)
    expected = row_sums @ col_sums / total
    mask = expected > 0
    deviation = np.zeros_like(table)
    deviation[mask] = (table[mask] - expected[mask]) ** 2 / expected[mask]
    return float(deviation.sum())


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of one independence test.

    ``cramers_v`` is the Cramér's V effect size in [0, 1]: with very
    large samples the chi-square test flags even negligible associations
    as significant, so association *strength* must be judged separately.
    """

    statistic: float
    dof: int
    critical_value: float
    p_value: float
    dependent: bool
    cramers_v: float = 0.0


#: Strata smaller than this are excluded from the stratified test: in a
#: 2-3 sample stratum almost any pair of variables looks perfectly
#: associated, and summing thousands of such strata manufactures a
#: spuriously "significant" dependence (with Cramér's V near 1).
DEFAULT_MIN_STRATUM_SIZE = 8


def _stratum_local_codes(
    stratum_codes: np.ndarray, codes: np.ndarray, n_strata: int, n_values: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-encode ``codes`` *within each stratum* in first-appearance
    order, for every stratum at once.

    Returns ``(local_codes, counts)`` where ``local_codes[i]`` is the
    rank of ``codes[i]``'s first appearance among its stratum's distinct
    values (exactly the code :func:`factorize` assigns over the
    stratum's samples) and ``counts[s]`` is stratum ``s``'s number of distinct values.
    """
    pair = stratum_codes.astype(np.int64) * n_values + codes
    uniq, first, inverse = np.unique(
        pair, return_index=True, return_inverse=True
    )
    pair_stratum = (uniq // n_values).astype(np.intp)
    counts = np.bincount(pair_stratum, minlength=n_strata)
    # Rank each stratum's distinct values by first appearance: sort the
    # unique pairs by (stratum, first position) and number them within
    # their stratum block.
    order = np.lexsort((first, pair_stratum))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[order] = np.arange(len(uniq), dtype=np.intp) - np.repeat(
        starts, counts
    )
    return rank[inverse.reshape(-1)], counts


def test_conditional_independence(
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
    strata: Sequence[Hashable],
    p_value: float = 0.01,
    min_stratum_size: int = DEFAULT_MIN_STRATUM_SIZE,
) -> ChiSquareResult:
    """Chi-square test of ``xs`` vs ``ys`` *conditioned on* ``strata``.

    A Cochran–Mantel–Haenszel-style stratified test: within each stratum
    (each distinct value of ``strata``) the ordinary chi-square statistic
    is computed, and statistics and degrees of freedom are summed across
    strata.  An attribute whose marginal association with the parameter
    flows entirely through already-selected attributes comes out
    independent here — exactly the redundancy the recommender must not
    match on.

    Degenerate strata (a single distinct x or y value) contribute zero
    statistic and zero degrees of freedom.  The pooled Cramér's V uses
    the number of samples in non-degenerate strata.
    """
    if not (len(xs) == len(ys) == len(strata)):
        raise ValueError("xs, ys and strata must have equal length")
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must be in (0, 1)")
    if not (isinstance(strata, np.ndarray) and strata.dtype != np.dtype(object)):
        # Raw strata (value tuples) are factorized first; pre-encoded
        # strata (the columnar fit path packs the selected columns into
        # one integer key per sample) are used as they are.
        strata, _ = factorize(strata)
    x_codes, n_x = _encoded_column(xs)
    y_codes, n_y = _encoded_column(ys)
    return _conditional_from_encoded(
        x_codes, n_x, y_codes, n_y, strata, p_value, min_stratum_size
    )


def _conditional_from_encoded(
    x_codes: np.ndarray,
    n_x: int,
    y_codes: np.ndarray,
    n_y: int,
    strata: np.ndarray,
    p_value: float,
    min_stratum_size: int,
) -> ChiSquareResult:
    """The stratified test over integer-coded strata.

    All per-stratum contingency tables are laid out by one vectorized
    pass — within-stratum first-appearance re-encoding via
    :func:`_stratum_local_codes`, then a single ``bincount`` over
    per-stratum cell offsets.  Stratum for stratum, the tables are
    those :func:`contingency_table` builds from the stratum's samples
    (same counts, same first-appearance row/column order), and strata
    are visited in first-appearance order, so any bijective encoding
    of the strata pools identical floats.
    """
    stratum_codes, stratum_uniques = _factorize_codes(strata)
    sizes_all = np.bincount(stratum_codes, minlength=len(stratum_uniques))
    keep = sizes_all >= min_stratum_size

    total_statistic = 0.0
    total_dof = 0
    effective_n = 0
    min_dim_weighted = 0.0
    if keep.any():
        mask = keep[stratum_codes]
        remap = np.cumsum(keep) - 1  # old stratum id -> dense kept id
        s = remap[stratum_codes[mask]]
        n_strata = int(keep.sum())
        sub_x, nx = _stratum_local_codes(s, x_codes[mask], n_strata, n_x)
        sub_y, ny = _stratum_local_codes(s, y_codes[mask], n_strata, n_y)
        cells = nx * ny
        offsets = np.concatenate(([0], np.cumsum(cells)[:-1]))
        flat = offsets[s] + sub_x * ny[s] + sub_y
        counts = np.bincount(flat, minlength=int(cells.sum()))
        nx_list = nx.tolist()
        ny_list = ny.tolist()
        offset_list = offsets.tolist()
        size_list = sizes_all[keep].tolist()
        for t in range(n_strata):
            n_rows = nx_list[t]
            n_cols = ny_list[t]
            dof = (n_rows - 1) * (n_cols - 1)
            if dof == 0:
                continue
            start = offset_list[t]
            table = (
                counts[start : start + n_rows * n_cols]
                .astype(np.float64)
                .reshape(n_rows, n_cols)
            )
            total_statistic += chi_square_statistic(table)
            total_dof += dof
            effective_n += size_list[t]
            min_dim_weighted += size_list[t] * min(n_rows - 1, n_cols - 1)
    if total_dof == 0 or effective_n == 0:
        return ChiSquareResult(0.0, 0, float("inf"), p_value, False, 0.0)
    critical = float(stats.chi2.ppf(1.0 - p_value, total_dof))
    mean_min_dim = max(min_dim_weighted / effective_n, 1.0)
    v = float(np.sqrt(total_statistic / (effective_n * mean_min_dim)))
    return ChiSquareResult(
        total_statistic,
        total_dof,
        critical,
        p_value,
        total_statistic > critical,
        min(v, 1.0),
    )


def _result_from_table(
    table: np.ndarray, n_rows: int, n_cols: int, p_value: float
) -> ChiSquareResult:
    dof = (n_rows - 1) * (n_cols - 1)
    if dof == 0:
        return ChiSquareResult(0.0, 0, float("inf"), p_value, False)
    statistic = chi_square_statistic(table)
    critical = float(stats.chi2.ppf(1.0 - p_value, dof))
    n = float(table.sum())
    v = float(np.sqrt(statistic / (n * min(n_rows - 1, n_cols - 1))))
    return ChiSquareResult(
        statistic, dof, critical, p_value, statistic > critical, min(v, 1.0)
    )


def test_independence(  # noqa: PT028 - library function, not a pytest test
    xs: Sequence[Hashable], ys: Sequence[Hashable], p_value: float = 0.01
) -> ChiSquareResult:
    """Chi-square test of independence between two categorical variables.

    ``dependent`` is True when the statistic exceeds the critical value,
    i.e. the null hypothesis of independence is rejected at significance
    ``p_value``.  A degenerate table (single distinct value on either
    side) has zero degrees of freedom and can never reject the null.
    """
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must be in (0, 1)")
    table, rows, cols = contingency_table(xs, ys)
    return _result_from_table(table, len(rows), len(cols), p_value)


def marginal_tests(
    columns: Sequence[Sequence[Hashable]],
    labels: Sequence[Hashable],
    p_value: float = 0.01,
) -> List[ChiSquareResult]:
    """Chi-square test of every attribute column against one label vector.

    The batched fitting entry point: the label vector is integer-encoded
    once and each column's contingency table is a single ``bincount``
    pass, instead of re-hashing every (sample, column) pair through a
    Python dict per test.  Results are element-wise identical to calling
    :func:`test_independence` per column.
    """
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must be in (0, 1)")
    y_codes, n_cols = _codes_and_count(labels)
    results: List[ChiSquareResult] = []
    for xs in columns:
        if len(xs) != len(labels):
            raise ValueError("every column must match the label count")
        x_codes, n_rows = _codes_and_count(xs)
        table = contingency_from_codes(x_codes, y_codes, n_rows, n_cols)
        results.append(_result_from_table(table, n_rows, n_cols, p_value))
    return results


def _codes_and_count(values: Sequence[Hashable]) -> Tuple[np.ndarray, int]:
    """First-appearance codes and distinct count, skipping the Python
    decode of the unique values (which only :func:`factorize` callers
    need).  The re-rank is kept — contingency row/column order feeds the
    statistic's float summation."""
    if isinstance(values, np.ndarray) and values.dtype != np.dtype(object):
        codes, ordered = _factorize_codes(values)
        return codes, len(ordered)
    codes, uniques = factorize(values)
    return codes, len(uniques)


# These are statistical tests, not pytest tests; prevent collection when
# imported into test modules.
test_independence.__test__ = False  # type: ignore[attr-defined]
test_conditional_independence.__test__ = False  # type: ignore[attr-defined]
