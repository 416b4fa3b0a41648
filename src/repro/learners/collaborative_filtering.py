"""Collaborative filtering with chi-square independence tests and voting.

Auric's learner (section 3.2), and the one home of its algorithm: the
engine (:mod:`repro.core.auric`) and Table 4's
:class:`CollaborativeFilteringRecommender` both select attributes with
:func:`select_attributes` and vote from the :class:`CellVoteTable` that
:func:`prefix_table` builds.  Fitting:

1. For each attribute column, run a chi-square test of independence
   against the parameter values; keep the *dependent* attributes.  This
   "eliminates the irrelevant attributes with respect to the parameter
   values" — the failure mode that hurts kNN.
2. Build one plurality table per relaxation prefix of the dependent
   attributes (strongest first): the exact cell, then one dependency
   fewer at a time, down to the global value distribution.

Recommending for a new carrier: the carriers that exactly match it on
the dependent attributes vote; the recommendation is the value with
maximum support, accepted when its support reaches the threshold (75%
in the paper's implementation).  An unseen cell relaxes the match,
dropping the least dependent attribute first (the cold-start /
"bootstrapping the unobserved" limitation of section 6).

Everything runs over integer codes, with kernels built from
``np.unique`` / ``np.bincount``:

* :func:`pack_columns` — mixed-radix packing of a column subset into a
  single ``int64`` key per row (with an explicit capacity guard; a fit
  whose vocabularies are too large to pack fails, which cannot happen
  at the schema's cardinalities).
* :func:`grouped_votes` — every distinct (cell, label) pair's total
  vote weight in one shot, emitted in first-appearance order: the
  ``Counter`` insertion order, *byte for byte*.
* :class:`CellVoteTable` — per-cell plurality winner, runner-up and
  totals precomputed with one vectorized sort, so a vote (and its
  leave-one-out variant) is an O(1) lookup instead of a ``Counter``
  copy.

Every result follows ``Counter`` arithmetic exactly: codes are
bijective with raw values per column, float vote weights accumulate in
insertion order, and plurality ties go to the first-inserted label.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import RecommendationError
from repro.learners.base import Label, Learner, Row
from repro.learners.chi_square import (
    ChiSquareResult,
    factorize,
    marginal_tests,
    test_conditional_independence,
)
from repro.types import AttributeValue, ParameterValue

DEFAULT_SUPPORT_THRESHOLD = 0.75
DEFAULT_P_VALUE = 0.01

#: Packed cell keys must stay clear of int64 overflow, including the
#: final ``* n_labels`` step of :func:`grouped_votes`.
PACK_CAPACITY_LIMIT = 2**62


def check_options(
    support_threshold: float,
    p_value: float,
    min_effect_size: float,
    selection: str,
) -> None:
    """Raise ``ValueError`` unless every option of the algorithm is in
    its domain (the learner's constructor and ``AuricConfig`` share
    these checks)."""
    if not 0.0 < support_threshold <= 1.0:
        raise ValueError(
            f"support_threshold must be in (0, 1], got {support_threshold!r}"
        )
    if not 0.0 < p_value < 1.0:
        raise ValueError(f"p_value must be in (0, 1), got {p_value!r}")
    if not 0.0 <= min_effect_size <= 1.0:
        raise ValueError(
            f"min_effect_size must be in [0, 1], got {min_effect_size!r}"
        )
    if selection not in ("conditional", "marginal"):
        raise ValueError(
            f"selection must be 'conditional' or 'marginal', got {selection!r}"
        )


# -- kernels ------------------------------------------------------------------


class ColumnarCapacityError(RecommendationError):
    """Vocabularies too large to pack into one int64 key.

    Raised as a fit error; the synthetic and production schemas are
    orders of magnitude below the limit, so this is a guard rail, not
    an expected mode.
    """


def pack_capacity(sizes: Sequence[int], columns: Sequence[int]) -> int:
    """The key-space size of packing ``columns`` with the given vocab
    ``sizes``; raises :class:`ColumnarCapacityError` past the limit."""
    capacity = 1
    for col in columns:
        capacity *= max(int(sizes[col]), 1)
        if capacity > PACK_CAPACITY_LIMIT:
            raise ColumnarCapacityError(
                f"cell key space {capacity} exceeds int64 packing capacity"
            )
    return capacity


def pack_columns(
    matrix: np.ndarray, columns: Sequence[int], sizes: Sequence[int]
) -> np.ndarray:
    """Mixed-radix-pack a subset of code columns into one int64 per row.

    ``matrix[:, columns[0]]`` is the least-significant digit, so two
    rows get equal keys iff they agree on every packed column (no
    columns: every key is 0).  Codes must be non-negative and below
    their column's ``sizes`` entry.
    """
    pack_capacity(sizes, columns)
    packed = np.zeros(len(matrix), dtype=np.int64)
    stride = 1
    for col in columns:
        packed += matrix[:, col].astype(np.int64) * stride
        stride *= max(int(sizes[col]), 1)
    return packed


def grouped_votes(
    cell_codes: np.ndarray,
    label_codes: np.ndarray,
    n_labels: int,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total vote weight of every distinct (cell, label) pair.

    Returns ``(cells, labels, totals)`` ordered by each pair's first
    appearance in the sample order — the insertion order (and, weights
    being accumulated by ``bincount`` in array order, exactly the float
    sums) of a per-sample ``Counter`` loop.
    """
    n_labels = max(int(n_labels), 1)
    packed = cell_codes * n_labels + label_codes
    uniq, first, inverse, counts = np.unique(
        packed, return_index=True, return_inverse=True, return_counts=True
    )
    if weights is None:
        totals = counts.astype(np.float64)
    else:
        totals = np.bincount(
            inverse.reshape(-1),
            weights=np.asarray(weights, dtype=np.float64),
            minlength=len(uniq),
        )
    order = np.argsort(first, kind="stable")
    uniq = uniq[order]
    return uniq // n_labels, uniq % n_labels, totals[order]


#: Sentinel distinguishing "no leave-one-out exclusion" from excluding
#: a label that happens to be None.
NO_EXCLUDE = object()


def plurality(votes: Dict) -> Tuple:
    """``(winner, count)`` of a vote mapping, with
    ``Counter.most_common``'s first-inserted tie-break."""
    return max(votes.items(), key=itemgetter(1))


class CellVoteTable:
    """Per-cell vote distributions for exact-cell plurality votes.

    Built from (cell, label, weight total) groups in insertion order
    (:func:`prefix_table`).  For every cell the table holds the total
    weight, the plurality winner ``(value1, top1)`` and the strongest
    *other* label ``(value2, top2)`` — each resolved with
    ``Counter.most_common``'s tie-break (first-inserted label wins).
    When every count is a positive integer (unweighted votes) that
    answers any single-vote leave-one-out exclusion in O(1); other
    exclusions replay the ``Counter`` arithmetic over the cell's
    entries.

    :meth:`vote` and :meth:`distribution` return ``None`` for an
    unknown cell and for a cell the exclusion empties.
    """

    __slots__ = (
        "_slots",
        "_value1",
        "_value2",
        "_top1",
        "_top2",
        "_pos1",
        "_pos2",
        "_totals",
        "_order",
        "_starts",
        "_sizes",
        "_labels",
        "_counts",
        "_unit",
    )

    def __init__(
        self,
        group_cells: np.ndarray,
        group_labels: np.ndarray,
        group_totals: np.ndarray,
        decode_cells: Callable[[np.ndarray], List[Tuple]],
        label_vocab: Sequence[ParameterValue],
    ) -> None:
        """Build from :func:`grouped_votes` output.

        The groups arrive in (cell, label)-pair first-appearance order;
        restricted to one cell that is the cell's label insertion order,
        which fixes every plurality and leave-one-out tie-break.
        ``decode_cells`` maps an array of cell keys to raw cell tuples
        in one call.
        """
        uniq, first, inverse = np.unique(
            group_cells, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.intp)
        rank[order] = np.arange(len(uniq), dtype=np.intp)
        cells = rank[inverse.reshape(-1)]
        counts = np.asarray(group_totals, dtype=np.float64)
        entry_labels = [label_vocab[code] for code in group_labels.tolist()]
        self._slots = {
            cell: slot for slot, cell in enumerate(decode_cells(uniq[order]))
        }
        n_cells = len(self._slots)
        positions = np.arange(len(cells), dtype=np.intp)
        # Sort by (cell, count desc, insertion position): the first
        # entry of each cell block is most_common(1), the second is the
        # strongest remaining label under the same tie-break.
        order = np.lexsort((positions, -counts, cells))
        sorted_cells = cells[order]
        starts = np.searchsorted(sorted_cells, np.arange(n_cells, dtype=np.intp))
        sizes = np.bincount(cells, minlength=n_cells)
        top1_entries = order[starts]
        self._top1 = counts[top1_entries]
        self._pos1 = positions[top1_entries]
        self._value1 = [entry_labels[i] for i in top1_entries.tolist()]
        has_second = sizes >= 2
        second_starts = np.where(has_second, starts + 1, starts)
        top2_entries = order[second_starts]
        top2 = np.where(has_second, counts[top2_entries], 0.0)
        self._top2 = top2
        self._pos2 = np.where(has_second, positions[top2_entries], -1)
        self._value2 = [
            entry_labels[i] if second else None
            for i, second in zip(top2_entries.tolist(), has_second.tolist())
        ]
        # Per-cell sums in entry (insertion) order, as sum(counter.values()).
        self._totals = np.bincount(cells, weights=counts, minlength=n_cells)
        self._order = order
        self._starts = starts
        self._sizes = sizes
        self._labels = entry_labels
        self._counts = counts
        self._unit = bool(np.all((counts >= 1.0) & (counts == np.floor(counts))))

    def __len__(self) -> int:
        return len(self._slots)

    def _entries(
        self, slot: int, exclude_label: object, weight: float, drop_zero: bool
    ) -> List[Tuple[ParameterValue, float]]:
        """The cell's ``(label, count)`` entries in insertion order after
        the exclusion.  ``Counter`` arithmetic: the excluded label loses
        ``weight`` — from a positive count only, unless ``drop_zero`` —
        and drops out at <= 1e-12."""
        start = self._starts[slot]
        block = np.sort(self._order[start:start + self._sizes[slot]])
        entries = []
        for i in block.tolist():
            label, count = self._labels[i], float(self._counts[i])
            if (
                exclude_label is not NO_EXCLUDE
                and label == exclude_label
                and (count > 0 or drop_zero)
            ):
                count -= weight
                if count <= 1e-12:
                    continue
            entries.append((label, count))
        return entries

    def distribution(
        self,
        cell: Tuple,
        exclude_label: object = NO_EXCLUDE,
        weight: float = 1.0,
        drop_zero: bool = False,
    ) -> Optional[List[Tuple[ParameterValue, float]]]:
        """The cell's ``(value, weight)`` pairs in ``most_common()``
        order after the exclusion (see :meth:`vote`), or ``None``."""
        slot = self._slots.get(cell)
        if slot is None:
            return None
        entries = self._entries(slot, exclude_label, weight, drop_zero)
        return sorted(entries, key=itemgetter(1), reverse=True) or None

    def vote(
        self,
        cell: Tuple,
        exclude_label: object = NO_EXCLUDE,
        weight: float = 1.0,
        drop_zero: bool = False,
    ) -> Optional[Tuple[ParameterValue, float, float]]:
        """``(value, top, total)`` of the cell's vote after one
        ``weight`` vote for ``exclude_label`` (which the caller knows is
        in the cell) leaves it, or ``None`` for an unknown or emptied
        cell.  ``drop_zero`` also drops the excluded label when its
        count is already 0 (zero-weight voters)."""
        slot = self._slots.get(cell)
        if slot is None:
            return None
        top1 = self._top1[slot]
        total = self._totals[slot]
        if exclude_label is NO_EXCLUDE:
            return self._value1[slot], top1, total
        if not (self._unit and weight == 1.0):
            entries = self._entries(slot, exclude_label, weight, drop_zero)
            if not entries:
                return None
            value, top = plurality(dict(entries))
            return value, top, sum(count for _, count in entries)
        # Integer counts, unit exclusion: exact O(1) arithmetic.
        total -= 1.0
        if total <= 0.0:
            return None  # cell emptied; the caller relaxes the match
        if exclude_label != self._value1[slot]:
            # A non-winning label lost a vote: since its count was
            # strictly below top1 (or tied but inserted later), the
            # winner is unchanged.
            return self._value1[slot], top1, total
        reduced = top1 - 1.0
        top2 = self._top2[slot]
        if self._pos2[slot] < 0 or reduced > top2:
            return self._value1[slot], reduced, total
        if reduced < top2:
            return self._value2[slot], top2, total
        # Tie after the exclusion: Counter.most_common keeps the
        # first-inserted of the tied labels.
        if self._pos1[slot] < self._pos2[slot]:
            return self._value1[slot], reduced, total
        return self._value2[slot], top2, total


def decode_prefixes(
    keys: np.ndarray,
    vocabs: Sequence[Sequence[AttributeValue]],
    sizes: Sequence[int],
    level: int,
) -> List[Tuple[AttributeValue, ...]]:
    """Unpack an array of keys packed over the first ``level`` columns
    (vocab ``vocabs[j]``, size ``sizes[j]``) into raw value tuples, one
    modulo pass per column instead of a Python loop per key; level 0
    decodes every key to ``()``."""
    if level == 0:
        return [()] * len(keys)
    columns = []
    remaining = keys
    for vocab, size in zip(vocabs[:level], sizes[:level]):
        size = max(int(size), 1)
        columns.append([vocab[code] for code in (remaining % size).tolist()])
        remaining = remaining // size
    return list(zip(*columns))


def prefix_table(
    cell_codes: np.ndarray,
    sizes: Sequence[int],
    vocabs: Sequence[Sequence[AttributeValue]],
    level: int,
    label_codes: np.ndarray,
    label_vocab: Sequence[ParameterValue],
    weights: Optional[np.ndarray] = None,
) -> CellVoteTable:
    """The plurality table over the first ``level`` dependent attributes
    of the packed ``cell_codes`` (vocab sizes ``sizes``, values
    ``vocabs``): every attribute gives the exact-cell table, none the
    global value distribution.  ``weights`` is the per-sample vote
    weight (``None``: all 1.0).

    Mixed-radix packing puts the first dependent column at stride 1,
    so a prefix key is just the full key modulo the product of the
    first ``level`` vocab sizes — no repacking pass needed.
    """
    codes = cell_codes
    if level < len(sizes):
        modulo = 1
        for size in sizes[:level]:
            modulo *= max(int(size), 1)
        codes = codes % modulo
    groups = grouped_votes(codes, label_codes, len(label_vocab), weights)
    return CellVoteTable(
        *groups,
        lambda keys: decode_prefixes(keys, vocabs, sizes, level),
        label_vocab,
    )


# -- selection ----------------------------------------------------------------


def select_attributes(
    code_matrix: np.ndarray,
    label_codes: np.ndarray,
    column_sizes: Sequence[int],
    p_value: float,
    min_effect_size: float,
    selection: str,
) -> Tuple[Tuple[int, ...], List[ChiSquareResult]]:
    """Chi-square attribute selection over integer code columns.

    ``code_matrix[:, col]`` holds column ``col``'s codes (each below
    ``column_sizes[col]``) and ``label_codes`` the parameter values'.
    Returns ``(dependent, marginal_results)``: the dependent columns,
    strongest dependency first, and every column's marginal test.  Every
    contingency table is laid out in first-appearance order, so any
    one-to-one coding of the columns and labels selects the same
    columns with bit-identical statistics.

    ``selection="marginal"`` is the paper's verbatim formulation: every
    attribute whose marginal test rejects independence (with Cramér's V
    at least ``min_effect_size``) is dependent.  ``"conditional"`` runs
    stepwise forward selection over the marginally dependent candidates.
    """
    columns = [code_matrix[:, col] for col in range(code_matrix.shape[1])]
    # Marginal tests: candidate ranking plus per-column diagnostics.
    results = marginal_tests(columns, label_codes, p_value)
    # Candidacy needs only statistical dependence; the effect-size
    # floor is applied at the conditional stage, where a weak
    # marginal association can still prove strong once dominant
    # attributes are absorbed (e.g. a carrier type that only
    # matters on low-band carriers).
    ranked = [
        (result.statistic, col)
        for col, result in enumerate(results)
        if result.dependent
    ]
    ranked.sort(key=lambda item: (-item[0], item[1]))

    if selection == "marginal":
        dependent = tuple(
            col for _, col in ranked if results[col].cramers_v >= min_effect_size
        )
        return dependent, results

    # Stepwise forward selection with conditional chi-square tests:
    # each round, every remaining candidate is tested for association
    # with the parameter *within* the cells formed by the attributes
    # selected so far (packed into one integer stratum key per sample),
    # and the strongest still-dependent candidate joins the set.  This
    # removes attributes whose marginal association merely mirrors an
    # already-selected one (e.g. a MIMO mode that tracks the carrier
    # frequency) — matching on them would fragment the vote cells
    # without adding signal — while still finding weak-marginal but
    # real dependencies once the dominant ones are absorbed.
    selected: List[int] = []
    remaining = [col for _, col in ranked]
    while remaining:
        strata = pack_columns(code_matrix, selected, column_sizes)
        best_col = None
        best_statistic = 0.0
        for col in remaining:
            result = test_conditional_independence(
                columns[col], label_codes, strata, p_value
            )
            if not result.dependent or result.cramers_v < min_effect_size:
                continue
            if result.statistic > best_statistic:
                best_col, best_statistic = col, result.statistic
        if best_col is None:
            break
        selected.append(best_col)
        remaining.remove(best_col)
    return tuple(selected), results


# -- the Table 4 learner ------------------------------------------------------


@dataclass(frozen=True)
class VoteOutcome:
    """Detailed result of one recommendation vote."""

    value: Label
    support: float
    matched_weight: float
    confident: bool
    dependent_attributes: Tuple[int, ...]
    fallback_used: bool


class CollaborativeFilteringRecommender(Learner):
    """Chi-square-filtered exact-match voting recommender."""

    name = "collaborative-filtering"

    def __init__(
        self,
        support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
        p_value: float = DEFAULT_P_VALUE,
        min_effect_size: float = 0.12,
        selection: str = "conditional",
    ) -> None:
        super().__init__()
        check_options(support_threshold, p_value, min_effect_size, selection)
        self.support_threshold = support_threshold
        self.p_value = p_value
        #: Minimum Cramér's V for an attribute to count as dependent.  At
        #: production sample sizes the chi-square test alone flags even
        #: negligible associations as significant; the effect-size floor
        #: keeps the "eliminate irrelevant attributes" property the paper
        #: relies on.
        self.min_effect_size = min_effect_size
        #: Attribute-selection strategy: "conditional" (stepwise forward
        #: selection with stratified chi-square tests — the default) or
        #: "marginal" (the paper's verbatim formulation: every attribute
        #: whose marginal test rejects independence is dependent).  The
        #: marginal mode exists for the ablation that quantifies why the
        #: conditional refinement is needed at realistic sample sizes.
        self.selection = selection
        self._dependent: Tuple[int, ...] = ()
        self._test_results: List[ChiSquareResult] = []
        # One vote table per relaxation prefix of the dependent
        # attributes, longest first: index 0 is the exact cell, the last
        # the global distribution.  Prefixes keep the strongest
        # dependencies, so relaxation drops the *least* dependent
        # attribute first.
        self._tables: List[CellVoteTable] = []

    # -- fitting ----------------------------------------------------------

    def _fit(self, rows: Sequence[Row], labels: Sequence[Label]) -> None:
        encoded =[factorize(column) for column in zip(*rows)]
        code_matrix = np.column_stack([codes for codes, _ in encoded])
        sizes = [len(vocab) for _, vocab in encoded]
        label_codes, label_vocab = factorize(labels)
        dependent, self._test_results = select_attributes(
            code_matrix,
            label_codes,
            sizes,
            self.p_value,
            self.min_effect_size,
            self.selection,
        )
        self._dependent = dependent
        # The cell x label keys of grouped_votes must pack too.
        pack_capacity(sizes + [len(label_vocab)], dependent + (len(sizes),))
        cell_codes = pack_columns(code_matrix, dependent, sizes)
        dep_sizes = [sizes[col] for col in dependent]
        dep_vocabs = [encoded[col][1] for col in dependent]
        self._tables = [
            prefix_table(
                cell_codes, dep_sizes, dep_vocabs, level, label_codes, label_vocab
            )
            for level in range(len(dependent), -1, -1)
        ]

    # -- introspection ----------------------------------------------------

    @property
    def dependent_attributes(self) -> Tuple[int, ...]:
        """Indices of attribute columns the parameter depends on,
        strongest dependency first."""
        self._require_fitted()
        return self._dependent

    def test_result(self, column: int) -> ChiSquareResult:
        """The chi-square outcome for one attribute column."""
        self._require_fitted()
        return self._test_results[column]

    # -- prediction -------------------------------------------------------

    def vote(self, row: Row) -> VoteOutcome:
        """Run the voting procedure for one new carrier: the plurality
        of the exact dependent-attribute cell, relaxed one dependency at
        a time when the cell is unseen.  The last table, the global
        distribution, holds every training carrier, so a vote always
        stands."""
        self._require_fitted()
        return self._cell_vote(tuple(row[col] for col in self._dependent))

    def _cell_vote(self, cell: Tuple) -> VoteOutcome:
        """:meth:`vote` for one dependent-attribute cell."""
        for level, table in enumerate(self._tables):
            length = len(cell) - level
            outcome = table.vote(cell[:length])
            if outcome is not None:
                break
        value, top, total = outcome
        support = float(top / total)
        return VoteOutcome(
            value=value,
            support=support,
            matched_weight=float(total),
            confident=support >= self.support_threshold,
            dependent_attributes=self._dependent[:length],
            fallback_used=level > 0,
        )

    def _predict(self, rows: Sequence[Row]) -> List[Label]:
        """One vote per distinct dependent-attribute cell."""
        cells = [tuple(row[col] for col in self._dependent) for row in rows]
        values = {cell: self._cell_vote(cell).value for cell in set(cells)}
        return [values[cell] for cell in cells]
