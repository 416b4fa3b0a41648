"""Columnar snapshot store and vectorized voting kernels.

The engine's fitting and evaluation workload is dominated by bulk
passes over the carrier population: all ~65 range parameters fit over
the same attribute matrix, and the LOO sweep revisits every sample.
The historical path re-materialized per-carrier Python tuples for each
parameter and counted votes one ``Counter`` update at a time.

This module encodes the snapshot **once** into integer code columns:

* one ``int32`` matrix of carrier attribute codes (rows follow the
  sorted carrier-id order; one vocab table per attribute column, codes
  assigned in first-appearance order over that same sorted order), and
* per parameter, the sample topology (``sources``/``neighbors`` carrier
  row indices, in sorted-key order) plus a label code column with its
  own vocab.

On top of the codes sit three kernels, all built from ``np.unique`` /
``np.bincount``:

* :func:`pack_columns` — mixed-radix packing of a column subset into a
  single ``int64`` key per row (with an explicit capacity guard; a fit
  whose vocabularies are too large to pack fails, which cannot happen
  at the schema's cardinalities).
* :func:`grouped_votes` — every distinct (cell, label) pair's total
  vote weight in one shot, emitted in first-appearance order: the
  ``Counter`` insertion order, *byte for byte*.
* :class:`CellVoteTable` — per-cell plurality winner, runner-up and
  totals precomputed with one vectorized sort, so a global vote (and
  its leave-one-out variant) is an O(1) lookup instead of a ``Counter``
  copy.

These, with :class:`LocalVoteIndex` for neighborhood votes, are the
engine's only vote code, and the model's arrays they build from
(:class:`EncodedVotes`) are its only representation: every model — a
fit's, a pool fit's, a changelog refit's or an artifact load's — keeps
its packed cell codes over the snapshot's columns and nothing else, and
derives keys, cells and labels from them when asked.  Every result
follows ``Counter`` arithmetic exactly: codes are bijective with raw
values per column, float vote weights accumulate in insertion order,
and plurality ties go to the first-inserted label.

``--jobs N`` pool workers inherit the snapshot through fork, or under
the *spawn* start method unpickle it once from the pool payload.  The
pickle carries the arrays inline, except for a snapshot opened from the
mmap store (:mod:`repro.store.mmapfile`): while its arrays are still the
file's mapped views, it carries only ``(path, layouts)`` and the
receiver re-maps the file.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.parameters import ParameterSpec
from repro.config.store import ConfigurationStore, PairKey
from repro.exceptions import RecommendationError
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId
from repro.netmodel.network import Network
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.types import AttributeValue, ParameterValue

#: Packed cell keys must stay clear of int64 overflow, including the
#: final ``* n_labels`` step of :func:`grouped_votes`.
PACK_CAPACITY_LIMIT = 2**62


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
    rows get equal keys iff they agree on every packed column.  Codes
    must be non-negative and below their column's ``sizes`` entry.
    """
    pack_capacity(sizes, columns)
    packed = np.zeros(len(matrix), dtype=np.int64)
    stride = 1
    for col in columns:
        packed += matrix[:, col].astype(np.int64) * stride
        stride *= max(int(sizes[col]), 1)
    return packed


def unpack_key(
    key: int, columns: Sequence[int], sizes: Sequence[int]
) -> Tuple[int, ...]:
    """Invert :func:`pack_columns` for a single key (code per column)."""
    codes = []
    remaining = int(key)
    for col in columns:
        size = max(int(sizes[col]), 1)
        codes.append(remaining % size)
        remaining //= size
    return tuple(codes)


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
    obs_metrics.counter(
        "repro_vote_vectorized_cells_total",
        "Distinct vote cells computed by vectorized kernels",
    ).inc(float(len(uniq)))
    return uniq // n_labels, uniq % n_labels, totals[order]


#: Sentinel distinguishing "no leave-one-out exclusion" from excluding
#: a label that happens to be None.
NO_EXCLUDE = object()


class CellVoteTable:
    """Per-cell vote distributions for exact-cell plurality votes.

    Built from (cell, label, weight total) groups in insertion order
    (:meth:`EncodedVotes.table`).  For every cell the table holds the total weight, the plurality
    winner ``(value1, top1)`` and the strongest *other* label
    ``(value2, top2)`` — each resolved with ``Counter.most_common``'s
    tie-break (first-inserted label wins).  When every count is a
    positive integer (unweighted votes) that answers any single-vote
    leave-one-out exclusion in O(1); other exclusions replay the
    ``Counter`` arithmetic over the cell's entries.

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
        obs_metrics.counter(
            "repro_vote_vectorized_cells_total",
            "Distinct vote cells computed by vectorized kernels",
        ).inc(float(n_cells))

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


def tally(
    label_codes: Sequence[int], weights: Optional[Sequence[float]] = None
) -> Dict[int, float]:
    """Per-label vote totals in first-appearance order, weights summed
    in sequence order (``Counter`` arithmetic; unweighted counts stay
    integers)."""
    if weights is None:
        return Counter(label_codes)
    totals: Dict[int, float] = {}
    for code, weight in zip(label_codes, weights):
        totals[code] = totals.get(code, 0) + weight
    return totals


def plurality(votes: Dict) -> Tuple:
    """``(winner, count)`` of a vote mapping, with
    ``Counter.most_common``'s first-inserted tie-break."""
    return max(votes.items(), key=itemgetter(1))


def _slot_ranges(sources: np.ndarray, n_slots: int) -> Tuple[array, array]:
    """``(order, offsets)`` for samples whose source carriers sit at
    snapshot slots ``sources``: every sample position grouped by slot
    (position order within a slot), and slot ``s``'s range
    ``order[offsets[s]:offsets[s + 1]]`` of them.  A source at or past
    ``n_slots`` lands in no slot's range.

    Both come back as plain ``array`` buffers, not numpy arrays:
    indexing one yields a Python int without boxing a numpy scalar,
    which is most of the cost of gathering a few carriers' ranges.
    """
    order = np.argsort(sources, kind="stable").astype(np.int64)
    offsets = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n_slots)[:n_slots], out=offsets[1:])
    return array("q", order.tobytes()), array("q", offsets.tobytes())


class LocalVoteIndex:
    """Vectorized neighborhood gather for local (1-hop) votes.

    Built from a model's :class:`EncodedVotes`: interns each sample's
    cell as a small integer code (first-appearance order) and groups
    the sample positions by the snapshot slot of their source carrier
    (CSR offsets: see :func:`_slot_ranges`).  A neighborhood, resolved
    to slots once per request, gathers its electorate from its slots'
    ranges without hashing a single identifier, and its vote is a
    :func:`tally` over an integer slice.  ``weights`` holds each
    position's vote weight (``None``: all 1.0).
    """

    __slots__ = (
        "order",
        "offsets",
        "cell_codes",
        "label_codes",
        "cell_slot",
        "cells",
        "labels",
        "weights",
    )

    def __init__(self, encoded: "EncodedVotes") -> None:
        self.cell_codes, self.cells = encoded.cell_ranks()
        self.cell_slot = {cell: slot for slot, cell in enumerate(self.cells)}
        self.label_codes = encoded.columns.label_codes.astype(np.intp)
        self.labels = list(encoded.columns.label_vocab)
        self.weights = encoded.weights
        self.order, self.offsets = encoded.slot_ranges()
        obs_metrics.counter(
            "repro_vote_vectorized_cells_total",
            "Distinct vote cells computed by vectorized kernels",
        ).inc(float(len(self.cells)))

    def electorate(
        self, slots: Sequence[int], excluded: Optional[int]
    ) -> Optional[np.ndarray]:
        """Sample positions voting from the carriers at snapshot
        ``slots``, in slot-sequence x per-carrier insertion order, minus
        the sample at position ``excluded``."""
        order = self.order
        offsets = self.offsets
        pos: List[int] = []
        for slot in slots:
            lo = offsets[slot]
            hi = offsets[slot + 1]
            # A singular parameter has at most one sample per carrier:
            # skip building a one-element slice.
            if hi - lo == 1:
                pos.append(order[lo])
            elif hi > lo:
                pos.extend(order[lo:hi])
        if excluded is not None and excluded in pos:
            pos.remove(excluded)
        return np.array(pos, dtype=np.intp) if pos else None


class EncodedVotes:
    """One model's votes over an encoded snapshot — all a fitted model
    keeps besides its selection and weights.

    Per sample, in the parameter's sorted-key order: the packed
    dependent-attribute cell code (:func:`pack_columns`) and, through
    ``columns``, the label code and the source (and pair-wise neighbor)
    carrier slot; ``weights`` is the per-sample vote weight (``None``:
    all 1.0).  The plurality table of every relaxation level and the
    local vote index build from these arrays.  Target keys, cells and
    labels are derived from them on demand (:meth:`position`,
    :meth:`sample`, :meth:`targets`) and never stored.  A model's
    electorate never changes after its fit, so neither do these.
    """

    __slots__ = (
        "columns",
        "cell_codes",
        "prefix_sizes",
        "dep_vocabs",
        "carrier_ids",
        "carrier_slots",
        "weights",
        "_ranges",
        "_ranked",
    )

    def __init__(
        self,
        columns: "ParameterColumns",
        cell_codes: np.ndarray,
        prefix_sizes: List[int],
        dep_vocabs: List[List[AttributeValue]],
        carrier_ids: Sequence[Hashable],
        carrier_slots: Dict[Hashable, int],
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.columns = columns
        self.cell_codes = cell_codes
        self.prefix_sizes = prefix_sizes
        self.dep_vocabs = dep_vocabs
        self.carrier_ids = carrier_ids
        self.carrier_slots = carrier_slots
        self.weights = weights
        self._ranges: Optional[Tuple[array, array]] = None
        self._ranked: Optional[Tuple[np.ndarray, List[Tuple]]] = None

    def __len__(self) -> int:
        return len(self.cell_codes)

    def table(self, level: int) -> CellVoteTable:
        """The plurality table over the first ``level`` dependent
        attributes: every attribute gives the exact-cell table, none
        the global value distribution.

        Mixed-radix packing puts the first dependent column at stride 1,
        so a prefix key is just the full key modulo the product of the
        first ``level`` vocab sizes — no repacking pass needed.
        """
        codes = self.cell_codes
        if level < len(self.prefix_sizes):
            modulo = 1
            for size in self.prefix_sizes[:level]:
                modulo *= max(int(size), 1)
            codes = codes % modulo
        vocab = self.columns.label_vocab
        groups = grouped_votes(
            codes, self.columns.label_codes, len(vocab), self.weights
        )
        return CellVoteTable(
            *groups, lambda keys: self._decode_prefixes(keys, level), vocab
        )

    def _decode_prefixes(
        self, keys: np.ndarray, level: int
    ) -> List[Tuple[AttributeValue, ...]]:
        """Unpack an array of prefix keys column by column (one modulo
        pass per column instead of a Python loop per key); level 0
        decodes every key to ``()``."""
        if level == 0:
            return [()] * len(keys)
        columns = []
        remaining = keys
        for vocab, size in zip(self.dep_vocabs[:level], self.prefix_sizes[:level]):
            size = max(int(size), 1)
            columns.append([vocab[code] for code in (remaining % size).tolist()])
            remaining = remaining // size
        return list(zip(*columns))

    def cell_ranks(self) -> Tuple[np.ndarray, List[Tuple[AttributeValue, ...]]]:
        """``(ranks, cells)``: the distinct cells in first-appearance
        order and each sample's rank among them (built on first use;
        the local vote index interns its cells with them)."""
        ranked = self._ranked
        if ranked is None:
            uniq, first, inverse = np.unique(
                self.cell_codes, return_index=True, return_inverse=True
            )
            order = np.argsort(first, kind="stable")
            rank = np.empty(len(uniq), dtype=np.intp)
            rank[order] = np.arange(len(uniq), dtype=np.intp)
            ranked = self._ranked = (
                rank[inverse.reshape(-1)],
                self._decode_prefixes(uniq[order], len(self.prefix_sizes)),
            )
        return ranked

    def slot_ranges(self) -> Tuple[array, array]:
        """The samples grouped by source carrier slot (built on first
        use): see :func:`_slot_ranges`."""
        ranges = self._ranges
        if ranges is None:
            ranges = self._ranges = _slot_ranges(
                self.columns.sources, len(self.carrier_ids)
            )
        return ranges

    def position(self, key: Hashable) -> Optional[int]:
        """The sample position of target ``key``, or ``None`` when it is
        not a sample: its source carrier's slot range, then, pair-wise,
        the sample in that range with ``key``'s neighbor."""
        neighbors = self.columns.neighbors
        slots = self.carrier_slots
        if neighbors is None:
            slot = slots.get(key)
        elif isinstance(key, PairKey):
            slot = slots.get(key.carrier)
        else:
            return None
        if slot is None:
            return None
        order, offsets = self._ranges or self.slot_ranges()
        lo = offsets[slot]
        hi = offsets[slot + 1]
        if neighbors is None:
            return order[lo] if hi > lo else None
        neighbor = slots.get(key.neighbor)
        for i in range(lo, hi):
            if neighbors[order[i]] == neighbor:
                return order[i]
        return None

    def sample(
        self, key: Hashable
    ) -> Optional[Tuple[int, Tuple[AttributeValue, ...], ParameterValue, float]]:
        """``(position, cell, label, weight)`` of target ``key``'s
        sample, or ``None`` when it is not a sample."""
        pos = self.position(key)
        if pos is None:
            return None
        ranks, cells = self._ranked or self.cell_ranks()
        columns = self.columns
        return (
            pos,
            cells[ranks[pos]],
            columns.label_vocab[columns.label_codes[pos]],
            1.0 if self.weights is None else float(self.weights[pos]),
        )

    def targets(self) -> Dict[Hashable, Tuple[Tuple, ParameterValue]]:
        """Every sample as ``{key: (cell, label)}`` in sample order,
        derived from the arrays on each call — for read-only users
        (experiments, benchmarks, the golden generator)."""
        ranks, cells = self.cell_ranks()
        vocab = self.columns.label_vocab
        return {
            key: (cells[rank], vocab[label])
            for key, rank, label in zip(
                self.columns.keys(self.carrier_ids),
                ranks.tolist(),
                self.columns.label_codes.tolist(),
            )
        }


class ParameterColumns:
    """One parameter's encoded samples over a :class:`ColumnarSnapshot`.

    ``sources`` (and ``neighbors`` for pair-wise parameters) index into
    the snapshot's carrier rows, in sorted-key order (the engine's sample
    order), so the original target keys are rebuilt on demand instead of
    being stored (or pickled, or persisted) as object lists.
    """

    __slots__ = (
        "parameter",
        "pairwise",
        "sources",
        "neighbors",
        "label_codes",
        "label_vocab",
    )

    def __init__(
        self,
        parameter: str,
        pairwise: bool,
        sources: np.ndarray,
        neighbors: Optional[np.ndarray],
        label_codes: np.ndarray,
        label_vocab: List[ParameterValue],
    ) -> None:
        self.parameter = parameter
        self.pairwise = pairwise
        self.sources = sources
        self.neighbors = neighbors
        self.label_codes = label_codes
        self.label_vocab = label_vocab

    def __len__(self) -> int:
        return len(self.sources)

    @classmethod
    def encode(
        cls,
        store: ConfigurationStore,
        spec: ParameterSpec,
        carrier_slots: Dict[CarrierId, int],
    ) -> "ParameterColumns":
        if spec.is_pairwise:
            values = store.pairwise_values(spec.name)
            keys: List[Hashable] = sorted(values)
            sources = np.fromiter(
                (carrier_slots[k.carrier] for k in keys),
                dtype=np.int32,
                count=len(keys),
            )
            neighbors = np.fromiter(
                (carrier_slots[k.neighbor] for k in keys),
                dtype=np.int32,
                count=len(keys),
            )
        else:
            values = store.singular_values(spec.name)
            keys = sorted(values)
            sources = np.fromiter(
                (carrier_slots[k] for k in keys), dtype=np.int32, count=len(keys)
            )
            neighbors = None
        vocab_map: Dict[ParameterValue, int] = {}
        label_codes = np.fromiter(
            (vocab_map.setdefault(values[k], len(vocab_map)) for k in keys),
            dtype=np.int32,
            count=len(keys),
        )
        return cls(
            parameter=spec.name,
            pairwise=spec.is_pairwise,
            sources=sources,
            neighbors=neighbors,
            label_codes=label_codes,
            label_vocab=list(vocab_map),
        )

    def keys(self, carrier_ids: Sequence[CarrierId]) -> List[Hashable]:
        """The target keys in stored (sorted) order, rebuilt on each
        call from the slot columns."""
        if self.pairwise:
            return [
                PairKey(carrier_ids[s], carrier_ids[n])
                for s, n in zip(self.sources.tolist(), self.neighbors.tolist())
            ]
        return [carrier_ids[s] for s in self.sources.tolist()]

    def labels(self) -> List[ParameterValue]:
        """The configured values in stored order (decoded)."""
        vocab = self.label_vocab
        return [vocab[code] for code in self.label_codes.tolist()]


class ColumnarSnapshot:
    """Integer-encoded snapshot: attribute code matrix + label columns.

    Built once per :meth:`AuricEngine.fit` (or opened from an mmap
    store) and shared by every parameter fit, vote-table build and
    pool worker.  Treat as immutable once built — pool transport and
    the engine's caches rely on it.
    """

    def __init__(
        self,
        carrier_ids: List[CarrierId],
        codes: np.ndarray,
        vocabs: List[List[AttributeValue]],
        parameters: Optional[Dict[str, ParameterColumns]] = None,
    ) -> None:
        self.carrier_ids = carrier_ids
        self.codes = codes
        self.vocabs = vocabs
        self.parameters: Dict[str, ParameterColumns] = parameters or {}
        self._carrier_slots: Optional[Dict[CarrierId, int]] = None
        # A repro.store.mmapfile.FileBacking when the arrays are
        # zero-copy views over a persisted store file.
        self._backing = None

    # -- construction -----------------------------------------------------

    @classmethod
    def encode(
        cls,
        network: Network,
        store: ConfigurationStore,
        specs: Sequence[ParameterSpec] = (),
    ) -> "ColumnarSnapshot":
        """Encode a snapshot's attribute matrix and parameter columns."""
        started = time.perf_counter()
        with tracing.span("columnar.encode", parameters=len(specs)) as span:
            # Slot order is sorted carrier-id order.
            carrier_ids = sorted(c.carrier_id for c in network.carriers())
            n_attrs = len(ATTRIBUTE_SCHEMA.names)
            codes = np.empty((len(carrier_ids), n_attrs), dtype=np.int32)
            vocab_maps: List[Dict[AttributeValue, int]] = [
                {} for _ in range(n_attrs)
            ]
            for i, carrier_id in enumerate(carrier_ids):
                row = network.carrier(carrier_id).attributes.as_tuple()
                for j, value in enumerate(row):
                    vocab = vocab_maps[j]
                    code = vocab.get(value)
                    if code is None:
                        code = vocab[value] = len(vocab)
                    codes[i, j] = code
            snapshot = cls(
                carrier_ids=carrier_ids,
                codes=codes,
                vocabs=[list(vocab) for vocab in vocab_maps],
            )
            for spec in specs:
                snapshot.add_parameter(store, spec)
            span.set("carriers", len(carrier_ids))
            elapsed = time.perf_counter() - started
            span.set("seconds", round(elapsed, 6))
        obs_metrics.counter(
            "repro_columnar_encode_seconds_total",
            "Wall-clock seconds spent encoding columnar snapshots",
        ).inc(elapsed)
        return snapshot

    def add_parameter(
        self, store: ConfigurationStore, spec: ParameterSpec
    ) -> ParameterColumns:
        """Encode one parameter's samples (idempotent)."""
        columns = self.parameters.get(spec.name)
        if columns is None:
            columns = ParameterColumns.encode(store, spec, self.carrier_slots())
            self.parameters[spec.name] = columns
        return columns

    def shallow_copy(self) -> "ColumnarSnapshot":
        """A snapshot sharing every array and column with this one but
        owning its parameter-column dict, so a refit can re-encode one
        parameter's columns without touching the snapshot it forked."""
        copy = ColumnarSnapshot(
            self.carrier_ids, self.codes, self.vocabs, dict(self.parameters)
        )
        copy._carrier_slots = self._carrier_slots
        copy._backing = self._backing
        return copy

    def fingerprint(self) -> str:
        """A content hash of the encoded snapshot (hex, 16 chars).

        Hashes the raw integer buffers instead of re-serializing the
        dataset, so it is cheap enough for the lifecycle journal to
        stamp on every fit record: same carriers, same attribute codes,
        same encoded samples → same fingerprint.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(repr([str(c) for c in self.carrier_ids]).encode())
        digest.update(np.ascontiguousarray(self.codes).tobytes())
        digest.update(repr(self.vocabs).encode())
        for name in sorted(self.parameters):
            columns = self.parameters[name]
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(columns.sources).tobytes())
            if columns.neighbors is not None:
                digest.update(
                    np.ascontiguousarray(columns.neighbors).tobytes()
                )
            digest.update(
                np.ascontiguousarray(columns.label_codes).tobytes()
            )
            digest.update(repr(columns.label_vocab).encode())
        return digest.hexdigest()[:16]

    # -- access -----------------------------------------------------------

    def carrier_slots(self) -> Dict[CarrierId, int]:
        """Carrier id -> row index in the code matrix (cached)."""
        if self._carrier_slots is None:
            self._carrier_slots = {
                carrier_id: i for i, carrier_id in enumerate(self.carrier_ids)
            }
        return self._carrier_slots

    def has_parameter(self, name: str) -> bool:
        return name in self.parameters

    def parameter(self, name: str) -> ParameterColumns:
        try:
            return self.parameters[name]
        except KeyError:
            raise RecommendationError(
                f"parameter {name} is not encoded in this columnar snapshot"
            ) from None

    def n_attributes(self) -> int:
        return self.codes.shape[1]

    def row_codes(self, name: str) -> np.ndarray:
        """The encoded sample-attribute matrix for one parameter.

        Singular parameters: one row per configured carrier.  Pair-wise:
        own attributes then neighbor attributes, matching the layout of
        ``AuricEngine.pair_row``.
        """
        columns = self.parameter(name)
        own = self.codes[columns.sources]
        if not columns.pairwise:
            return own
        return np.concatenate((own, self.codes[columns.neighbors]), axis=1)

    def column_vocab(self, name: str, column: int) -> List[AttributeValue]:
        """The vocab of one row column (own/neighbor halves share)."""
        return self.vocabs[column % self.n_attributes()]

    def column_sizes(self, name: str) -> List[int]:
        """Per-row-column vocab sizes, aligned with :meth:`row_codes`."""
        sizes = [len(vocab) for vocab in self.vocabs]
        if self.parameter(name).pairwise:
            return sizes + sizes
        return sizes

    # -- pool transport ---------------------------------------------------

    def _arrays(self) -> List[Tuple[str, Optional[str], np.ndarray]]:
        """Every numpy buffer with its (attribute, parameter) address."""
        arrays: List[Tuple[str, Optional[str], np.ndarray]] = [
            ("codes", None, self.codes)
        ]
        for name, columns in self.parameters.items():
            arrays.append(("sources", name, columns.sources))
            if columns.neighbors is not None:
                arrays.append(("neighbors", name, columns.neighbors))
            arrays.append(("label_codes", name, columns.label_codes))
        return arrays

    def __getstate__(self) -> Dict:
        state = {
            "carrier_ids": self.carrier_ids,
            "vocabs": self.vocabs,
            "parameters": {
                name: {
                    "parameter": columns.parameter,
                    "pairwise": columns.pairwise,
                    "label_vocab": columns.label_vocab,
                }
                for name, columns in self.parameters.items()
            },
        }
        arrays = self._arrays()
        backing = self._backing
        if backing is not None and all(
            backing.arrays.get((field, name)) is array
            for field, name, array in arrays
        ):
            # Every buffer is still the store file's mapped view: ship a
            # (path, layouts) reference and let the consumer re-map the
            # file — no copy on either side, pages shared host-wide.
            state["mmap_path"] = backing.path
            state["mmap_layouts"] = [
                (field, name, backing.layouts[(field, name)])
                for field, name, _ in arrays
            ]
        else:
            state["arrays"] = arrays
        return state

    def __setstate__(self, state: Dict) -> None:
        self.carrier_ids = state["carrier_ids"]
        self.vocabs = state["vocabs"]
        self._carrier_slots = None
        self._backing = None
        meta = state["parameters"]
        buffers: Dict[Tuple[str, Optional[str]], np.ndarray] = {}
        if "mmap_path" in state:
            from repro.store.mmapfile import FileBacking, map_file

            mapped = map_file(state["mmap_path"])
            layouts = {}
            for field, name, layout in state["mmap_layouts"]:
                layouts[(field, name)] = layout
                buffers[(field, name)] = mapped.read(layout)
            # Re-attach the backing so onward pickles (nested pools)
            # stay (path, layouts) references too.
            self._backing = FileBacking(
                path=state["mmap_path"],
                mapped=mapped,
                layouts=layouts,
                arrays=dict(buffers),
            )
        else:
            for field, name, array in state["arrays"]:
                buffers[(field, name)] = array
        self.codes = buffers[("codes", None)]
        self.parameters = {}
        for name, columns_meta in meta.items():
            self.parameters[name] = ParameterColumns(
                parameter=columns_meta["parameter"],
                pairwise=columns_meta["pairwise"],
                sources=buffers[("sources", name)],
                neighbors=buffers.get(("neighbors", name)),
                label_codes=buffers[("label_codes", name)],
                label_vocab=columns_meta["label_vocab"],
            )
