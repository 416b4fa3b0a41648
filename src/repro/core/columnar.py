"""Columnar snapshot store and the engine's encoded votes.

The engine's fitting and evaluation workload is dominated by bulk
passes over the carrier population: all ~65 range parameters fit over
the same attribute matrix, and the LOO sweep revisits every sample.

This module encodes the snapshot **once** into integer code columns:

* one ``int32`` matrix of carrier attribute codes (rows follow the
  sorted carrier-id order; one vocab table per attribute column, codes
  assigned in first-appearance order over that same sorted order), and
* per parameter, the sample topology (``sources``/``neighbors`` carrier
  row indices, in sorted-key order) plus a label code column with its
  own vocab.

The collaborative-filtering kernels that select and vote over these
codes — attribute selection, mixed-radix packing and the per-cell
plurality tables — live in :mod:`repro.learners.collaborative_filtering`,
shared with Table 4's learner.  This module holds the engine's side of
the votes: :class:`EncodedVotes`, a model's only representation, and
:class:`LocalVoteIndex` with :func:`tally` for neighborhood votes.
Every model — a fit's, a pool fit's, a changelog refit's or an
artifact load's — keeps its packed cell codes over the snapshot's
columns and nothing else, builds its plurality tables from them and
derives keys, cells and labels when asked.

``--jobs N`` pool workers inherit the snapshot through fork, or under
the *spawn* start method unpickle it once from the pool payload, arrays
inline (a snapshot opened from the mmap store ships its arrays too).
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.parameters import ParameterSpec
from repro.config.store import ConfigurationStore, PairKey
from repro.exceptions import RecommendationError
from repro.learners.collaborative_filtering import (
    CellVoteTable,
    decode_prefixes,
    prefix_table,
)
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId
from repro.netmodel.network import Network
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.types import AttributeValue, ParameterValue


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


def _hash_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed one array to ``digest``: dtype and shape, then its bytes."""
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())


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
    dependent-attribute cell code
    (:func:`~repro.learners.collaborative_filtering.pack_columns`) and,
    through ``columns``, the label code and the source (and pair-wise
    neighbor) carrier slot; ``weights`` is the per-sample vote weight (``None``:
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
        attributes (:func:`~repro.learners.collaborative_filtering.prefix_table`):
        every attribute gives the exact-cell table, none the global
        value distribution."""
        return prefix_table(
            self.cell_codes,
            self.prefix_sizes,
            self.dep_vocabs,
            level,
            self.columns.label_codes,
            self.columns.label_vocab,
            self.weights,
        )

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
                decode_prefixes(
                    uniq[order],
                    self.dep_vocabs,
                    self.prefix_sizes,
                    len(self.prefix_sizes),
                ),
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
        return copy

    def carrier_rows(self) -> np.ndarray:
        """The carrier ids as an ``int32`` ``(n, 4)`` array of market,
        eNodeB, face and slot indexes in slot order (store format 2)."""
        return np.array(
            [
                (c.enodeb.market.index, c.enodeb.index, c.face, c.slot)
                for c in self.carrier_ids
            ],
            dtype=np.int32,
        ).reshape(-1, 4)

    def fingerprint(self, network: Network, parameters: Iterable[str]) -> str:
        """The snapshot identity: the sha256 hex digest of what models
        fitted on ``parameters`` read — the carrier rows, the attribute
        codes and vocabularies, each named parameter's columns in name
        order, and ``network``'s X2 carrier relations as sorted slot
        pairs (what the local vote walks)."""
        digest = hashlib.sha256()
        _hash_array(digest, self.carrier_rows())
        _hash_array(digest, self.codes)
        digest.update(json.dumps(self.vocabs).encode())
        for name in sorted(parameters):
            columns = self.parameter(name)
            digest.update(name.encode())
            _hash_array(digest, columns.sources)
            if columns.neighbors is not None:
                _hash_array(digest, columns.neighbors)
            _hash_array(digest, columns.label_codes)
            digest.update(json.dumps(columns.label_vocab).encode())
        slots = self.carrier_slots()
        pairs = np.array(
            [(slots[a], slots[b]) for a, b in network.x2.carrier_pairs()],
            dtype=np.int32,
        ).reshape(-1, 2)
        pairs.sort(axis=1)
        _hash_array(digest, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])
        return digest.hexdigest()

    def take_carrier_ids(self, other: "ColumnarSnapshot") -> None:
        """Key this snapshot by ``other``'s carrier id objects, which
        must equal its own in slot order (equal fingerprints prove it):
        slot lookups by those objects then hit by identity."""
        self.carrier_ids = other.carrier_ids
        self._carrier_slots = other.carrier_slots()

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

    def __getstate__(self) -> Dict:
        # The slot map is a cache over ``carrier_ids``: rebuilt on first
        # use instead of pickled.
        state = dict(self.__dict__)
        state["_carrier_slots"] = None
        return state
