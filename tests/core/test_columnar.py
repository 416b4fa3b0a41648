"""Unit and property tests for the columnar kernels.

The vote kernels (:mod:`repro.learners.collaborative_filtering`) and
the engine's encoded votes (:mod:`repro.core.columnar`) promise
*byte-identity* with ``Counter`` arithmetic: every property test here
pits a kernel against a small hand-rolled Counter model, including the
insertion-order and tie-break contracts that the engine's
reproducibility rests on.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import (
    ColumnarSnapshot,
    EncodedVotes,
    LocalVoteIndex,
    ParameterColumns,
    tally,
)
from repro.learners.collaborative_filtering import (
    NO_EXCLUDE,
    CellVoteTable,
    ColumnarCapacityError,
    decode_prefixes,
    grouped_votes,
    pack_capacity,
    pack_columns,
    plurality,
)
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile


# -- pack / unpack ----------------------------------------------------------

pack_cases = st.integers(min_value=1, max_value=6).flatmap(
    lambda n_cols: st.tuples(
        st.lists(
            st.integers(min_value=1, max_value=9),
            min_size=n_cols,
            max_size=n_cols,
        ),
        st.integers(min_value=1, max_value=n_cols),
        st.integers(min_value=1, max_value=40),
    )
)


class TestPacking:
    @given(pack_cases, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_pack_unpack_round_trip(self, case, rng):
        sizes, n_packed, n_rows = case
        columns = list(range(len(sizes)))
        rng.shuffle(columns)
        columns = columns[:n_packed]
        matrix = np.array(
            [
                [rng.randrange(sizes[c]) for c in range(len(sizes))]
                for _ in range(n_rows)
            ],
            dtype=np.int32,
        )
        packed = pack_columns(matrix, columns, sizes)
        decoded = decode_prefixes(
            packed,
            [range(sizes[c]) for c in columns],
            [sizes[c] for c in columns],
            len(columns),
        )
        assert decoded == [tuple(int(row[c]) for c in columns) for row in matrix]

    def test_equal_keys_iff_equal_cells(self):
        sizes = [3, 4, 5]
        matrix = np.array(
            [[0, 1, 2], [0, 1, 2], [1, 1, 2], [0, 2, 2]], dtype=np.int32
        )
        packed = pack_columns(matrix, [0, 1, 2], sizes)
        assert packed[0] == packed[1]
        assert len({packed[0], packed[2], packed[3]}) == 3

    def test_capacity_guard_raises(self):
        sizes = [2**21, 2**21, 2**21, 2**21]
        with pytest.raises(ColumnarCapacityError):
            pack_capacity(sizes, [0, 1, 2, 3])
        with pytest.raises(ColumnarCapacityError):
            pack_columns(
                np.zeros((1, 4), dtype=np.int32), [0, 1, 2, 3], sizes
            )

    def test_capacity_within_limit(self):
        assert pack_capacity([10, 20, 30], [0, 2]) == 300


# -- grouped_votes ----------------------------------------------------------

vote_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # cell code
        st.integers(min_value=0, max_value=3),  # label code
    ),
    min_size=1,
    max_size=60,
)


class TestGroupedVotes:
    @given(vote_streams)
    @settings(max_examples=100)
    def test_matches_counter_reference_in_insertion_order(self, stream):
        cells = np.array([c for c, _ in stream], dtype=np.int64)
        labels = np.array([l for _, l in stream], dtype=np.int64)
        got_cells, got_labels, got_totals = grouped_votes(cells, labels, 4)

        reference: dict = {}
        for cell, label in stream:
            reference.setdefault(cell, Counter())[label] += 1.0
        expected = [
            (cell, label, total)
            for cell, counter in reference.items()
            for label, total in counter.items()
        ]
        # The kernel emits (cell, label) pairs in first-appearance order
        # over the sample stream — NOT sorted — so replaying them
        # rebuilds the legacy dict/Counter insertion order exactly.
        expected_pairs_in_order = []
        seen = set()
        for cell, label in stream:
            if (cell, label) not in seen:
                seen.add((cell, label))
                expected_pairs_in_order.append((cell, label))
        got = list(zip(got_cells.tolist(), got_labels.tolist()))
        assert got == expected_pairs_in_order
        totals = {
            (cell, label): total
            for cell, label, total in expected
        }
        for cell, label, total in zip(
            got_cells.tolist(), got_labels.tolist(), got_totals.tolist()
        ):
            assert total == totals[(cell, label)]

    @given(vote_streams)
    @settings(max_examples=50)
    def test_weighted_totals_sum_in_array_order(self, stream):
        cells = np.array([c for c, _ in stream], dtype=np.int64)
        labels = np.array([l for _, l in stream], dtype=np.int64)
        weights = np.array(
            [0.25 + (i % 7) * 0.5 for i in range(len(stream))],
            dtype=np.float64,
        )
        _, _, got_totals = grouped_votes(cells, labels, 4, weights)
        reference: dict = {}
        order: list = []
        for (cell, label), weight in zip(stream, weights.tolist()):
            if (cell, label) not in reference:
                reference[(cell, label)] = 0.0
                order.append((cell, label))
            reference[(cell, label)] += weight
        assert got_totals.tolist() == [reference[pair] for pair in order]


# -- CellVoteTable ----------------------------------------------------------

def _table(cell_index) -> CellVoteTable:
    """A vote table over ``{cell: Counter}``, built the one way tables
    are built: from (cell, label, total) groups in insertion order."""
    cells = list(cell_index)
    vocab: list = []
    group_cells, group_labels, totals = [], [], []
    for code, counter in enumerate(cell_index.values()):
        for label, count in counter.items():
            if label not in vocab:
                vocab.append(label)
            group_cells.append(code)
            group_labels.append(vocab.index(label))
            totals.append(float(count))
    return CellVoteTable(
        np.array(group_cells, dtype=np.int64),
        np.array(group_labels, dtype=np.int64),
        np.array(totals, dtype=np.float64),
        lambda keys: [cells[key] for key in keys.tolist()],
        vocab,
    )


def _reference_vote(counter: Counter, exclude_label):
    """The legacy Counter answer (None = table must also decline)."""
    if exclude_label is not NO_EXCLUDE:
        counter = Counter(counter)
        counter[exclude_label] -= 1.0
        if counter[exclude_label] <= 1e-12:
            del counter[exclude_label]
    if not counter:
        return None
    total = sum(counter.values())
    value, top = counter.most_common(1)[0]
    return value, top, total


#: (label, weight) streams with the weights vote weighting uses,
#: zero included.
weighted_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 0.1, 0.25, 1.7, 1.0]),
    ),
    min_size=1,
    max_size=12,
)


def _reference_weighted(counter: Counter, label, weight, drop_zero):
    """Counter arithmetic for a weighted exclusion (None = emptied)."""
    counter = Counter(counter)
    if counter.get(label, 0) > 0 or drop_zero:
        counter[label] -= weight
        if counter[label] <= 1e-12:
            del counter[label]
    if not counter:
        return None
    return counter


class TestCellVoteTable:
    @given(weighted_stream, st.booleans())
    @settings(max_examples=100)
    def test_weighted_exclusion_is_counter_arithmetic(self, stream, drop_zero):
        counter = Counter()
        for label, weight in stream:
            counter[label] += weight
        table = _table({("c",): counter})
        assert table.vote(("c",)) == (
            counter.most_common(1)[0] + (sum(counter.values()),)
        )
        assert table.distribution(("c",)) == counter.most_common()
        for label, weight in stream:
            expected = _reference_weighted(counter, label, weight, drop_zero)
            got = table.vote(("c",), label, weight, drop_zero)
            votes = table.distribution(("c",), label, weight, drop_zero)
            if expected is None:
                assert got is None and votes is None
            else:
                value, top = expected.most_common(1)[0]
                assert got == (value, top, sum(expected.values()))
                assert votes == expected.most_common()

    def test_zero_count_label_survives_its_own_exclusion(self):
        # The only voter weighs 0: Counter keeps the 0.0 entry unless
        # drop_zero asks for it to go.
        table = _table({("c",): Counter({"x": 0.0})})
        assert table.vote(("c",), "x", 0.0) == ("x", 0.0, 0.0)
        assert table.vote(("c",), "x", 0.0, drop_zero=True) is None

    @given(vote_streams)
    @settings(max_examples=100)
    def test_vote_matches_counter_including_tie_breaks(self, stream):
        cell_index: dict = {}
        for cell, label in stream:
            cell_index.setdefault((cell,), Counter())[label] += 1.0
        table = _table(cell_index)
        for cell, counter in cell_index.items():
            assert table.vote(cell) == _reference_vote(counter, NO_EXCLUDE)
            for label in counter:
                got = table.vote(cell, label)
                expected = _reference_vote(counter, label)
                if expected is None:
                    assert got is None
                else:
                    assert got == expected

    def test_unknown_cell_is_none(self):
        table = _table({("a",): Counter({1: 2.0})})
        assert table.vote(("b",)) is None

    def test_exclusion_emptying_cell_is_none(self):
        table = _table({("a",): Counter({1: 1.0})})
        assert table.vote(("a",), 1) is None

    def test_tie_after_exclusion_keeps_first_inserted(self):
        # x: 2 votes (inserted first), y: 1 vote.  Excluding one x vote
        # ties 1-1; Counter.most_common keeps x (first-inserted).
        counter = Counter()
        counter["x"] += 1.0
        counter["y"] += 1.0
        counter["x"] += 1.0
        table = _table({("c",): counter})
        value, top, total = table.vote(("c",), "x")
        assert (value, top, total) == ("x", 1.0, 2.0)


class TestPlurality:
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1))
    @settings(max_examples=50)
    def test_matches_counter_most_common(self, codes):
        assert plurality(tally(codes)) == Counter(codes).most_common(1)[0]

    @given(weighted_stream)
    @settings(max_examples=50)
    def test_weighted_tally_is_counter_arithmetic(self, stream):
        reference = Counter()
        for label, weight in stream:
            reference[label] += weight
        votes = tally([l for l, _ in stream], [w for _, w in stream])
        assert list(votes.items()) == list(reference.items())
        assert plurality(votes) == reference.most_common(1)[0]


# -- LocalVoteIndex ---------------------------------------------------------

def _encoded(rows, n_slots) -> EncodedVotes:
    """Encoded votes over ``rows`` of ``(source slot, cell, label)``,
    packed the way a fit packs them, for a snapshot of ``n_slots``
    carriers named ``c0``, ``c1``, ..."""
    n_columns = len(rows[0][1])
    vocabs: list = [[] for _ in range(n_columns)]
    codes = np.zeros((len(rows), n_columns), dtype=np.int64)
    label_vocab: list = []
    label_codes = []
    for i, (_, cell, label) in enumerate(rows):
        for j, value in enumerate(cell):
            if value not in vocabs[j]:
                vocabs[j].append(value)
            codes[i, j] = vocabs[j].index(value)
        if label not in label_vocab:
            label_vocab.append(label)
        label_codes.append(label_vocab.index(label))
    sizes = [len(vocab) for vocab in vocabs]
    carrier_ids = [f"c{i}" for i in range(n_slots)]
    columns = ParameterColumns(
        parameter="p",
        pairwise=False,
        sources=np.array([row[0] for row in rows], dtype=np.int32),
        neighbors=None,
        label_codes=np.array(label_codes, dtype=np.int32),
        label_vocab=label_vocab,
    )
    return EncodedVotes(
        columns=columns,
        cell_codes=pack_columns(codes, list(range(n_columns)), sizes),
        prefix_sizes=sizes,
        dep_vocabs=vocabs,
        carrier_ids=carrier_ids,
        carrier_slots={c: i for i, c in enumerate(carrier_ids)},
    )


class TestLocalVoteIndex:
    def test_electorate_order_and_exclusion(self):
        # Samples k1..k4 sourced at slots 0, 1, 0, 2.
        rows = [(0, ("a",), 1), (1, ("a",), 2), (0, ("b",), 1), (2, ("b",), 2)]
        index = LocalVoteIndex(_encoded(rows, 4))
        # Slot-sequence order x per-carrier insertion order.
        assert index.electorate([1, 0], None).tolist() == [1, 0, 2]
        # The excluded sample leaves the electorate.
        assert index.electorate([1, 0], 0).tolist() == [1, 2]
        # No voters at all -> None.
        assert index.electorate([3], None) is None
        assert index.electorate([1], 1) is None
        assert index.electorate([], None) is None

    def test_carrier_outside_the_slots_never_votes(self):
        # The second sample's source lies past the snapshot's one slot.
        index = LocalVoteIndex(_encoded([(0, ("a",), 1), (1, ("a",), 2)], 1))
        assert index.electorate([0], None).tolist() == [0]

    def test_codes_decode_back_to_cells_and_labels(self):
        rows = [(0, ("a", 1), "x"), (1, ("b", 2), "y"), (2, ("a", 1), "x")]
        encoded = _encoded(rows, 3)
        index = LocalVoteIndex(encoded)
        for i, (_, cell, label) in enumerate(rows):
            assert index.cells[index.cell_codes[i]] == cell
            assert index.labels[index.label_codes[i]] == label
            assert encoded.position(f"c{i}") == i
            assert encoded.sample(f"c{i}") == (i, cell, label, 1.0)
        assert index.cell_codes[0] == index.cell_codes[2]
        assert encoded.position("c9") is None
        assert encoded.sample("c9") is None


# -- ColumnarSnapshot encode/decode round trip ------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    base = four_market_profile()
    return generate_dataset(
        GenerationProfile(markets=base.markets[:1], seed=base.seed)
    )


def _fitted_specs(dataset, count=4):
    specs = []
    for name in sorted(dataset.store.catalog.names):
        spec = dataset.store.catalog.spec(name)
        values = (
            dataset.store.pairwise_values(name)
            if spec.is_pairwise
            else dataset.store.singular_values(name)
        )
        if values:
            specs.append(spec)
        if len(specs) >= count:
            break
    return specs


class TestColumnarSnapshot:
    def test_encode_decode_round_trip(self, small_dataset):
        """Decoding every code column reproduces the raw attribute rows
        and configured values exactly."""
        dataset = small_dataset
        specs = _fitted_specs(dataset)
        snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)

        # Attribute matrix: vocab[code] == the carrier's raw attribute.
        for i, carrier_id in enumerate(snapshot.carrier_ids):
            raw = dataset.network.carrier(carrier_id).attributes.as_tuple()
            decoded = tuple(
                snapshot.vocabs[j][snapshot.codes[i, j]]
                for j in range(snapshot.codes.shape[1])
            )
            assert decoded == raw

        for spec in specs:
            columns = snapshot.parameter(spec.name)
            values = (
                dataset.store.pairwise_values(spec.name)
                if spec.is_pairwise
                else dataset.store.singular_values(spec.name)
            )
            keys = columns.keys(snapshot.carrier_ids)
            assert keys == sorted(values)
            assert columns.labels() == [values[k] for k in keys]

    def test_pickle_round_trip_preserves_arrays(self, small_dataset):
        import pickle

        dataset = small_dataset
        specs = _fitted_specs(dataset, count=2)
        snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)
        rebuilt = pickle.loads(pickle.dumps(snapshot))
        assert rebuilt.carrier_ids == snapshot.carrier_ids
        assert np.array_equal(rebuilt.codes, snapshot.codes)
        for name, columns in snapshot.parameters.items():
            assert np.array_equal(
                rebuilt.parameters[name].label_codes, columns.label_codes
            )
