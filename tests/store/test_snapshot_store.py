"""SnapshotStore backends: round-trips, determinism, zero-copy mmap
semantics and the pool reference transport."""

import json
import pickle
import struct

import numpy as np
import pytest

from repro.core.columnar import ColumnarSnapshot
from repro.store import (
    STORE_KINDS,
    MemorySnapshotStore,
    MmapSnapshotStore,
    SnapshotStoreError,
    open_store,
)

PARAMETERS = ("pMax", "hysA3Offset")


@pytest.fixture(scope="module")
def dataset():
    from repro.datagen import tiny_workload

    return tiny_workload()


@pytest.fixture(scope="module")
def snapshot(dataset):
    specs = [dataset.catalog.spec(name) for name in PARAMETERS]
    return ColumnarSnapshot.encode(dataset.network, dataset.store, specs)


def make_store(kind, tmp_path):
    if kind == "memory":
        return MemorySnapshotStore()
    return MmapSnapshotStore(str(tmp_path / "snap.columnar"))


def assert_snapshots_equal(a, b):
    assert [str(c) for c in a.carrier_ids] == [str(c) for c in b.carrier_ids]
    np.testing.assert_array_equal(a.codes, b.codes)
    assert [list(v) for v in a.vocabs] == [list(v) for v in b.vocabs]
    assert sorted(a.parameters) == sorted(b.parameters)
    for name in a.parameters:
        ca, cb = a.parameters[name], b.parameters[name]
        assert ca.pairwise == cb.pairwise
        np.testing.assert_array_equal(ca.sources, cb.sources)
        if ca.neighbors is None:
            assert cb.neighbors is None
        else:
            np.testing.assert_array_equal(ca.neighbors, cb.neighbors)
        # Labels must decode identically (vocab order included — vote
        # tie-breaking depends on first-appearance code order).
        assert list(ca.label_vocab) == list(cb.label_vocab)
        np.testing.assert_array_equal(ca.label_codes, cb.label_codes)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["memory", "mmap"])
    def test_persist_load_round_trips(self, snapshot, tmp_path, kind):
        store = make_store(kind, tmp_path)
        info = store.persist(snapshot)
        assert info["kind"] == kind
        loaded = store.load()
        assert loaded is not None
        assert_snapshots_equal(snapshot, loaded)

    def test_mmap_repersist_is_byte_identical(self, snapshot, tmp_path):
        """persist(load(x)) reproduces the store file byte for byte —
        the determinism the artifact resave contract relies on."""
        first = MmapSnapshotStore(str(tmp_path / "a.columnar"))
        second = MmapSnapshotStore(str(tmp_path / "b.columnar"))
        first.persist(snapshot)
        second.persist(first.load())
        a = (tmp_path / "a.columnar").read_bytes()
        b = (tmp_path / "b.columnar").read_bytes()
        assert a == b

    def test_memory_load_shares_arrays(self, snapshot):
        store = MemorySnapshotStore()
        store.persist(snapshot)
        loaded = store.load()
        assert loaded.codes is snapshot.codes
        for name in PARAMETERS:
            assert (
                loaded.parameters[name].sources
                is snapshot.parameters[name].sources
            )

    def test_load_before_persist_returns_none(self, tmp_path):
        for kind in ("memory", "mmap"):
            assert make_store(kind, tmp_path).load() is None


class TestMmapSemantics:
    def test_loaded_arrays_are_read_only_views(self, snapshot, tmp_path):
        store = make_store("mmap", tmp_path)
        store.persist(snapshot)
        loaded = store.load()
        assert not loaded.codes.flags.writeable
        with pytest.raises(ValueError):
            loaded.codes[0, 0] = 99
        assert not loaded.parameters["pMax"].label_codes.flags.writeable

    def test_pickle_ships_a_reference_not_the_arrays(self, snapshot, tmp_path):
        """The pool transport: a mapped snapshot pickles to the store
        path + layouts, and the receiver re-maps the same file."""
        store = make_store("mmap", tmp_path)
        store.persist(snapshot)
        loaded = store.load()
        blob = pickle.dumps(loaded)
        inline = pickle.dumps(snapshot)
        assert len(blob) < len(inline) / 2
        revived = pickle.loads(blob)
        assert_snapshots_equal(snapshot, revived)
        assert not revived.codes.flags.writeable

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "snap.columnar"
        path.write_bytes(b"NOTASTORE-------" * 4)
        with pytest.raises(SnapshotStoreError, match="bad magic"):
            MmapSnapshotStore(str(path)).load()


def _write_format_1(snapshot, path):
    """``snapshot`` in store format 1: carrier ids as header strings."""
    from repro.dataio.keys import carrier_key_to_str
    from repro.store.mmapfile import MAGIC, _PREFIX, _snapshot_arrays, aligned

    arrays = [a for a in _snapshot_arrays(snapshot) if a[0] != "carrier_ids"]
    layouts, offset = [], 0
    for field, name, array in arrays:
        offset = aligned(offset)
        layouts.append([field, name, array.dtype.str, list(array.shape), offset])
        offset += array.nbytes
    header = json.dumps({
        "kind": "auric-columnar-store",
        "format": 1,
        "carrier_ids": [carrier_key_to_str(c) for c in snapshot.carrier_ids],
        "vocabs": [list(vocab) for vocab in snapshot.vocabs],
        "parameters": [
            {
                "parameter": name,
                "pairwise": snapshot.parameters[name].pairwise,
                "label_vocab": list(snapshot.parameters[name].label_vocab),
            }
            for name in sorted(snapshot.parameters)
        ],
        "layouts": layouts,
    }).encode("utf-8")
    data_start = aligned(_PREFIX + len(header))
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        for (_, _, array), layout in zip(arrays, layouts):
            fh.write(b"\x00" * (data_start + layout[4] - fh.tell()))
            fh.write(np.ascontiguousarray(array).tobytes())


class TestCarrierIds:
    def test_format_2_stores_ids_as_integers(self, snapshot, tmp_path):
        """Format 2 keeps no id strings in the header, and the ids it
        builds back share one market and one eNodeB object per value."""
        store = make_store("mmap", tmp_path)
        store.persist(snapshot)
        header, _ = store._read_header()
        assert header["format"] == 2
        assert "carrier_ids" not in header
        loaded = store.load()
        assert loaded.carrier_ids == snapshot.carrier_ids
        enodebs = {}
        for carrier in loaded.carrier_ids:
            site = enodebs.setdefault(carrier.enodeb, carrier.enodeb)
            assert carrier.enodeb is site
        markets = {}
        for site in enodebs.values():
            owner = markets.setdefault(site.market, site.market)
            assert site.market is owner

    def test_format_1_file_still_opens(self, snapshot, tmp_path):
        path = tmp_path / "old.columnar"
        _write_format_1(snapshot, str(path))
        loaded = MmapSnapshotStore(str(path)).load()
        assert loaded.carrier_ids == snapshot.carrier_ids
        assert_snapshots_equal(snapshot, loaded)


class TestFactory:
    def test_memory_needs_no_path(self):
        assert open_store("memory").kind == "memory"

    @pytest.mark.parametrize("kind", ["mmap"])
    def test_file_kinds_require_a_path(self, kind, tmp_path):
        with pytest.raises(SnapshotStoreError, match="requires a path"):
            open_store(kind)
        store = open_store(kind, str(tmp_path / "s"))
        assert store.kind == kind

    def test_kinds_are_memory_and_mmap(self):
        assert STORE_KINDS == ("memory", "mmap")
        with pytest.raises(SnapshotStoreError, match="unknown"):
            open_store("file", "snap.columnar.json")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SnapshotStoreError, match="unknown"):
            open_store("carrier-pigeon", "somewhere")
