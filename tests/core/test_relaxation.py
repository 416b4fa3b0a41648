"""Relaxed-match fallbacks in the engine's global vote."""

import pytest

from repro.core import AuricEngine


@pytest.fixture(scope="module")
def pmax_engine(dataset):
    return AuricEngine(dataset.network, dataset.store).fit(["pMax"])


class TestGlobalRelaxation:
    def alien_row(self, pmax_engine, dataset, depth):
        """A row matching a real carrier except on the last `depth`
        dependent attributes, which get never-seen values."""
        model = pmax_engine._model("pMax")
        base_key = sorted(model.encoded.targets())[0]
        row = list(dataset.carrier_row(base_key))
        for column in model.dependent_columns[len(model.dependent_columns) - depth:]:
            row[column] = f"never-seen-{column}"
        return tuple(row)

    def test_full_match_preferred(self, pmax_engine, dataset):
        model = pmax_engine._model("pMax")
        base_key = sorted(model.encoded.targets())[0]
        rec = pmax_engine.recommend_global("pMax", dataset.carrier_row(base_key))
        assert rec.scope == "global"

    def test_partial_alien_row_relaxes(self, pmax_engine, dataset):
        model = pmax_engine._model("pMax")
        if len(model.dependent_columns) < 2:
            pytest.skip("needs at least two dependent attributes")
        row = self.alien_row(pmax_engine, dataset, depth=1)
        rec = pmax_engine.recommend_global("pMax", row)
        assert rec.scope == "global-relaxed"
        assert rec.matched >= 1

    def test_fully_alien_row_falls_to_global_mode(self, pmax_engine, dataset):
        model = pmax_engine._model("pMax")
        row = self.alien_row(
            pmax_engine, dataset, depth=len(model.dependent_columns)
        )
        rec = pmax_engine.recommend_global("pMax", row)
        assert rec.scope == "global-fallback"
        # The fallback recommends the network-wide plurality.
        from collections import Counter

        values = dataset.store.singular_values("pMax")
        mode = Counter(values.values()).most_common(1)[0][0]
        assert rec.value == mode

    def test_relaxed_indexes_cached(self, pmax_engine, dataset):
        model = pmax_engine._model("pMax")
        if len(model.dependent_columns) < 2:
            pytest.skip("needs at least two dependent attributes")
        row = self.alien_row(pmax_engine, dataset, depth=1)
        first = pmax_engine.recommend_global("pMax", row)
        # Lazily built on first use: the per-level plurality tables
        # are cached on the model.
        assert model._tables
        second = pmax_engine.recommend_global("pMax", row)
        assert first.value == second.value
        assert first.support == second.support

    def test_relaxation_deterministic_across_engines(self, dataset):
        row = None
        values = []
        for _ in range(2):
            engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
            model = engine._model("pMax")
            base_key = sorted(model.encoded.targets())[0]
            candidate = list(dataset.carrier_row(base_key))
            if model.dependent_columns:
                candidate[model.dependent_columns[-1]] = "never-seen"
            row = tuple(candidate)
            values.append(engine.recommend_global("pMax", row).value)
        assert values[0] == values[1]
