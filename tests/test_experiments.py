"""Smoke and shape tests for every experiment on the tiny workload."""

import pytest

from repro.eval.engineers import MismatchLabel
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.parameter_selection import evaluation_parameters

FAST_PARAMS = ["pMax", "qHyst", "hysA3Offset"]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        paper_artifacts = {
            "fig2",
            "fig3",
            "fig4",
            "fig10",
            "fig11",
            "fig12",
            "local-vs-global",
            "table3",
            "table4",
            "table5",
        }
        extensions = {
            "ablation-support-threshold",
            "ablation-p-value",
            "ablation-effect-size",
            "ablation-proximity",
            "ablation-selection",
            "performance-feedback",
            "lasso-baseline",
            "motivation-growth",
        }
        assert set(EXPERIMENTS) == paper_artifacts | extensions

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestAnalysisExperiments:
    def test_fig2(self, dataset):
        result = run_experiment("fig2", dataset=dataset)
        assert len(result.counts) == 65
        assert result.max_distinct == max(result.counts.values())
        assert "Fig 2" in result.render()

    def test_fig2_sorted_descending(self, dataset):
        result = run_experiment("fig2", dataset=dataset)
        counts = [c for _, c in result.sorted_counts]
        assert counts == sorted(counts, reverse=True)

    def test_fig3(self, dataset):
        result = run_experiment("fig3", dataset=dataset)
        assert set(result.by_market) == {m.name for m in dataset.network.markets}
        totals = result.market_totals()
        assert all(t > 0 for t in totals.values())
        assert "Fig 3" in result.render()

    def test_fig4(self, dataset):
        result = run_experiment("fig4", dataset=dataset)
        counts = result.counts()
        assert sum(counts.values()) == len(result.skews)
        # Paper shape: skewed parameters dominate.
        assert counts["high"] + counts["moderate"] > counts["symmetric"]
        assert "Fig 4" in result.render()

    def test_table3(self, dataset):
        result = run_experiment("table3", dataset=dataset)
        carriers, enodebs, values = result.totals
        assert carriers == dataset.network.carrier_count()
        assert enodebs == dataset.network.enodeb_count()
        singular_total = dataset.store.value_counts()[0]
        assert values == singular_total
        assert "Table 3" in result.render()


class TestLearnerExperiments:
    def test_table4_small(self, dataset):
        result = run_experiment(
            "table4",
            dataset=dataset,
            parameters=["pMax", "qHyst"],
            fast=True,
            folds=2,
            max_samples_per_parameter=150,
        )
        overall = result.overall()
        assert set(overall) == {
            "random-forest",
            "k-nearest-neighbors",
            "decision-tree",
            "deep-neural-network",
            "collaborative-filtering",
        }
        assert all(0.0 <= v <= 1.0 for v in overall.values())
        assert "Table 4" in result.render()

    def test_fig10_series_sorted_by_variability(self, dataset):
        result = run_experiment(
            "fig10", dataset=dataset, parameters=["pMax", "inactivityTimer"]
        )
        market = result.markets[0]
        order, series = result.market_series(market)
        distinct = series["distinct"]
        assert distinct == sorted(distinct, reverse=True)
        assert "Fig 10" in result.render()

    def test_local_vs_global(self, dataset):
        result = run_experiment(
            "local-vs-global",
            dataset=dataset,
            parameters=FAST_PARAMS,
            max_targets_per_parameter=150,
        )
        assert 0.0 <= result.result.mean_local() <= 1.0
        assert "local" in result.render()

    def test_fig11(self, dataset):
        result = run_experiment(
            "fig11", dataset=dataset, top_parameters=2, max_targets_per_market=60
        )
        assert len(result.parameters) == 2
        for accuracy in result.accuracy.values():
            assert all(0.0 <= v <= 1.0 for v in accuracy.values())
        assert "Fig 11" in result.render()

    def test_fig12(self, dataset):
        result = run_experiment(
            "fig12",
            dataset=dataset,
            parameters=FAST_PARAMS,
            max_targets_per_parameter=200,
        )
        assert result.total_mismatches == len(result.labeled)
        shares = result.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert MismatchLabel.INCONCLUSIVE in result.counts
        assert "Fig 12" in result.render()

    def test_lasso_baseline(self, dataset):
        result = run_experiment(
            "lasso-baseline",
            dataset=dataset,
            parameters=("pMax", "qrxlevmin"),
            folds=2,
            max_samples_per_parameter=150,
        )
        assert set(result.lasso_accuracy) == {"pMax", "qrxlevmin"}
        assert "lasso" in result.render()

    def test_ablation_smoke(self, dataset):
        result = run_experiment(
            "ablation-proximity",
            dataset=dataset,
            parameters=("pMax", "qHyst"),
            max_targets=100,
        )
        assert len(result.points) == 3
        assert "Ablation" in result.render()

    def test_motivation_growth(self, dataset):
        result = run_experiment("motivation-growth", dataset=dataset)
        timeline = result.timeline
        assert timeline.carriers_per_quarter[-1] == dataset.network.carrier_count()
        assert "Motivation" in result.render()

    def test_table5(self, dataset):
        result = run_experiment("table5", dataset=dataset, launches=80)
        stats = result.stats
        assert stats.launched == 80
        assert stats.changes_implemented <= stats.changes_recommended
        assert "Table 5" in result.render()

    def test_table5_leaves_the_callers_store_unchanged(self, dataset):
        def values():
            return {
                spec.name: dict(dataset.store.singular_values(spec.name))
                for spec in dataset.catalog.singular_parameters()
            }

        before = values()
        run_experiment("table5", dataset=dataset, launches=80)
        assert values() == before


class TestParameterSelection:
    def test_default_count(self, dataset, monkeypatch):
        monkeypatch.delenv("REPRO_TABLE4_PARAMS", raising=False)
        picked = evaluation_parameters(dataset)
        assert len(picked) == 20
        assert len(set(picked)) == 20

    def test_all_keyword(self, dataset):
        picked = evaluation_parameters(dataset, requested="all")
        assert len(picked) == 65

    def test_explicit_count(self, dataset):
        picked = evaluation_parameters(dataset, requested="8")
        assert len(picked) == 8

    def test_env_variable_respected(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE4_PARAMS", "6")
        assert len(evaluation_parameters(dataset)) == 6

    def test_mix_of_kinds(self, dataset):
        picked = evaluation_parameters(dataset, requested="20")
        kinds = {dataset.catalog.spec(p).is_pairwise for p in picked}
        assert kinds == {True, False}
