import pytest

from repro.ops.monitoring import KPIMonitor, KPIReport
from repro.ops.prechecks import run_prechecks


class TestPrechecks:
    def test_locked_carrier_passes(self, network, some_carrier):
        some_carrier.lock()
        result = run_prechecks(network, some_carrier.carrier_id)
        some_carrier.unlock()
        assert result.passed
        assert "passed" in str(result)

    def test_unlocked_carrier_fails(self, network, some_carrier):
        some_carrier.unlock()
        result = run_prechecks(network, some_carrier.carrier_id)
        assert not result.passed
        assert any("unlock" in f for f in result.failures)
        assert "FAILED" in str(result)


class TestKPIReport:
    def test_healthy_thresholds(self):
        good = KPIReport(None, throughput_mbps=50.0, drop_rate=0.005,
                         admission_rate=0.99)
        assert good.healthy
        bad_throughput = KPIReport(None, 5.0, 0.005, 0.99)
        assert not bad_throughput.healthy
        bad_drops = KPIReport(None, 50.0, 0.05, 0.99)
        assert not bad_drops.healthy
        bad_admission = KPIReport(None, 50.0, 0.005, 0.9)
        assert not bad_admission.healthy


class TestKPIMonitor:
    def test_unchanged_carrier_always_healthy(self, dataset, some_carrier_id):
        monitor = KPIMonitor(dataset.store, degradation_rate=1.0)
        report = monitor.observe(some_carrier_id, changed=False)
        assert report.healthy

    def test_changed_carrier_degrades_at_rate_one(self, dataset, some_carrier_id):
        monitor = KPIMonitor(dataset.store, degradation_rate=1.0)
        report = monitor.observe(some_carrier_id, changed=True)
        assert not report.healthy

    def test_zero_rate_never_degrades(self, dataset, some_carrier_id):
        monitor = KPIMonitor(dataset.store, degradation_rate=0.0)
        for _ in range(20):
            assert monitor.observe(some_carrier_id, changed=True).healthy

    def test_rollback_restores_snapshot(self, dataset):
        carrier_id = sorted(dataset.store.singular_values("pMax"))[2]
        monitor = KPIMonitor(dataset.store)
        original = dataset.store.get_singular(carrier_id, "pMax")
        monitor.snapshot(carrier_id)
        dataset.store.set_singular(carrier_id, "pMax", 0)
        restored = monitor.rollback(carrier_id)
        assert restored == 1
        assert dataset.store.get_singular(carrier_id, "pMax") == original
        assert carrier_id in monitor.rollbacks

    def test_rollback_without_snapshot_is_noop(self, dataset, some_carrier_id):
        monitor = KPIMonitor(dataset.store)
        assert monitor.rollback(some_carrier_id) == 0

    def test_invalid_rate(self, dataset):
        with pytest.raises(ValueError):
            KPIMonitor(dataset.store, degradation_rate=1.5)
