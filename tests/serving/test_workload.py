"""Zipfian workload generator and the overload soak gates."""

from collections import Counter

from repro.serving.tenants import BEST_EFFORT
from repro.serving.workload import (
    QUERY_TEMPLATES,
    TENANTS,
    Submission,
    ZipfianWorkload,
    run_soak,
)


class TestGenerator:
    def test_deterministic_for_a_seed(self):
        first = ZipfianWorkload(seed=7, queries=200).generate()
        second = ZipfianWorkload(seed=7, queries=200).generate()
        assert first == second
        assert len(first) == 200
        assert all(isinstance(item, Submission) for item in first)

    def test_different_seeds_differ(self):
        assert (
            ZipfianWorkload(seed=1, queries=200).generate()
            != ZipfianWorkload(seed=2, queries=200).generate()
        )

    def test_traffic_is_zipf_skewed_toward_the_head_tenant(self):
        submissions = ZipfianWorkload(seed=29, queries=2000).generate()
        counts = Counter(item.tenant for item in submissions)
        head = TENANTS[0][0]
        tail = TENANTS[-1][0]
        # Rank-1 tenant dominates rank-5 by a wide margin.
        assert counts[head] > 2 * counts[tail]
        # ... but every tenant still shows up.
        assert set(counts) == {name for name, _ in TENANTS}

    def test_only_best_effort_submissions_carry_deadlines(self):
        submissions = ZipfianWorkload(seed=29, queries=1000).generate()
        tiers = dict(TENANTS)
        for item in submissions:
            if tiers[item.tenant] == BEST_EFFORT:
                assert item.deadline_s is not None
            else:
                assert item.deadline_s is None
        deadlines = {
            item.deadline_s
            for item in submissions
            if item.deadline_s is not None
        }
        # Both the meetable and the tight deadline appear.
        assert len(deadlines) == 2

    def test_templates_come_from_the_shared_pool(self):
        submissions = ZipfianWorkload(seed=3, queries=500).generate()
        known = {name for name, _ in QUERY_TEMPLATES}
        assert {item.template for item in submissions} <= known


class TestSoak:
    def test_tiny_soak_passes_every_gate(self, tmp_path):
        log = tmp_path / "soak.jsonl"
        report = tmp_path / "report.txt"
        code = run_soak(
            queries=120,
            seed=29,
            fault_seed=None,
            event_log_out=str(log),
            report_out=str(report),
            verbose=False,
        )
        assert code == 0
        text = report.read_text()
        assert "per-tier latency" in text
        assert "interactive" in text

    def test_tiny_soak_under_chaos_is_reproducible(self, tmp_path):
        logs = []
        for run in range(2):
            log = tmp_path / f"soak{run}.jsonl"
            code = run_soak(
                queries=120,
                seed=29,
                fault_seed=13,
                event_log_out=str(log),
                verbose=False,
            )
            assert code == 0
            logs.append(log.read_bytes())
        # Chaos included, the two event logs are byte-identical.
        assert logs[0] == logs[1]
