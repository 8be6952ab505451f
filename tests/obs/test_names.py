"""S2: every emitted metric/instant name matches the canonical registry."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.obs import names

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_metric_names import (  # noqa: E402
    _EMISSION_PATTERNS,
    SRC,
    emitted_names,
    find_drift,
)


class TestRegistry:
    def test_is_declared(self):
        assert names.is_declared("tasks.launched", "counter")
        assert names.is_declared("task.seconds", "histogram")
        assert names.is_declared("eventlog.queries", "gauge")
        assert names.is_declared("flight.dump", "instant")
        assert not names.is_declared("tasks.launched", "instant")
        with pytest.raises(ValueError, match="unknown metric kind"):
            names.is_declared("tasks.launched", "meter")

    def test_kinds_are_disjoint(self):
        kinds = list(names.all_names().values())
        for index, left in enumerate(kinds):
            for right in kinds[index + 1 :]:
                assert not (left & right)


class TestNoDrift:
    def test_src_repro_matches_registry(self):
        assert find_drift() == []

    def test_scanner_sees_the_known_emitters(self):
        """Guard against the scanner regex silently matching nothing."""
        emitted = emitted_names()
        assert "tasks.launched" in emitted["counter"]
        assert "task.seconds" in emitted["histogram"]
        assert "eventlog.queries" in emitted["gauge"]
        assert "flight.dump" in emitted["instant"]

    def test_each_gauge_has_one_owner(self):
        """A gauge is registered in one place, by the object whose state
        it reads."""
        registrations = [
            name
            for path in SRC.rglob("*.py")
            for name in _EMISSION_PATTERNS["gauge"].findall(path.read_text())
        ]
        assert sorted(registrations) == sorted(names.GAUGES)

    def test_each_read_counter_has_one_owner(self):
        """A read counter is registered in one place, by the object that
        already counts its event, and nothing increments it."""
        registrations = [
            name
            for path in SRC.rglob("*.py")
            for name in _EMISSION_PATTERNS["read_counter"].findall(
                path.read_text()
            )
        ]
        assert registrations
        assert len(registrations) == len(set(registrations))
        assert not set(registrations) & set(emitted_names()["counter"])

    def test_checker_catches_a_counter_both_incremented_and_read(
        self, tmp_path
    ):
        (tmp_path / "twin.py").write_text(
            'metrics.inc("queries.completed")\n'
            'metrics.register_counter("queries.completed", read)\n'
        )
        assert any(
            "'queries.completed' is both incremented and read" in problem
            for problem in find_drift(src=tmp_path)
        )

    def test_checker_catches_undeclared_emission(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            'metrics.inc("tasks.launched")\n'
            'metrics.inc("totally.new.counter")\n'
        )
        problems = find_drift(src=tmp_path)
        assert any(
            "totally.new.counter" in problem and "not declared" in problem
            for problem in problems
        )
        # The declared-but-unemitted direction also fires on this tiny
        # tree (almost nothing is emitted there).
        assert any("never emitted" in problem for problem in problems)
