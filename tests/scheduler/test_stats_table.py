"""Unit tests for the transaction stats table (ETS estimates)."""

import pytest

from repro.scheduler.stats_table import ProfileStats, TransactionStatsTable


class TestTransactionStatsTable:
    def test_fallback_before_data(self):
        t = TransactionStatsTable()
        assert t.expected_duration("unknown", fallback=0.5) == 0.5

    def test_estimate_tracks_commits(self):
        t = TransactionStatsTable()
        for _ in range(50):
            t.record_commit("bank.transfer", 0.2, wrote=True)
        assert t.expected_duration("bank.transfer", fallback=9.0) == pytest.approx(0.2)

    def test_profiles_independent(self):
        t = TransactionStatsTable()
        t.record_commit("a", 0.1, wrote=True)
        t.record_commit("b", 0.9, wrote=True)
        assert t.expected_duration("a", 0.0) == pytest.approx(0.1)
        assert t.expected_duration("b", 0.0) == pytest.approx(0.9)

    def test_known_profiles_and_contains(self):
        t = TransactionStatsTable()
        t.record_commit("x", 0.1, wrote=False)
        assert "x" in t
        assert "y" not in t
        assert t.known_profiles() == ["x"]
        assert len(t) == 1

    def test_entry_creates_on_demand(self):
        t = TransactionStatsTable()
        entry = t.entry("p")
        assert isinstance(entry, ProfileStats)
        assert t.entry("p") is entry


class TestProfileStats:
    def test_commits_count_reads_and_writes(self):
        p = ProfileStats("p")
        p.record(0.123, wrote=True)
        p.record(0.4, wrote=False)
        assert p.commits == 2
        assert p.write_commits == 1
