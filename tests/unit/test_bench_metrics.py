"""Unit tests for the two report helpers outside the kernel: Jain's fairness
index (``repro.scheduling``) and the byte formatter of the StormCast example."""

from __future__ import annotations

import pytest

from repro.scheduling import jains_fairness
from scenarios import load_example

bytes_human = load_example("stormcast_prediction.py").bytes_human


class TestFairness:
    def test_perfectly_even_distribution(self):
        assert jains_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_totally_skewed_distribution(self):
        assert jains_fairness([12, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_fair(self):
        assert jains_fairness([]) == 1.0
        assert jains_fairness([0, 0]) == 1.0

    def test_fairness_is_scale_invariant(self):
        assert jains_fairness([1, 2, 3]) == pytest.approx(jains_fairness([10, 20, 30]))


class TestBytesHuman:
    def test_bytes(self):
        assert bytes_human(512) == "512 B"

    def test_kilobytes(self):
        assert bytes_human(2048) == "2.0 KB"

    def test_megabytes(self):
        assert bytes_human(3 * 1024 * 1024) == "3.0 MB"

    def test_terabytes_cap(self):
        assert "TB" in bytes_human(5 * 1024 ** 4)
