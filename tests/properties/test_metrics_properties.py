"""Property-based tests for the report arithmetic: trace percentiles and
Jain's fairness index."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.report import percentile
from repro.scheduling import jains_fairness

samples = st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                             allow_infinity=False), min_size=1, max_size=50)


@given(samples, st.floats(min_value=0.0, max_value=1.0))
def test_percentile_is_bounded_by_min_and_max(values, q):
    assert min(values) <= percentile(values, q) <= max(values)


@given(samples)
def test_percentile_is_monotone_in_pct(values):
    points = [percentile(values, q) for q in (0, 0.25, 0.5, 0.75, 1)]
    assert points == sorted(points)


@given(samples)
def test_jains_fairness_is_within_unit_interval(values):
    fairness = jains_fairness(values)
    assert 0.0 < fairness <= 1.0 + 1e-9


@given(st.floats(min_value=0.001, max_value=1e5, allow_nan=False), st.integers(2, 30))
def test_jains_fairness_is_one_for_uniform_loads(value, count):
    assert jains_fairness([value] * count) > 0.999999
