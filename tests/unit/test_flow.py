"""Unit tests for the unified flow-control layer (repro.flow)."""

from __future__ import annotations

import random

import pytest

from repro.flow import EWMA_ALPHA, CostModel, FlowController, RateEstimator


class TestCostModel:
    def test_linear_pricing(self):
        model = CostModel(base=0.001, per_byte=0.00001, sync=0.05)
        assert model.cost(items=3, size_bytes=1000, syncs=1) == pytest.approx(
            0.001 * 3 + 0.00001 * 1000 + 0.05)

    def test_terms_default_to_zero(self):
        assert CostModel().cost(items=10, size_bytes=10_000, syncs=10) == 0.0
        assert CostModel(base=0.1).cost(items=2, syncs=5) == pytest.approx(0.2)

    def test_jitter_bounds(self):
        model = CostModel(sync=0.1, jitter=0.5)
        rng = random.Random(7)
        for _ in range(100):
            cost = model.cost(items=0, syncs=1, rng=rng)
            assert 0.1 <= cost <= 0.1 * 1.5

    def test_jitter_without_rng_is_deterministic(self):
        model = CostModel(base=0.1, jitter=0.5)
        assert model.cost(items=1, syncs=0) == pytest.approx(0.1)

    def test_transport_constants_are_cost_models(self):
        # The shared layer is really consumed: the transports' setup prices
        # decompose into base/sync terms that reproduce the historic values.
        from repro.net.rsh import RshTransport
        from repro.net.tcp import TcpTransport
        assert TcpTransport.SETUP_COSTS.cost(items=1, syncs=1) == pytest.approx(
            TcpTransport.CONNECT_SETUP)
        assert TcpTransport.SETUP_COSTS.cost(items=1, syncs=0) == pytest.approx(
            TcpTransport.ESTABLISHED_SETUP)
        assert RshTransport.MESSAGE_COSTS.cost(items=0, syncs=1) == pytest.approx(
            RshTransport.MESSAGE_SETUP)

    def test_store_costs_build_the_wal_model(self):
        from repro.store import StoreCosts
        costs = StoreCosts(write_latency=0.001, write_byte_latency=0.0001,
                           fsync_latency=0.01)
        model = costs.wal_cost_model()
        assert model.cost(items=2, size_bytes=100, syncs=1) == pytest.approx(
            0.001 * 2 + 0.0001 * 100 + 0.01)


class TestRateEstimator:
    def test_no_rate_until_two_observations(self):
        estimator = RateEstimator()
        assert estimator.message_rate == 0.0
        estimator.observe(1.0, 100)
        assert estimator.message_rate == 0.0
        estimator.observe(1.5, 100)
        assert estimator.message_rate == pytest.approx(2.0)

    def test_steady_stream_converges_to_its_rate(self):
        estimator = RateEstimator()
        for step in range(50):
            estimator.observe(step * 0.1, 200)
        assert estimator.message_rate == pytest.approx(10.0)
        assert estimator.bytes_rate == pytest.approx(2000.0)

    def test_ewma_tracks_a_rate_change(self):
        estimator = RateEstimator()
        for step in range(10):
            estimator.observe(step * 1.0)       # 1 msg/s
        slow = estimator.message_rate
        for step in range(20):
            estimator.observe(10.0 + step * 0.01)   # 100 msg/s burst
        assert estimator.message_rate > slow * 10

    def test_the_newest_observation_weighs_ewma_alpha(self):
        # 0.2 is the smoothing the fan-in benchmark runs; every estimator
        # uses it, since no workload tunes it.
        assert EWMA_ALPHA == 0.2
        estimator = RateEstimator()
        estimator.observe(0.0, 100)
        estimator.observe(1.0, 100)             # mean gap 1.0 s
        estimator.observe(1.5, 600)             # a 0.5 s gap, a 600 B body
        assert 1.0 / estimator.message_rate == pytest.approx(
            1.0 + EWMA_ALPHA * (0.5 - 1.0))
        assert estimator.mean_bytes == pytest.approx(
            100 + EWMA_ALPHA * (600 - 100))

    def test_simultaneous_posts_do_not_divide_by_zero(self):
        estimator = RateEstimator()
        estimator.observe(1.0)
        estimator.observe(1.0)
        assert estimator.message_rate > 0

    def test_totals_are_exact(self):
        estimator = RateEstimator()
        estimator.observe(0.0, 10)
        estimator.observe(1.0, 30)
        assert estimator.events == 2
        assert estimator.bytes_total == 40


class TestFlowController:
    def test_fixed_mode_is_a_pass_through(self):
        controller = FlowController(base_window=0.25)
        assert not controller.adaptive
        controller.observe(("a", "b"), 0.0, 100)
        controller.observe(("a", "b"), 0.001, 100)
        assert controller.window_for(("a", "b")) == 0.25
        assert controller.window_for(("never", "seen")) == 0.25

    def test_hot_pair_clamps_to_the_minimum_window(self):
        controller = FlowController(base_window=0.2, window_min=0.01,
                                    window_max=1.0, target_batch=4)
        for step in range(20):
            controller.observe(("a", "b"), step * 0.001)   # 1000 msg/s
        assert controller.window_for(("a", "b")) == 0.01   # floored at min

    def test_mid_rate_pair_sizes_to_the_target_batch(self):
        controller = FlowController(base_window=0.2, window_min=0.01,
                                    window_max=1.0, target_batch=4)
        for step in range(30):
            controller.observe(("a", "b"), step * 0.02)    # 50 msg/s
        # ideal window = target / rate = 4 / 50 = 0.08, inside the bounds.
        assert controller.window_for(("a", "b")) == pytest.approx(0.08, rel=0.05)

    def test_trickle_pair_gets_the_widest_window(self):
        controller = FlowController(base_window=0.2, window_min=0.01,
                                    window_max=1.0, target_batch=4)
        for step in range(10):
            controller.observe(("a", "b"), step * 5.0)     # 0.2 msg/s
        assert controller.window_for(("a", "b")) == 1.0    # clamped at max

    def test_unknown_pair_seeds_from_the_clamped_base_window(self):
        controller = FlowController(base_window=5.0, window_min=0.01,
                                    window_max=1.0)
        assert controller.window_for(("new", "pair")) == 1.0

    def test_reset_site_drops_every_touching_pair(self):
        controller = FlowController(base_window=0.2, window_min=0.01,
                                    window_max=1.0)
        for step in range(5):
            controller.observe(("a", "b"), step * 0.001)
            controller.observe(("b", "c"), step * 0.001)
            controller.observe(("c", "a"), step * 0.001)
        assert len(controller) == 3
        assert controller.reset_site("b") == 2
        assert len(controller) == 1
        assert controller.state(("c", "a")) is not None
        # The reset pair starts over from the seed window.
        assert controller.window_for(("a", "b")) == \
            controller.window_for(("fresh", "pair"))

    def test_inverted_bounds_are_refused_without_side_effects(self):
        controller = FlowController(base_window=0.1, window_min=0.01,
                                    window_max=1.0)
        with pytest.raises(ValueError):
            controller.configure(window_min=2.0, window_max=1.0)
        # The refused range must not stick: clamps keep the old bounds.
        assert controller.window_min == 0.01
        assert controller.window_max == 1.0
        assert controller.window_for(("a", "b")) == 0.1

    def test_telemetry_shape(self):
        controller = FlowController(base_window=0.1, window_min=0.01,
                                    window_max=1.0)
        controller.observe(("a", "b"), 0.0, 64)
        controller.observe(("a", "b"), 0.01, 64)
        telemetry = controller.telemetry()
        info = telemetry[("a", "b")]
        assert set(info) == {"window", "message_rate", "bytes_rate",
                             "messages", "bytes"}
        assert info["messages"] == 2
        assert info["bytes"] == 128
