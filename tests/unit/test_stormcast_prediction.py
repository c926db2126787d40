"""Unit tests for the storm expert system and the hub-side expert agent."""

from __future__ import annotations

import pytest

from repro.apps.stormcast import (EXPERT_AGENT_NAME, PREDICTIONS_CABINET, StormExpert,
                                  WeatherReading, make_expert_behaviour)
from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan


def reading(wind=5.0, pressure=1013.0, humidity=50.0, station="st"):
    return WeatherReading(station=station, timestamp=0.0, wind_speed=wind,
                          pressure=pressure, temperature=0.0, humidity=humidity)


class TestScoringRules:
    def test_calm_reading_scores_zero(self):
        assert StormExpert().score_reading(reading()) == 0.0

    def test_wind_tiers(self):
        expert = StormExpert()
        assert expert.score_reading(reading(wind=21.0)) == 1.0
        assert expert.score_reading(reading(wind=26.0)) == 2.0
        assert expert.score_reading(reading(wind=35.0)) == 3.0

    def test_pressure_tiers(self):
        expert = StormExpert()
        assert expert.score_reading(reading(pressure=984.0)) == 1.0
        assert expert.score_reading(reading(pressure=974.0)) == 2.0
        assert expert.score_reading(reading(pressure=960.0)) == 3.0

    def test_humidity_bonus(self):
        expert = StormExpert()
        assert expert.score_reading(reading(wind=26.0, humidity=95.0)) == 2.5

    def test_level_thresholds(self):
        expert = StormExpert(watch_threshold=1.0, warning_threshold=2.0, severe_threshold=3.0)
        assert expert.level_for(0.5) == "calm"
        assert expert.level_for(1.5) == "watch"
        assert expert.level_for(2.5) == "warning"
        assert expert.level_for(3.5) == "severe"


class TestPrediction:
    def test_no_observations_means_calm(self):
        prediction = StormExpert().predict("st", [])
        assert prediction.warning_level == "calm"
        assert prediction.evidence_count == 0

    def test_repeated_precursors_raise_a_warning(self):
        observations = [reading(wind=30.0, pressure=970.0, humidity=95.0) for _ in range(5)]
        prediction = StormExpert().predict("st", observations, issued_at=9.0)
        assert prediction.warning_level in ("warning", "severe")
        assert prediction.evidence_count == 5
        assert prediction.peak_wind == 30.0
        assert prediction.min_pressure == 970.0
        assert prediction.issued_at == 9.0

    def test_single_outlier_is_capped_at_watch(self):
        observations = [reading() for _ in range(50)] + [reading(wind=40.0, pressure=955.0)]
        prediction = StormExpert().predict("st", observations)
        assert prediction.warning_level in ("calm", "watch")

    def test_prediction_is_insensitive_to_calm_padding(self):
        """Filtered evidence and the full raw series must agree (so the two pipelines can be compared)."""
        expert = StormExpert()
        storm = [reading(wind=33.0, pressure=960.0, humidity=95.0) for _ in range(4)]
        calm = [reading() for _ in range(200)]
        filtered = expert.predict("st", storm)
        raw = expert.predict("st", storm + calm)
        assert filtered.warning_level == raw.warning_level
        assert filtered.evidence_count == raw.evidence_count

    def test_predict_many_sorts_by_station(self):
        expert = StormExpert()
        by_station = {
            "zulu": [reading(station="zulu")],
            "alpha": [reading(station="alpha")],
        }
        predictions = expert.predict_many(by_station)
        assert [prediction.station for prediction in predictions] == ["alpha", "zulu"]

    def test_to_wire_contains_the_table_columns(self):
        prediction = StormExpert().predict("st", [reading(wind=30.0)])
        wire = prediction.to_wire()
        for key in ("station", "warning_level", "score", "evidence_count",
                    "peak_wind", "min_pressure"):
            assert key in wire


class TestExpertAgent:
    @pytest.fixture
    def kernel(self):
        kernel = Kernel(lan(["hub"]), transport="tcp", config=KernelConfig(rng_seed=2))
        kernel.install_agent("hub", EXPERT_AGENT_NAME, make_expert_behaviour(), replace=True)
        return kernel

    def meet_expert(self, kernel, observations):
        box = {}

        def client(ctx, bc):
            request = Briefcase()
            folder = request.folder("OBSERVATIONS", create=True)
            for observation in observations:
                folder.push(observation.to_wire())
            result = yield ctx.meet(EXPERT_AGENT_NAME, request)
            box["value"] = result.value
            box["predictions"] = request.folder("PREDICTIONS").elements()
            box["alerts"] = request.get("ALERT_COUNT")
            return result.value

        kernel.launch("hub", client)
        kernel.run()
        return box

    def test_predictions_grouped_by_station(self, kernel):
        observations = ([reading(wind=33.0, pressure=960.0, station="north")] * 4 +
                        [reading(station="south")] * 4)
        box = self.meet_expert(kernel, observations)
        assert box["value"] == 2
        by_station = {entry["station"]: entry for entry in box["predictions"]}
        assert by_station["north"]["warning_level"] in ("warning", "severe")
        assert by_station["south"]["warning_level"] == "calm"
        assert box["alerts"] == 1

    def test_predictions_are_archived_at_the_hub(self, kernel):
        self.meet_expert(kernel, [reading(station="north")])
        issued = kernel.site("hub").cabinet(PREDICTIONS_CABINET).elements("issued")
        assert len(issued) == 1 and issued[0]["station"] == "north"

    def test_malformed_observations_are_skipped(self, kernel):
        box = {}

        def client(ctx, bc):
            request = Briefcase()
            folder = request.folder("OBSERVATIONS", create=True)
            folder.push({"not": "a reading"})
            folder.push(reading(station="ok").to_wire())
            result = yield ctx.meet(EXPERT_AGENT_NAME, request)
            box["value"] = result.value
            return result.value

        kernel.launch("hub", client)
        kernel.run()
        assert box["value"] == 1

    def test_empty_briefcase_yields_no_predictions(self, kernel):
        box = self.meet_expert(kernel, [])
        assert box["value"] == 0
        assert box["predictions"] == []
