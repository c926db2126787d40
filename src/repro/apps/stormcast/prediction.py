"""The storm-prediction expert system (StormCast's analysis stage).

StormCast "uses a set of expert systems to predict severe storms in the
Arctic".  The reproduction implements a small rule-based predictor: given
the (filtered) observations collected from the sensor network, it scores
each region and issues a warning level.  The rules are deliberately simple
and deterministic — what the experiments measure is the *system* around the
expert system (who moves, how many bytes cross the network, how the answer
survives failures), not meteorology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.apps.stormcast.sensors import WeatherReading
from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext

__all__ = ["StormPrediction", "StormExpert", "make_expert_behaviour",
           "EXPERT_AGENT_NAME", "PREDICTIONS_CABINET"]

#: well-known name the expert-system agent is installed under at the hub
EXPERT_AGENT_NAME = "storm_expert"
#: cabinet at the hub where issued predictions are archived
PREDICTIONS_CABINET = "predictions"

#: warning levels, in increasing severity
WARNING_LEVELS = ("calm", "watch", "warning", "severe")


@dataclass
class StormPrediction:
    """The expert system's verdict for one station (or one region)."""

    station: str
    warning_level: str
    score: float
    evidence_count: int
    peak_wind: float
    min_pressure: float
    issued_at: float = 0.0

    def to_wire(self) -> Dict[str, object]:
        return {
            "station": self.station, "warning_level": self.warning_level,
            "score": self.score, "evidence_count": self.evidence_count,
            "peak_wind": self.peak_wind, "min_pressure": self.min_pressure,
            "issued_at": self.issued_at,
        }


class StormExpert:
    """Rule-based storm scorer.

    Scoring rules (each observation contributes):

    * wind ≥ 32 m/s → 3 points; ≥ 25 → 2; ≥ 20 → 1;
    * pressure ≤ 965 hPa → 3 points; ≤ 975 → 2; ≤ 985 → 1;
    * humidity ≥ 90 % adds half a point (moisture feeds the storm).

    The per-station score is normalised by the number of observations, so a
    single outlier in a long quiet series does not trigger a warning.
    """

    def __init__(self, watch_threshold: float = 0.8, warning_threshold: float = 1.8,
                 severe_threshold: float = 3.0):
        self.watch_threshold = watch_threshold
        self.warning_threshold = warning_threshold
        self.severe_threshold = severe_threshold

    def score_reading(self, reading: WeatherReading) -> float:
        """Points contributed by one observation."""
        points = 0.0
        if reading.wind_speed >= 32.0:
            points += 3.0
        elif reading.wind_speed >= 25.0:
            points += 2.0
        elif reading.wind_speed >= 20.0:
            points += 1.0
        if reading.pressure <= 965.0:
            points += 3.0
        elif reading.pressure <= 975.0:
            points += 2.0
        elif reading.pressure <= 985.0:
            points += 1.0
        if reading.humidity >= 90.0:
            points += 0.5
        return points

    def level_for(self, score: float) -> str:
        """Map a normalised score to a warning level."""
        if score >= self.severe_threshold:
            return "severe"
        if score >= self.warning_threshold:
            return "warning"
        if score >= self.watch_threshold:
            return "watch"
        return "calm"

    def predict(self, station: str, observations: Iterable[WeatherReading],
                issued_at: float = 0.0) -> StormPrediction:
        """Score one station's observations and issue a prediction."""
        readings = list(observations)
        if not readings:
            return StormPrediction(station=station, warning_level="calm", score=0.0,
                                   evidence_count=0, peak_wind=0.0, min_pressure=1013.0,
                                   issued_at=issued_at)
        total = sum(self.score_reading(reading) for reading in readings)
        # Normalise by the number of *storm-relevant* observations so a
        # pre-filtered evidence set and the full raw series produce the same
        # verdict (this is what makes the agent pipeline and the
        # client-server baseline issue identical alerts).
        relevant = [reading for reading in readings if reading.is_storm_precursor()]
        denominator = max(1, len(relevant))
        score = total / denominator
        level = self.level_for(score)
        # A single precursor in an otherwise calm series is not enough
        # evidence to escalate past a watch, no matter how dramatic it was.
        if len(relevant) < 3 and level in ("warning", "severe"):
            level = "watch"
        return StormPrediction(
            station=station,
            warning_level=level,
            score=round(score, 3),
            evidence_count=len(relevant),
            peak_wind=max(reading.wind_speed for reading in readings),
            min_pressure=min(reading.pressure for reading in readings),
            issued_at=issued_at,
        )

    def predict_many(self, by_station: Dict[str, List[WeatherReading]],
                     issued_at: float = 0.0) -> List[StormPrediction]:
        """Predictions for every station, sorted by station name."""
        return [self.predict(station, readings, issued_at=issued_at)
                for station, readings in sorted(by_station.items())]


def make_expert_behaviour(expert: Optional[StormExpert] = None) -> Callable:
    """Build the hub-side expert-system agent.

    Meet protocol: the caller's briefcase carries an ``OBSERVATIONS`` folder
    of reading wire records (already filtered or raw — the expert does not
    care); the agent groups them by station, predicts, archives the
    predictions in the hub's ``predictions`` cabinet and returns them in the
    ``PREDICTIONS`` folder.
    """
    scorer = expert or StormExpert()

    def expert_behaviour(ctx: AgentContext, briefcase: Briefcase):
        by_station: Dict[str, List[WeatherReading]] = {}
        if briefcase.has("OBSERVATIONS"):
            for record in briefcase.folder("OBSERVATIONS").elements():
                try:
                    reading = WeatherReading.from_wire(record)
                except (KeyError, TypeError, ValueError):
                    continue
                by_station.setdefault(reading.station, []).append(reading)

        predictions = scorer.predict_many(by_station, issued_at=ctx.now)
        output = briefcase.folder("PREDICTIONS", create=True)
        output.clear()
        cabinet = ctx.cabinet(PREDICTIONS_CABINET)
        for prediction in predictions:
            output.push(prediction.to_wire())
            cabinet.put("issued", prediction.to_wire())

        alerts = [prediction for prediction in predictions
                  if prediction.warning_level in ("warning", "severe")]
        briefcase.set("ALERT_COUNT", len(alerts))
        yield ctx.end_meet(len(predictions))
        return len(predictions)

    return expert_behaviour
