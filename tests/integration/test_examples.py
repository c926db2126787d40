"""Every example script must run end to end and exercise the public API.

The examples double as documentation, so a broken example is a
documentation bug; each one's ``main()`` is executed here (stdout captured
by pytest) to keep them honest.
"""

from __future__ import annotations

import os

import pytest

from scenarios import EXAMPLES_DIR, load_example

EXAMPLES = [
    "quickstart.py",
    "stormcast_prediction.py",
    "electronic_commerce.py",
    "load_balancing.py",
    "fault_tolerant_itinerary.py",
    "agent_mail.py",
    "runaway_containment.py",
    "adaptive_traffic.py",
    "sharded_churn.py",
    "tracing_an_itinerary.py",
]


@pytest.mark.parametrize("filename", EXAMPLES)
def test_example_runs_to_completion(filename, capsys):
    module = load_example(filename)
    module.main()
    output = capsys.readouterr().out
    assert output.strip(), f"{filename} should print its results"


def test_example_catalogue_matches_directory():
    """Every shipped example is exercised above (no silently untested scripts)."""
    on_disk = sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))
    assert on_disk == sorted(EXAMPLES)
