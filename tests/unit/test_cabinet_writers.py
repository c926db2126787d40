"""Every module that writes to a cabinet folder does so through the cabinet API.

A durable store sees a cabinet's changes only through the hook
``FileCabinet.attach_store`` installs, which fires on ``put``, ``add``,
``deposit`` and ``remove``.  Each case below gives a cabinet a folder that
already exists (so creating it cannot be what reports it), installs a
recording hook, runs one writer, and checks the hook saw the folder and the
cabinet holds what the writer wrote.
"""

from __future__ import annotations

import pytest

from repro.apps.mail import MAILBOX_CABINET, mailbox_behaviour
from repro.apps.stormcast import (READINGS_FOLDER, SENSOR_CABINET, WeatherGenerator,
                                  populate_sensor_site)
from repro.cash import Mint, Wallet
from repro.core import Briefcase, FileCabinet, Kernel
from repro.net import lan
from repro.scheduling import BrokerState, admit_rate_limited, make_guardian_behaviour


class StubContext:
    """The slice of an agent context the local writers read."""

    now = 0.0
    store = None

    def __init__(self, cabinet: FileCabinet):
        self._cabinet = cabinet

    def cabinet(self, name: str) -> FileCabinet:
        return self._cabinet

    def end_meet(self, value):
        return value


def run_behaviour(behaviour, cabinet: FileCabinet, briefcase: Briefcase) -> None:
    for _ in behaviour(StubContext(cabinet), briefcase):
        pass


def mailbox_delete(watch):
    cabinet = watch(FileCabinet(MAILBOX_CABINET), "user:fred")
    cabinet.put("user:fred", {"letter_id": "L1", "to_user": "fred"})
    request = Briefcase()
    request.set("OP", "delete")
    request.set("USER", "fred")
    request.set("LETTER_ID", "L1")
    run_behaviour(mailbox_behaviour, cabinet, request)
    assert cabinet.elements("user:fred") == []


def broker_table(watch):
    cabinet = watch(FileCabinet("broker"), "assignments")
    state = BrokerState(cabinet)
    state.note_assignment("a")
    assert state.assignments() == {"a": 1}


def guardian_rate_bucket(watch):
    cabinet = watch(FileCabinet("guardian"), "rate_bucket",
                    seed={"window_start": 0.0, "count": 0})
    assert admit_rate_limited(2)(StubContext(cabinet), {}) is True
    assert cabinet.get("rate_bucket")["count"] == 1


def guardian_pending(watch):
    cabinet = watch(FileCabinet("guardian"), "pending")
    guardian = make_guardian_behaviour("secret", policy=lambda ctx, request: False)
    request = Briefcase()
    request.set("OP", "drain")
    run_behaviour(guardian, cabinet, request)
    assert cabinet.elements("pending") == ["before"]


def stormcast_readings(watch):
    kernel = Kernel(lan(["hub", "sensor"]))
    cabinet = watch(kernel.site("sensor").cabinet(SENSOR_CABINET), READINGS_FOLDER)
    readings = WeatherGenerator(seed=1).readings_for("sensor", 3)
    assert populate_sensor_site(kernel, "sensor", readings) == 3
    assert len(cabinet.elements(READINGS_FOLDER)) == 4


def wallet_deposit(watch):
    mint = Mint(seed=3)
    cabinet = watch(FileCabinet("till"), "ECUS", seed=mint.issue(5).to_wire())
    Wallet(cabinet).deposit([mint.issue(10)])
    assert Wallet(cabinet).balance() == 15


def wallet_withdrawal(watch):
    cabinet = FileCabinet("till")
    Wallet(cabinet).deposit(Mint(seed=3).issue_many([5, 5]))
    watch(cabinet, "ECUS")
    Wallet(cabinet).pay_into(Briefcase(), 5)
    assert Wallet(cabinet).balance() == 5


WRITERS = [mailbox_delete, broker_table, guardian_rate_bucket, guardian_pending,
           stormcast_readings, wallet_deposit, wallet_withdrawal]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda writer: writer.__name__)
def test_every_cabinet_writer_reports_its_folder_to_the_store_hook(writer):
    watched = {}

    def watch(cabinet, folder_name, seed="before"):
        if not cabinet.has(folder_name):
            cabinet.put(folder_name, seed)
        seen = watched[folder_name] = []
        cabinet.attach_store(seen.append)
        return cabinet

    writer(watch)
    [(folder_name, seen)] = watched.items()
    assert folder_name in seen
