"""The four ledger workloads: seeded inputs, agent behaviours, output checks.

Everything here goes through the library's public API only (``repro.core``,
``repro.net``, ``repro.fault``; the courier of ``repro.sysagents`` is
reached through ``ctx.send_folder``).  Nothing is imported from
``repro.bench.workloads`` or ``benchmarks/bench_e*.py``, so a later PR that
collapses those cannot change what this benchmark feeds the program.

The behaviours live in this importable module (not ``__main__``) because the
spawn workers of ``churn_shards2`` re-import a behaviour's defining module to
rehydrate it.

A workload is a closed loop driven by one generator process: ``generate``
turns the seed into plain inputs, ``build`` is the timed set-up, ``drive`` is
the measured region (first ``launch``/``launch_many`` to quiescence) and
``check`` counts the units that did not come out right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core import Briefcase, Folder, Kernel, KernelConfig, register_behaviour
from repro.fault import completions, launch_ft_computation
from repro.net import RandomCrasher, lan, star, switched_fabric

SINK_NAME = "ledger_sink"
COURIER_NAME = "ledger_courier"
COLLECTOR_NAME = "ledger_collector"
SENDER_NAME = "ledger_sender"
MAIL_CABINET = "ledgermail"


@dataclass(frozen=True)
class Sizes:
    """Populations of one run; ``QUICK`` is for the self-test only."""

    comparable: bool
    churn_sites: int
    churn_waves: int
    churn_wave_size: int
    fanin_hot: int
    fanin_hot_folders: int
    fanin_trickle: int
    fanin_trickle_folders: int
    ft_sites: int
    ft_computations: int
    ft_horizon: float


# Sized so one repetition's measured region is ~1-1.5 s on a 2-core host: the
# driver's budget (92 runs in 3420 s) caps a run at ~35 s, and a run needs
# a dozen fresh-interpreter repetitions for its medians.  Churn's waves are
# large because a wave of 500 leaves each of churn_shards2's synchronisation
# rounds so little work that pipe wake-up jitter sets its wall time (IQR 15%
# between repetitions, against 4% at 2,000).
FULL = Sizes(comparable=True,
             churn_sites=200, churn_waves=3, churn_wave_size=2000,
             fanin_hot=16, fanin_hot_folders=250,
             fanin_trickle=48, fanin_trickle_folders=50,
             ft_sites=16, ft_computations=32, ft_horizon=120.0)
QUICK = Sizes(comparable=False,
              churn_sites=20, churn_waves=2, churn_wave_size=40,
              fanin_hot=2, fanin_hot_folders=20,
              fanin_trickle=4, fanin_trickle_folders=5,
              ft_sites=8, ft_computations=3, ft_horizon=120.0)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512: independent of PYTHONHASHSEED.
    return random.Random(f"ledger:{workload}:{seed}")


# --------------------------------------------------------------------------
# behaviours
# --------------------------------------------------------------------------

def _sink(ctx, briefcase):
    """File one couriered folder in the site's mail cabinet."""
    elements = briefcase.folder(briefcase.get("PAYLOAD_NAME")).elements()
    ctx.cabinet(MAIL_CABINET).put("received", {
        "from": briefcase.get("SENDER_SITE"),
        "bytes": sum(len(element["payload"]) for element in elements),
        "at": ctx.now,
    })
    yield ctx.sleep(0)
    return len(elements)


def _courier(ctx, briefcase):
    """One courier life: work, then courier one folder to the peer's sink."""
    yield ctx.sleep(briefcase.get("WORK"))
    folder = Folder("REPORT", [{"from": ctx.site_name,
                                "payload": briefcase.get("PAYLOAD")}])
    yield ctx.send_folder(folder, briefcase.get("PEER"), SINK_NAME)
    return ctx.site_name


def _sender(ctx, briefcase):
    """Courier one folder per entry of GAPS to the hub, pausing in between."""
    hub = briefcase.get("HUB")
    sizes = briefcase.get("SIZES")
    accepted = 0
    for seq, gap in enumerate(briefcase.get("GAPS")):
        if gap > 0:
            yield ctx.sleep(gap)
        folder = Folder("REPORT", [{"from": ctx.site_name, "seq": seq,
                                    "payload": b"\0" * sizes[seq]}])
        result = yield ctx.send_folder(folder, hub, COLLECTOR_NAME)
        if result is not None and result.value:
            accepted += 1
    return accepted


register_behaviour(COURIER_NAME, _courier, replace=True)
register_behaviour(SENDER_NAME, _sender, replace=True)
register_behaviour(SINK_NAME, _sink, replace=True)


def _filed(kernel: Kernel, contact: str) -> int:
    """Folders filed by *contact* instances, read from the agent ledger.

    Cabinets of a process-backend shard live in its worker, so the count
    comes from the lifecycle table, which every backend mirrors.
    """
    return sum(agent.result for agent in kernel.agents_named(contact)
               if agent.ok and isinstance(agent.result, int))


def _unclean(counters: Dict[str, int]) -> List[str]:
    """One problem per agent that failed, was killed, is stuck, or lost mail."""
    return [f"{key}={counters[key]}"
            for key in ("failed", "killed", "undeliverable", "active")
            if counters[key]]


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Churn:
    """Waves of short-lived couriers across a switched fabric."""

    def __init__(self, shards: int = 1):
        self.shards = shards

    def generate(self, seed: int, sizes: Sizes) -> Dict[str, Any]:
        # churn_shards2 draws from the "churn" stream: same seed, same inputs.
        rng = _rng("churn", seed)
        sites = [f"s{i:03d}" for i in range(sizes.churn_sites)]
        # One seeded peer per site, so the working set of routes (one
        # shortest-path search each, ~1.5 ms on the 200-site fabric) is the
        # site count and the warm-up wave of build() can fill it.
        shift = rng.randrange(1, len(sites))
        order = rng.sample(sites, len(sites))
        peer_of = {site: order[(index + shift) % len(order)]
                   for index, site in enumerate(order)}
        waves = []
        for _ in range(sizes.churn_waves):
            # Sleeps of 5-20 ms, stratified: every wave of every seed holds
            # the same evenly spaced set, dealt to its couriers in seeded
            # order, so no seed gets a luckier draw than another.
            count = sizes.churn_wave_size
            sleeps = [0.005 + 0.015 * (index + 0.5) / count for index in range(count)]
            rng.shuffle(sleeps)
            wave = []
            for work in sleeps:
                origin = rng.choice(sites)
                wave.append((origin, peer_of[origin], work, rng.randint(64, 4096)))
            waves.append(wave)
        # The warm-up couriers all sleep and carry the same, whatever the
        # seed, so the measured waves start from the same simulated instant
        # on every shard.  With seeded warm-up times the two shard clocks
        # start a wave up to one lookahead (1 ms) apart and keep that offset
        # while events are dense; conservative synchronisation then lets the
        # shards run almost in turns, and churn_shards2's wall time ranges
        # over 1.2-1.9 s from seed to seed.
        warmup = [(site, peer_of[site], 0.005, 64) for site in sites]
        return {"sites": sites, "waves": waves, "warmup": warmup,
                "rng_seed": rng.randrange(2 ** 31),
                "units": sizes.churn_waves * sizes.churn_wave_size}

    def build(self, inputs: Dict[str, Any]) -> Kernel:
        overrides = ({} if self.shards == 1 else
                     {"shards": self.shards, "shard_backend": "process"})
        kernel = Kernel(switched_fabric(inputs["sites"], hosts_per_switch=50),
                        transport="tcp",
                        config=KernelConfig(rng_seed=inputs["rng_seed"], **overrides))
        kernel.install_agent(None, SINK_NAME, _sink)
        # Warm-up wave, one courier per site: fills the route caches (in the
        # shard workers too, which nothing in the coordinator can reach) and
        # waits for the workers to finish importing, so neither is timed.
        self._wave(kernel, inputs["warmup"])
        return kernel

    @staticmethod
    def _wave(kernel: Kernel, wave) -> int:
        requests = []
        for origin, peer, work, size in wave:
            briefcase = Briefcase()
            briefcase.set("WORK", work)
            briefcase.set("PEER", peer)
            briefcase.set("PAYLOAD", b"\0" * size)
            requests.append((origin, COURIER_NAME, briefcase))
        kernel.launch_many(requests)
        return kernel.run()

    def drive(self, kernel: Kernel, inputs: Dict[str, Any]) -> int:
        return sum(self._wave(kernel, wave) for wave in inputs["waves"])

    def check(self, kernel: Kernel, inputs: Dict[str, Any]) -> Tuple[int, List[str]]:
        units = inputs["units"]
        counters = kernel.counters()
        problems = _unclean(counters)
        if counters["launched"] != counters["completed"]:
            problems.append(f"launched={counters['launched']} != "
                            f"completed={counters['completed']}")
        late = kernel.shard_summary()["shard_late_arrivals"]
        if late:
            problems.append(f"shard_late_arrivals={late}")
        couriers = units + len(inputs["warmup"])
        done = sum(1 for agent in kernel.agents_named(COURIER_NAME) if agent.ok)
        filed = _filed(kernel, SINK_NAME)
        if filed != couriers:
            problems.append(f"filed={filed} != couriers={couriers}")
        return min(units, couriers - min(done, filed)), problems

    def makespan(self, kernel: Kernel, inputs: Dict[str, Any]) -> float:
        return kernel.now


class FanInBatched:
    """Hot and trickle senders courier folders into one hub through the
    batching delivery fabric with adaptive per-pair flush windows."""

    HUB = "hub"
    MEAN_GAP = 0.110

    def generate(self, seed: int, sizes: Sizes) -> Dict[str, Any]:
        rng = _rng("fanin_batched", seed)
        senders = []
        for index in range(sizes.fanin_hot + sizes.fanin_trickle):
            hot = index < sizes.fanin_hot
            count = sizes.fanin_hot_folders if hot else sizes.fanin_trickle_folders
            gaps = [0.0 if hot else rng.uniform(0.020, 0.200) for _ in range(count)]
            if not hot:
                # Nearly the same offered load from every trickle sender and
                # every seed: the pattern of gaps is seeded but their sum is
                # held within 1%, so the simulated makespan does not wander
                # by 6% with the slowest of 48 draws.
                scale = count * self.MEAN_GAP * rng.uniform(0.99, 1.01) / sum(gaps)
                gaps = [gap * scale for gap in gaps]
            payload_sizes = [rng.randint(64, 1024) for _ in range(count)]
            senders.append((f"sender{index:02d}", gaps, payload_sizes))
        return {"senders": senders, "rng_seed": rng.randrange(2 ** 31),
                "units": sum(len(gaps) for _, gaps, _ in senders)}

    def build(self, inputs: Dict[str, Any]) -> Kernel:
        names = [name for name, _, _ in inputs["senders"]]
        kernel = Kernel(star(self.HUB, names), transport="tcp",
                        config=KernelConfig(rng_seed=inputs["rng_seed"],
                                            delivery_batch_window=0.02,
                                            flow_window_min=0.005,
                                            flow_window_max=0.1,
                                            flow_target_batch=8))
        kernel.install_agent(self.HUB, COLLECTOR_NAME, _sink)
        return kernel

    def drive(self, kernel: Kernel, inputs: Dict[str, Any]) -> int:
        requests = []
        for name, gaps, payload_sizes in inputs["senders"]:
            briefcase = Briefcase()
            briefcase.set("HUB", self.HUB)
            briefcase.set("GAPS", gaps)
            briefcase.set("SIZES", payload_sizes)
            requests.append((name, SENDER_NAME, briefcase))
        kernel.launch_many(requests)
        return kernel.run()

    def check(self, kernel: Kernel, inputs: Dict[str, Any]) -> Tuple[int, List[str]]:
        units = inputs["units"]
        problems = []
        filed = len(kernel.site(self.HUB).cabinet(MAIL_CABINET).elements("received"))
        if filed != units:
            problems.append(f"filed={filed} != folders={units}")
        snapshot = kernel.stats.snapshot()
        if snapshot["batches"] <= 0:
            problems.append("batches=0: the fabric never coalesced")
        if snapshot["messages_sent"] >= units:
            problems.append(f"wire messages {snapshot['messages_sent']} >= "
                            f"folders {units}")
        problems.extend(_unclean(kernel.counters()))
        return units - min(filed, units), problems

    def makespan(self, kernel: Kernel, inputs: Dict[str, Any]) -> float:
        return kernel.now


class FtDurable:
    """Rear-guarded itinerant computations with durable checkpoints, under
    seeded site crashes, on a group-commit WAL.

    Every third site of the itinerary crashes once, at a seeded time in
    ``CRASH_WINDOW``, and recovers ``RECOVER_AFTER`` later.  *Which* hops
    crash is fixed and only the times (and the itinerary's site order) are
    seeded: with a Bernoulli draw per site the work of a run swings by a
    quarter from seed to seed, which no regression bound survives.
    """

    CRASH_WINDOW = (1.2, 1.4)
    RECOVER_AFTER = 6.0

    def generate(self, seed: int, sizes: Sizes) -> Dict[str, Any]:
        rng = _rng("ft_durable", seed)
        sites = [f"n{i:02d}" for i in range(sizes.ft_sites)]
        home, delivery = sites[0], sites[-1]
        visited = rng.sample(sites[1:-1], len(sites) - 2)
        # What a visit collects: 64 B and up, one byte more per site, dealt
        # to the sites in seeded order.  The spread is kept that small
        # because the computation carries everything it has collected: with
        # 64 B-1 KiB values the order alone moved peak RSS by 20%.
        data_sizes = [64 + index for index in range(len(sites))]
        rng.shuffle(data_sizes)
        return {"sites": sites, "home": home, "delivery": delivery,
                "data_sizes": data_sizes,
                "itinerary": visited + [delivery],
                "crashing": visited[1::3],
                "ft_ids": [f"ledger-{seed}-{i:03d}"
                           for i in range(sizes.ft_computations)],
                "rng_seed": rng.randrange(2 ** 31),
                "crash_seed": rng.randrange(2 ** 31),
                "horizon": sizes.ft_horizon,
                "units": sizes.ft_computations}

    def build(self, inputs: Dict[str, Any]) -> Kernel:
        sites = inputs["sites"]
        kernel = Kernel(lan(sites), transport="tcp",
                        config=KernelConfig(rng_seed=inputs["rng_seed"],
                                            durability="wal-group-commit",
                                            store_commit_window=0.05))
        for name, size in zip(sites, inputs["data_sizes"]):
            kernel.site(name).cabinet("data").put("VALUE", b"\0" * size)
        return kernel

    def drive(self, kernel: Kernel, inputs: Dict[str, Any]) -> int:
        for index, ft_id in enumerate(inputs["ft_ids"]):
            launch_ft_computation(kernel, inputs["home"], inputs["itinerary"],
                                  ft_id=ft_id, per_hop=0.5, work_seconds=0.25,
                                  max_relaunches=4, delay=0.05 * index,
                                  durable_checkpoints=True)
        spared = [site for site in inputs["sites"] if site not in inputs["crashing"]]
        RandomCrasher(1.0, window=self.CRASH_WINDOW,
                      recover_after=self.RECOVER_AFTER, protect=spared,
                      seed=inputs["crash_seed"]).install(kernel)
        return kernel.run(until=inputs["horizon"])

    def check(self, kernel: Kernel, inputs: Dict[str, Any]) -> Tuple[int, List[str]]:
        problems = []
        bad = 0
        records: Dict[str, int] = {}
        for record in completions(kernel, inputs["delivery"]):
            records[record["ft_id"]] = records.get(record["ft_id"], 0) + 1
        for ft_id in inputs["ft_ids"]:
            if records.get(ft_id, 0) != 1:
                bad += 1
                problems.append(f"{ft_id}: {records.get(ft_id, 0)} completion records")
        lost = kernel.store_summary()["durable_folders_lost"]
        if lost:
            problems.append(f"durable_folders_lost={lost}")
        counters = kernel.counters()
        settled = counters["completed"] + counters["failed"] + counters["killed"]
        if counters["launched"] != settled:
            problems.append(f"launched={counters['launched']} != "
                            f"completed+failed+killed={settled}")
        return bad, problems

    def makespan(self, kernel: Kernel, inputs: Dict[str, Any]) -> float:
        return max((record["completed_at"]
                    for record in completions(kernel, inputs["delivery"])),
                   default=0.0)


WORKLOADS = {
    "churn": Churn(),
    "fanin_batched": FanInBatched(),
    "ft_durable": FtDurable(),
    "churn_shards2": Churn(shards=2),
}
