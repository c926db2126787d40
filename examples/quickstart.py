#!/usr/bin/env python
"""Quickstart: launch a mobile agent that visits every site and reports back.

This is the smallest complete TACOMA program: build a kernel over a
simulated network, write an agent behaviour as a generator, let it hop
between sites by meeting ``rexec`` (via the ``ctx.jump`` convenience), and
read the result out of a site-local file cabinet afterwards.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import Briefcase, Kernel, KernelConfig, register_behaviour
from repro.net import lan


def greeter(ctx, briefcase):
    """Visit every site on the itinerary, collecting one greeting per site."""
    greetings = briefcase.folder("GREETINGS", create=True)
    greetings.push(f"hello from {ctx.site_name} at t={ctx.now:.3f}s")

    itinerary = briefcase.folder("ITINERARY", create=True)
    if itinerary:
        next_site = itinerary.dequeue()
        # Meeting rexec (wrapped by ctx.jump) ships this agent's code and
        # briefcase to the next site; a fresh copy continues there.
        yield ctx.jump(briefcase, next_site)
        return "moved on"

    # Last stop: leave the collected greetings in a site-local file cabinet
    # so the program that launched us can read them after the run.
    ctx.cabinet("results").put("GREETINGS", list(greetings.elements()))
    return "done"


def main() -> None:
    # A behaviour must be registered under a name to be shippable by name.
    register_behaviour("greeter", greeter, replace=True)

    sites = ["tromso", "oslo", "ithaca", "cornell"]
    # The kernel is a context manager: close() runs on exit (releasing
    # shard workers and trace files — a no-op here, but the habit scales
    # to sharded and traced kernels where it matters).
    with Kernel(lan(sites), transport="tcp",
                config=KernelConfig(rng_seed=1)) as kernel:
        briefcase = Briefcase()
        itinerary = briefcase.folder("ITINERARY", create=True)
        for site in sites[1:]:
            itinerary.enqueue(site)

        kernel.launch("tromso", "greeter", briefcase)
        kernel.run()

        greetings = kernel.site(sites[-1]).cabinet("results").get("GREETINGS")
        print("The greeter agent visited:")
        for line in greetings:
            print("  ", line)
        print(f"\nmigrations: {kernel.stats.migrations}, "
              f"bytes on the wire: {kernel.stats.bytes_sent}, "
              f"simulated time: {kernel.now:.3f}s")


if __name__ == "__main__":
    main()
