#!/usr/bin/env python3
"""Print the size numbers ROADMAP aim 2 tracks, as one line.

    SIZE src_lines=... config_fields=... kernel_public=... shards_branches=...
         bench_files=... import_modules=... third_party=... test_lines=...
         example_lines=... package_public=... (same line)

``src_lines`` is ``wc -l`` over ``src/repro/**/*.py``, ``test_lines`` the
same over ``tests/**/*.py`` and ``example_lines`` over ``examples/*.py``
(aim 2 wants the first two down, and their sum with the third, so that code
moved out of ``src/`` into a test or an example still shows); ``config_fields`` the
fields of ``KernelConfig``; ``kernel_public`` the public names on the
``Kernel`` class; ``shards_branches`` the lines of ``src/repro/core/`` that
test for the sharded case (``_shards is`` / ``distributed``); ``bench_files``
the Python files under ``benchmarks/`` outside ``ledger/`` (the ledger is the
repo's one benchmark, so 0).  The last two are what a site pays before its
first ``meet``: ``import_modules`` is how many modules importing
``repro.core``, ``repro.net``, ``repro.fault`` and ``repro.sysagents`` adds
to ``sys.modules`` in a fresh interpreter (not its length: what site ``.pth``
files preload differs by host, so the total would too); ``third_party`` the
top-level packages among them that came from a ``site-packages`` /
``dist-packages`` directory.  ``package_public`` is the public surface of
the whole package: ``len(__all__)`` summed over ``repro`` and every package
under it (``kernel_public`` counts one class only).  CI prints
the line after tier-1; CHANGES.md records parent -> change per PR.
"""

import dataclasses
import importlib
import pathlib
import pkgutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.core import Kernel, KernelConfig  # noqa: E402


COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import repro.core, repro.net, repro.fault, repro.sysagents
added = set(sys.modules) - before
installed = {name.split(".")[0] for name in added
             if any(part in (getattr(sys.modules[name], "__file__", None) or "")
                    for part in ("site-packages", "dist-packages"))}
print(f"import_modules={len(added)} third_party={len(installed)}")
"""


def lines_of(path: pathlib.Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def package_public() -> int:
    """``len(__all__)`` over ``repro`` and every package under it."""
    packages = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg]
    return sum(len(getattr(importlib.import_module(name), "__all__", ()))
               for name in packages)


def cold_start() -> str:
    """The two cold-start numbers, counted in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", COLD_START, str(SRC)], check=True,
                          capture_output=True, text=True).stdout.strip()


if __name__ == "__main__":
    sources = sorted((SRC / "repro").rglob("*.py"))
    core = [line for path in sources if path.parent.name == "core"
            for line in lines_of(path)]
    benchmarks = ROOT / "benchmarks"
    stray = [path for path in benchmarks.rglob("*.py")
             if benchmarks / "ledger" not in path.parents]
    print("SIZE",
          f"src_lines={sum(len(lines_of(path)) for path in sources)}",
          f"config_fields={len(dataclasses.fields(KernelConfig))}",
          f"kernel_public={sum(not name.startswith('_') for name in dir(Kernel))}",
          f"shards_branches={sum('_shards is' in line or 'distributed' in line for line in core)}",
          f"bench_files={len(stray)}",
          cold_start(),
          f"test_lines={sum(len(lines_of(path)) for path in (ROOT / 'tests').rglob('*.py'))}",
          f"example_lines={sum(len(lines_of(path)) for path in (ROOT / 'examples').glob('*.py'))}",
          f"package_public={package_public()}")
