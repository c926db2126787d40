#!/usr/bin/env python3
"""Print the size numbers ROADMAP aim 2 tracks, as one line.

    SIZE src_lines=... config_fields=... kernel_public=... shards_branches=...

``src_lines`` is ``wc -l`` over ``src/repro/**/*.py``; ``config_fields`` the
fields of ``KernelConfig``; ``kernel_public`` the public names on the
``Kernel`` class; ``shards_branches`` the lines of ``src/repro/core/`` that
test for the sharded case (``_shards is`` / ``distributed``).  CI prints it
after tier-1; CHANGES.md records parent -> change per PR.
"""

import dataclasses
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.core import Kernel, KernelConfig  # noqa: E402


def lines_of(path: pathlib.Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    sources = sorted((SRC / "repro").rglob("*.py"))
    core = [line for path in sources if path.parent.name == "core"
            for line in lines_of(path)]
    print("SIZE",
          f"src_lines={sum(len(lines_of(path)) for path in sources)}",
          f"config_fields={len(dataclasses.fields(KernelConfig))}",
          f"kernel_public={sum(not name.startswith('_') for name in dir(Kernel))}",
          f"shards_branches={sum('_shards is' in line or 'distributed' in line for line in core)}")
