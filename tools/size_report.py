#!/usr/bin/env python3
"""Print the size numbers ROADMAP aim 2 tracks, as one last line.

    UNREACHED lines path:first qualified.name   (one per block; see below)
    SIZE src_lines=... core_lines=... config_fields=... kernel_public=...
         shards_branches=... test_only_defs=... test_only_knobs=...
         unreached_lines=... bench_files=... import_modules=... third_party=...
         test_lines=... example_lines=... package_public=... (same line)

``src_lines`` is ``wc -l`` over ``src/repro/**/*.py``; ``core_lines`` the
part of it in the kernel facade, the engine and the shard package
(``core/kernel.py`` + ``core/engine.py`` + ``shard/*.py``); ``test_lines`` the
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
under it (``kernel_public`` counts one class only).  ``test_only_defs``
counts the public top-level functions and class methods under ``src/repro``
whose name no ``.py`` file outside ``tests/`` uses as code: an ``ast.Name``
id, an ``ast.Attribute`` attr, or an identifier-shaped string constant (a
registry key, a ``getattr`` name), an f-string's expressions included;
``import`` statements and ``__all__`` lists do not count (naming a function
there re-exports it, nobody calls it), nor does prose (a docstring or a
comment naming a function does not call it).  That is code only the tests
call; a name shared with anything else used outside ``tests/`` is not
counted.  Methods of ``_``-prefixed
classes are not counted: they are internal, and a method such a class
defines for a protocol (a file object's ``readinto`` for ``pickle``) is
called by the standard library, not by name.  ``test_only_knobs`` counts
the ``KernelConfig`` fields that no ``.py`` file outside ``tests/`` sets,
as a call keyword or a dict key (any call's keyword of that name counts):
a knob only tests turn wants to be a constant a test patches.
``unreached_lines`` counts the lines of the top-level functions and methods
of ``src/repro`` (a decorated one from its first decorator) that nothing but
the tests enters: a ``sys.setprofile`` hook in a fresh interpreter records
every code object entered while each ``examples/*.py`` script runs as
``__main__`` and each ledger workload runs ``generate``, ``build``, ``drive``
and ``check`` at its ``QUICK`` sizes; a block is reached when its own code
object was entered.  ``shard/procworker.py`` is left out (the tool says so
on standard error): it runs in forked shard workers, which the hook does not
follow.  The tool first lists the unreached blocks of ``REACH_LISTED``
lines or more, one ``UNREACHED`` line each; the ``SIZE`` line comes last.
``tests/unit/test_package_surface.py`` pins the qualified names that
``test_only_defs()`` returns, the fields ``test_only_knobs()`` returns and
the blocks the ``UNREACHED`` lines list.  CI prints the lines after tier-1;
CHANGES.md records parent -> change for each change.
"""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the engine and its coordination: what ``core_lines`` counts
CORE_FILES = [SRC / "repro" / "core" / "kernel.py", SRC / "repro" / "core" / "engine.py",
              *sorted((SRC / "repro" / "shard").glob("*.py"))]
#: run by forked shard workers, which a profile hook does not follow
UNCOUNTED = SRC / "repro" / "shard" / "procworker.py"
#: the tool lists the unreached blocks of at least this many lines
REACH_LISTED = 20
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

#: run every example as ``__main__`` and every ledger workload at its QUICK
#: sizes (the ledger's default seed, 7) under a profile hook, then print the
#: first line and the file of every ``src/repro`` code object entered, one
#: per line
REACH = """
import contextlib, io, pathlib, runpy, sys
root = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "ledger")]
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()):
    for script in sorted((root / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")
    import ledger_workloads
    for workload in ledger_workloads.WORKLOADS.values():
        inputs = workload.generate(7, ledger_workloads.QUICK)
        kernel = workload.build(inputs)
        try:
            workload.drive(kernel, inputs)
            workload.check(kernel, inputs)
        finally:
            kernel.close()
sys.setprofile(None)
src = str(root / "src" / "repro")
for code in entered:
    if code.co_filename.startswith(src):
        print(code.co_firstlineno, code.co_filename)
"""


def lines_of(path: pathlib.Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def package_public() -> int:
    """``len(__all__)`` over ``repro`` and every package under it."""
    packages = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg]
    return sum(len(getattr(importlib.import_module(name), "__all__", ()))
               for name in packages)


def test_only_defs() -> list:
    """Qualified names (``Class.method`` or ``function``) of the public
    functions and methods of ``src/repro`` that only tests name, sorted."""
    defs = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                members, prefix = node.body, f"{node.name}."
            else:
                members, prefix = [node], ""
            defs += [(member.name, prefix + member.name)
                     for member in members
                     if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not member.name.startswith("_")]
    used = set()
    for path in outside_tests():
        used |= code_names(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(qualified for name, qualified in defs if name not in used)


def test_only_knobs() -> list:
    """The ``KernelConfig`` fields no ``.py`` file outside ``tests/`` sets,
    as a call keyword or a dict key, sorted."""
    fields = {field.name for field in dataclasses.fields(KernelConfig)}
    set_outside = set()
    for path in outside_tests():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword):
                set_outside.add(node.arg)
            elif isinstance(node, ast.Dict):
                set_outside.update(key.value for key in node.keys
                                   if isinstance(key, ast.Constant))
    return sorted(fields - set_outside)


def outside_tests() -> list:
    """Every ``.py`` file of the repo outside ``tests/`` (and ``.git``)."""
    return [path for path in ROOT.rglob("*.py")
            if path.relative_to(ROOT).parts[0] not in ("tests", ".git")
            and "__pycache__" not in path.parts]


def code_names(tree: ast.Module) -> set:
    """The identifiers *tree* uses as code: every ``ast.Name`` id, ``ast.Attribute``
    attr and identifier-shaped string constant, outside ``import`` statements
    and ``__all__`` assignments."""
    used, pending = set(), [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or assigns_all(node):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
        pending.extend(ast.iter_child_nodes(node))
    return used


def assigns_all(node: ast.AST) -> bool:
    """Whether *node* assigns or extends ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


def blocks(path: pathlib.Path) -> list:
    """``(first, last, qualified name)`` of every top-level function and every
    method of a top-level class in *path*; a decorated one starts at its first
    decorator."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    module = module[:-len(".__init__")] if module.endswith(".__init__") else module
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members, prefix = ((node.body, f"{node.name}.") if isinstance(node, ast.ClassDef)
                           else ([node], ""))
        found += [(min([member.lineno] + [deco.lineno for deco in member.decorator_list]),
                   member.end_lineno, f"{module}.{prefix}{member.name}")
                  for member in members
                  if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return found


def unreached_blocks() -> list:
    """``(lines, "path:first", qualified name)`` of every block of ``src/repro``
    (``UNCOUNTED`` left out) that no example and no ledger workload enters,
    in file and line order."""
    done = subprocess.run([sys.executable, "-c", REACH, str(ROOT)], check=True,
                          capture_output=True, text=True)
    entered = {tuple(line.split(" ", 1)) for line in done.stdout.splitlines()}
    unreached = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == UNCOUNTED:
            continue
        for first, last, name in blocks(path):
            # a code object's first line is its first decorator's, else its def's
            if (str(first), str(path)) not in entered:
                unreached.append((last - first + 1,
                                  f"{path.relative_to(ROOT)}:{first}", name))
    return unreached


def cold_start() -> str:
    """The two cold-start numbers, counted in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", COLD_START, str(SRC)], check=True,
                          capture_output=True, text=True).stdout.strip()


if __name__ == "__main__":
    print(f"unreached_lines leaves out {UNCOUNTED.relative_to(ROOT)}: forked shard "
          "workers run it, and the profile hook does not follow a fork", file=sys.stderr)
    unreached = unreached_blocks()
    for lines, where, name in unreached:
        if lines >= REACH_LISTED:
            print(f"UNREACHED {lines} {where} {name}")
    sources = sorted((SRC / "repro").rglob("*.py"))
    core = [line for path in sources if path.parent.name == "core"
            for line in lines_of(path)]
    benchmarks = ROOT / "benchmarks"
    stray = [path for path in benchmarks.rglob("*.py")
             if benchmarks / "ledger" not in path.parents]
    print("SIZE",
          f"src_lines={sum(len(lines_of(path)) for path in sources)}",
          f"core_lines={sum(len(lines_of(path)) for path in CORE_FILES)}",
          f"config_fields={len(dataclasses.fields(KernelConfig))}",
          f"kernel_public={sum(not name.startswith('_') for name in dir(Kernel))}",
          f"shards_branches={sum('_shards is' in line or 'distributed' in line for line in core)}",
          f"test_only_defs={len(test_only_defs())}",
          f"test_only_knobs={len(test_only_knobs())}",
          f"unreached_lines={sum(lines for lines, _, _ in unreached)}",
          f"bench_files={len(stray)}",
          cold_start(),
          f"test_lines={sum(len(lines_of(path)) for path in (ROOT / 'tests').rglob('*.py'))}",
          f"example_lines={sum(len(lines_of(path)) for path in (ROOT / 'examples').glob('*.py'))}",
          f"package_public={package_public()}")
