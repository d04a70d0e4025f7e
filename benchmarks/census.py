"""Function-entry census: which functions in ``src/repro`` anything runs.

Copies the repository (without ``.git``) into a temporary directory, runs
every shipped surface in ``SURFACES`` there, then tier-1, each with a
call-only trace hook in every Python process it starts (a generated
``sitecustomize.py`` first on ``PYTHONPATH``), and sorts every function
defined in ``src/repro`` into three buckets:

* **never entered** -- no surface and no test enters it;
* **test-only** -- only tier-1 enters it;
* **shipped** -- some shipped surface enters it.

It prints each bucket's function and line totals (a function's lines are
its ``ast`` span, decorators included), then every function of the first
two buckets.  Traced runs are several times slower than plain ones, so
the smokes' time budgets do not hold under the hook: a surface's exit
status is printed, and the census itself passes or fails nothing.

Usage::

    python benchmarks/census.py            # or: make census

Runs on Python 3.9 and later.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The shipped surfaces, run from the copy's root with the copy's
# interpreter; "{out}" is a scratch directory.  The day runs are the
# shapes the surfaces above do not reach: traced with the soak
# invariants, and each redundancy mode under a fault plan.
PY = "{python}"
_SMALL = ["--mode", "revised", "--clusters", "3", "--workstations", "4"]
SURFACES: List[Tuple[str, List[str]]] = [
    ("make results", [PY, "-m", "pytest", "benchmarks/", "-q",
                      "--benchmark-disable", "-p", "no:cacheprovider"]),
    ("bench_days --smoke", [PY, "benchmarks/bench_days.py", "--smoke",
                            "--out", "{out}/days-smoke"]),
    ("bench_kernel --smoke", [PY, "benchmarks/bench_kernel.py", "--smoke"]),
    ("ledger --quick", [PY, "benchmarks/ledger/run.py", "--quick",
                        "--out", "{out}/ledger.json"]),
    ("day", [PY, "-m", "repro", "day"]),
    ("day traced", [PY, "-m", "repro", "day", "--trace", "--invariants",
                    "--out", "{out}/day-traced"]),
    ("day chaos x3", [PY, "-m", "repro", "day", *_SMALL, "--plan", "chaos",
                      "--replication", "3"]),
    ("day partition 2+1", [PY, "-m", "repro", "day", *_SMALL, "--plan",
                           "partition", "--erasure", "2,1"]),
    ("day flaky-campus x2", [PY, "-m", "repro", "day", *_SMALL, "--plan",
                             "flaky-campus", "--replication", "2"]),
    ("day server-crash windows", [PY, "-m", "repro", "day", "--mode",
                                  "revised", "--plan", "server-crash",
                                  "--window", "600", "--out", "{out}/day-w"]),
    ("day coded-crash", [PY, "-m", "repro", "day", "--scenario",
                         "coded-crash"]),
    ("andrew", [PY, "-m", "repro", "andrew"]),
    ("andrew traced", [PY, "-m", "repro", "andrew", "--mode", "revised",
                       "--trace", "--check", "--out", "{out}/andrew"]),
    ("info", [PY, "-m", "repro", "info"]),
] + [("examples/" + name, [PY, "examples/" + name]) for name in (
    "andrew_run.py", "campus_operations.py", "chaos_day.py",
    "heterogeneous_campus.py", "quickstart.py", "security_acl.py",
    "software_release.py", "user_mobility.py")]

TIER1: Tuple[str, List[str]] = (
    "tier-1", [PY, "-m", "pytest", "tests/", "-q", "-p", "no:cacheprovider"])

# Installed in every traced interpreter.  A global trace function sees
# only "call" events (one per frame entered, and per generator resume)
# and returning None asks for no line events; cProfile's hook (the
# ledger's pass P) lives in the separate profile slot, so both run.
HOOK = '''\
import atexit, os, sys, tempfile, threading
_src = os.path.realpath(os.environ["REPRO_CENSUS_SRC"]) + os.sep
_out = os.environ["REPRO_CENSUS_OUT"]
_seen = set()
def _enter(frame, event, arg, _add=_seen.add):
    _add(frame.f_code)
def _dump():
    sys.settrace(None)
    rows = set()
    for code in _seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(_src):
            rows.add("%s\\t%d\\t%s" % (path[len(_src):], code.co_firstlineno,
                                      code.co_name))
    fd, _name = tempfile.mkstemp(suffix=".tsv", dir=_out)  # pids recur
    with os.fdopen(fd, "w") as handle:
        handle.write("\\n".join(sorted(rows)))
atexit.register(_dump)
threading.settrace(_enter)
sys.settrace(_enter)
'''


class Function(NamedTuple):
    path: str        # relative to src/, "/"-separated
    qualname: str
    first: int       # first decorator's line, else the def line
    line: int        # the def line
    lines: int       # ast span, decorators included


Entry = Tuple[str, int, str]   # (path, co_firstlineno, co_name)


def functions(src: str) -> List[Function]:
    """Every ``def`` under ``src``, nested ones and methods included."""
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(path, qualname, first, child.lineno,
                                      child.end_lineno - first + 1))
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for directory, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                full = os.path.join(directory, name)
                path = os.path.relpath(full, src).replace(os.sep, "/")
                with open(full) as handle:
                    visit(ast.parse(handle.read(), full), "", path)
    return sorted(found)


def entries(directory: str) -> Set[Entry]:
    """The entries the hook recorded into ``directory``, all processes."""
    seen: Set[Entry] = set()
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as handle:
            for row in handle.read().splitlines():
                path, line, code_name = row.split("\t")
                seen.add((path.replace(os.sep, "/"), int(line), code_name))
    return seen


def entered(funcs: Iterable[Function], seen: Set[Entry]) -> Set[Function]:
    """The functions ``seen`` enters.

    A code object names its function and its first line, which is the
    first decorator's line on Python 3.8 and later (a ``@property`` is
    entered at its decorator's line, not at its ``def``); any line from
    the first decorator to the ``def`` matches.
    """
    by_name: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for path, line, name in seen:
        by_name[path, name].append(line)
    return {func for func in funcs
            if any(func.first <= line <= func.line for line in
                   by_name.get((func.path, func.qualname.rsplit(".", 1)[-1]),
                               ()))}


def buckets(funcs: List[Function], shipped: Set[Entry],
            tested: Set[Entry]) -> Dict[str, List[Function]]:
    """Sort ``funcs`` into never entered / test-only / shipped."""
    ship = entered(funcs, shipped)
    test = entered(funcs, tested)
    sorted_: Dict[str, List[Function]] = {"never entered": [],
                                          "test-only": [], "shipped": []}
    for func in funcs:
        key = ("shipped" if func in ship else
               "test-only" if func in test else "never entered")
        sorted_[key].append(func)
    return sorted_


def hook_env(hook_dir: str, src: str, out: str) -> Dict[str, str]:
    """Write the hook into ``hook_dir``; the environment that loads it."""
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([hook_dir, src])
    env["REPRO_CENSUS_SRC"] = src
    env["REPRO_CENSUS_OUT"] = out
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_surface(argv: List[str], cwd: str, env: Dict[str, str],
                scratch: str) -> Tuple[int, str]:
    """Run one surface in ``cwd``; its exit status and why it failed: its
    first ``FAIL`` line (a smoke over its time budget under the hook),
    else its last output line."""
    command = [arg.format(python=sys.executable, out=scratch) for arg in argv]
    done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = done.stdout.strip().splitlines() or [""]
    return done.returncode, next((line for line in lines if "FAIL" in line),
                                 lines[-1])


def report(result: Dict[str, List[Function]]) -> None:
    total = sum(len(funcs) for funcs in result.values())
    lines = sum(func.lines for funcs in result.values() for func in funcs)
    print(f"src/: {total:,} functions, {lines:,} lines")
    for name, funcs in result.items():
        print(f"  {name:<14} {len(funcs):>5,} functions"
              f" {sum(func.lines for func in funcs):>7,} lines")
    for name in ("never entered", "test-only"):
        print(f"\n{name}:")
        for func in result[name]:
            print(f"  src/{func.path}:{func.line} {func.qualname}"
                  f" ({func.lines} lines)")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, symlinks=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks"))
        src = os.path.join(copy, "src")
        hook_dir = os.path.join(tmp, "hook")
        scratch = os.path.join(tmp, "scratch")
        os.makedirs(hook_dir)
        os.makedirs(scratch)
        seen: Dict[str, Set[Entry]] = {}
        for kind, runs in (("shipped", SURFACES), ("tested", [TIER1])):
            out = os.path.join(tmp, kind)
            os.makedirs(out)
            env = hook_env(hook_dir, src, out)
            for name, surface in runs:
                start = time.monotonic()
                status, last = run_surface(surface, copy, env, scratch)
                print(f"{name:<32} exit {status} {time.monotonic() - start:6.1f} s"
                      + (f"  ({last[:70]})" if status else ""), flush=True)
            seen[kind] = entries(out)
        result = buckets(functions(src), seen["shipped"], seen["tested"])
    print()
    report(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
