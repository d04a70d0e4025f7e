"""The function-entry census (``benchmarks/census.py``) on a toy package.

Two traced interpreters stand in for a shipped surface and for tier-1;
the census must sort the toy's functions into the right buckets, a
``@property`` included: its code object starts at the decorator's line,
not at its ``def``.
"""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "census", BENCHMARKS / "census.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()

TOY = textwrap.dedent('''\
    def shipped():
        return 1


    def tested():
        return 2


    def never():
        return 3


    class Box:
        @property
        def size(self):
            return 4

        @staticmethod
        def helper():
            return 5

        def outer(self):
            def inner():
                return 6
            return inner()
    ''')


def _traced(tmp_path, kind, script):
    """Run ``script`` under the census hook; the entries it recorded."""
    hook, out = tmp_path / f"hook-{kind}", tmp_path / kind
    hook.mkdir()
    out.mkdir()
    env = census.hook_env(str(hook), str(tmp_path / "src"), str(out))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=str(tmp_path))
    assert done.returncode == 3  # an exit status does not lose the record
    return census.entries(str(out))


def test_buckets_of_a_toy_package(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    funcs = census.functions(str(tmp_path / "src"))
    by_name = {func.qualname: func for func in funcs}
    assert set(by_name) == {"shipped", "tested", "never", "Box.size",
                            "Box.helper", "Box.outer",
                            "Box.outer.<locals>.inner"}
    size = by_name["Box.size"]
    assert (size.path, size.line - size.first, size.lines) == ("toy/mod.py", 1, 3)

    shipped = _traced(tmp_path, "shipped",
                      "import toy.mod as m; m.shipped(); m.Box().size;"
                      " raise SystemExit(3)")
    tested = _traced(tmp_path, "tested",
                     "import toy.mod as m; m.tested(); m.shipped();"
                     " m.Box().outer(); raise SystemExit(3)")
    # The property is entered at a line from its decorator to its def.
    [(path, line, _name)] = [entry for entry in shipped if entry[2] == "size"]
    assert path == "toy/mod.py" and size.first <= line <= size.line

    result = census.buckets(funcs, shipped, tested)
    assert {name: sorted(func.qualname for func in found)
            for name, found in result.items()} == {
        "never entered": ["Box.helper", "never"],
        "test-only": ["Box.outer", "Box.outer.<locals>.inner", "tested"],
        "shipped": ["Box.size", "shipped"],
    }
