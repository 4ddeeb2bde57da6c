"""Import boundary: a call loads only the modules it runs, the package's
public names resolve on first access, no module imports a name it does not
use, every private module-level name is read somewhere in the package, and
every public name is read in the package or named in the README.

Every load check runs in a fresh interpreter, since the test process has
long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ctrect

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(ctrect.__file__).resolve().parent.parent)
HEAVY = ("ctrect.verify", "ctrect.polynomials", "concurrent.futures", "multiprocessing")
PRINT_LOADED = f"import json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports ``ctrect`` from this
    checkout, and return the JSON value on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [["validate", "--kind", "ct", str(FIXTURES / "ct_u.txt")], ["rho", str(FIXTURES / "ct_u.txt")]],
)
def test_tableau_commands_load_no_harness_or_pool(argv):
    code = f"from ctrect.cli import main\nassert main({argv!r}) == 0\n{PRINT_LOADED}"
    assert run_fresh(code) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rectify", "--kind", "ct", "--cells", "3", str(FIXTURES / "ct_phi3_input.txt")],
        ["eviction", "--cells", "3", str(FIXTURES / "rssyt_eviction.txt")],
    ],
)
def test_ct_rectify_commands_load_no_slides(argv):
    code = (
        f"import json, sys\nfrom ctrect.cli import main\nassert main({argv!r}) == 0\n"
        "print(json.dumps('ctrect.jeu_de_taquin' in sys.modules))"
    )
    assert run_fresh(code) is False


# rho, rho-inv and evacuate share one handler, which loads only the module of
# the function its command applies.
@pytest.mark.parametrize(
    "command, fixture, unused",
    [
        ("rho", "ct_u.txt", ["ctrect.jeu_de_taquin", "ctrect.ct_rectify"]),
        ("rho-inv", "rssyt_t.txt", ["ctrect.jeu_de_taquin", "ctrect.ct_rectify"]),
        ("evacuate", "rssyt_evac_input.txt", ["ctrect.bijection", "ctrect.ct_rectify"]),
    ],
)
def test_shared_handler_loads_only_its_commands_module(command, fixture, unused):
    argv = [command, str(FIXTURES / fixture)]
    code = (
        f"import json, sys\nfrom ctrect.cli import main\nassert main({argv!r}) == 0\n"
        f"print(json.dumps([m for m in {unused!r} if m in sys.modules]))"
    )
    assert run_fresh(code) == []


# Each record is a namedtuple subclass and JSON is read or written only on
# request, so a text call loads neither ``dataclasses`` (with the ``inspect``
# it pulls in) nor ``json``.
LAZY = ("dataclasses", "inspect", "json")


def loaded_by(code: str):
    """The modules of LAZY that ``code`` loads, run in a fresh interpreter."""
    return run_fresh(
        "import sys\nbefore = set(sys.modules)\n"
        f"{code}\n"
        f"loaded = [m for m in {LAZY!r} if m in sys.modules and m not in before]\n"
        "import json\nprint(json.dumps(loaded))"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--kind", "ct", str(FIXTURES / "ct_u.txt")],
        ["rho", str(FIXTURES / "ct_u.txt")],
        ["rho-inv", str(FIXTURES / "rssyt_t.txt")],
        ["rectify", "--kind", "rssyt", "--cells", "3", str(FIXTURES / "rssyt_eviction.txt")],
        ["rectify", "--kind", "rssyt", "--cells", "3", "--trace", str(FIXTURES / "rssyt_eviction.txt")],
        ["rectify", "--kind", "ct", "--cells", "3", str(FIXTURES / "ct_phi3_input.txt")],
        ["rectify", "--kind", "ct", "--cells", "3", "--trace", str(FIXTURES / "ct_phi3_input.txt")],
        ["eviction", "--cells", "3", str(FIXTURES / "rssyt_eviction.txt")],
        ["evacuate", str(FIXTURES / "rssyt_evac_input.txt")],
        ["expand", "schur", "2,1", "--vars", "3"],
        ["verify", "--property", "roundtrip", "--max-cells", "2", "--max-entry", "2"],
    ],
)
def test_text_calls_load_no_dataclasses_inspect_or_json(argv):
    assert loaded_by(f"from ctrect.cli import main\nassert main({argv!r}) == 0") == []


def test_verify_module_loads_no_dataclasses():
    assert "dataclasses" not in loaded_by("import ctrect.verify")


def test_json_input_and_output_still_work():
    code = """
import contextlib, io, json, sys
from ctrect.cli import main
sys.stdin = io.StringIO('{"rows": [[2, 2], [3, 1]]}')
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["rho", "--json"])
print(json.dumps([code, out.getvalue()]))
"""
    assert run_fresh(code) == [0, '{"rows": [[3, 2], [2, 1]]}\n']


def test_serial_verify_loads_no_pool():
    code = (
        "from ctrect.verify import run_property\n"
        "assert run_property('roundtrip', 2, 2, jobs=1).ok\n" + PRINT_LOADED
    )
    assert run_fresh(code) == ["ctrect.verify", "ctrect.polynomials"]


def test_verify_on_one_usable_cpu_loads_no_pool():
    # One worker per usable CPU by default, and one worker runs in-process.
    code = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from ctrect.verify import run_property\n"
        "assert run_property('roundtrip', 2, 2).ok\n" + PRINT_LOADED
    )
    assert run_fresh(code) == ["ctrect.verify", "ctrect.polynomials"]


def test_public_names_resolve_to_their_module_attributes():
    code = """
import importlib, json
import ctrect
names = list(ctrect.__all__)
first = {n: getattr(ctrect, n) for n in names}
wrong = [
    n for n in names
    if first[n] is not getattr(importlib.import_module("ctrect." + ctrect._MODULE_OF[n]), n)
]
print(json.dumps({"names": names, "wrong": wrong}))
"""
    out = run_fresh(code)
    assert out["wrong"] == []
    assert len(out["names"]) == len(set(out["names"])) == 50
    assert {"rho", "phi", "Filling", "parse_int", "run_property", "PROPERTY_NAMES"} <= set(out["names"])


def test_dir_lists_the_public_names_before_they_are_loaded():
    assert "rho" in dir(ctrect)
    code = 'import json, ctrect\nprint(json.dumps(["rho" in dir(ctrect), "rho" in vars(ctrect)]))'
    assert run_fresh(code) == [True, False]


def test_star_and_submodule_imports():
    code = """
import json
from ctrect import verify
from ctrect import *
import ctrect
print(json.dumps({
    "submodule": verify.__name__,
    "star": sorted(set(ctrect.__all__) - set(globals())),
    "same": run_property is verify.run_property,
}))
"""
    assert run_fresh(code) == {"submodule": "ctrect.verify", "star": [], "same": True}


def test_unknown_name_raises_attribute_error():
    code = """
import json
import ctrect
try:
    ctrect.no_such_name
    print(json.dumps(None))
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert run_fresh(code) == "module 'ctrect' has no attribute 'no_such_name'"


def test_src_imports_only_the_standard_library():
    # The package's own modules are imported relatively, so every absolute
    # import names a top-level module that must come with Python.
    outside = []
    for path in sorted(Path(ctrect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_reads_library_names_off_the_package():
    # The package's ``__getattr__`` is the one place that knows which module
    # holds a name: the CLI imports none of its sibling modules and keeps no
    # table of module paths of its own.
    tree = ast.parse(Path(ctrect.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert relative == []
    assert names.isdisjoint({"_MAPS", "import_module"})


def unused_imports(source: str) -> list[str]:
    """Names bound by an ``import`` statement anywhere in ``source`` that no
    expression of the module reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_an_unused_name():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", sorted(Path(SRC, "ctrect").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private functions, classes and constants bound at the top level of
    any of ``sources`` that no expression in any of them reads, as a name or
    an attribute; dunders such as ``__getattr__`` are exempt."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        name
        for name in defined
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")) and name not in read
    ]


def test_unread_private_names_finds_an_unread_name():
    source = (
        "def _kept(): pass\ndef _dropped(): pass\ndef __getattr__(name): pass\n"
        "class _Unused: pass\n_LIMIT, _seen = 3, 1\n_typed: int = 2\npublic = _kept() + _seen\n"
    )
    assert unread_private_names([source]) == ["_dropped", "_Unused", "_LIMIT", "_typed"]
    # A read in another module, as a name or an attribute, counts.
    assert unread_private_names([source, "from m import _LIMIT\n_LIMIT\nm._typed\n"]) == ["_dropped", "_Unused"]


def test_every_private_name_is_read_in_the_package():
    paths = sorted(Path(SRC, "ctrect").glob("*.py"))
    assert unread_private_names([path.read_text(encoding="utf-8") for path in paths]) == []


def unread_public_names(sources: list[str], readme: str, names: list[str]) -> list[str]:
    """The ``names`` that no expression in ``sources`` reads, as a name or
    an attribute, and no inline code span of ``readme`` names; then, as
    ``Class.attr``, each public attribute defined in the body of a top-level
    class among ``names`` that no expression reads as an attribute and
    ``readme`` does not name as ``Class.attr`` in a code span.

    Reads match by name alone, not by the object read: ``args.cells`` in
    the CLI would count as a read of a ``Filling.cells``, so an unread
    attribute that shares its name with one read elsewhere slips past."""
    trees = [ast.parse(source) for source in sources]
    bare, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    spans = " ".join(re.findall(r"`([^`]+)`", prose))
    read = bare | attributes
    unread = [name for name in names if name not in read and not re.search(rf"\b{name}\b", spans)]
    for tree in trees:
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in names):
                continue
            defined = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    defined += [t.id for t in targets if isinstance(t, ast.Name)]
            unread += [
                f"{node.name}.{attr}"
                for attr in defined
                if not attr.startswith("_")
                and attr not in attributes
                and not re.search(rf"\b{node.name}\.{attr}\b", spans)
            ]
    return unread


def test_unread_public_names_finds_an_unread_name():
    source = (
        "class Kept:\n    size: int\n    limit = 1\n    def used(self): pass\n    def unread(self): pass\n"
        "    def _private(self): pass\n    def __len__(self): return 0\n"
        "class Dropped: pass\ndef shown(): pass\ndef helper(): pass\nKept().used()\nhelper()\n"
    )
    readme = "Call `shown()`, or read `Kept.size`.\n\n```sh\nDropped Kept.limit\n```\n"
    names = ["Kept", "Dropped", "shown", "helper"]
    assert unread_public_names([source], readme, names) == ["Dropped", "Kept.limit", "Kept.unread"]
    # An attribute read counts for a name too, and a read of an attribute
    # counts for every class that defines one of that name.
    assert unread_public_names([source, "m.Dropped\nargs.unread\n"], readme, names) == ["Kept.limit"]


def test_every_public_name_is_read_in_the_package_or_named_in_the_readme():
    # ``__init__`` only maps the names to their modules, so its reads do not count.
    paths = [path for path in sorted(Path(SRC, "ctrect").glob("*.py")) if path.name != "__init__.py"]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    assert unread_public_names(sources, README.read_text(encoding="utf-8"), list(ctrect.__all__)) == []
