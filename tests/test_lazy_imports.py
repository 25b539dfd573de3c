"""Cold start: the package and the command line load a formula module only
when a request needs it, and the lazily loaded names behave as the eagerly
imported ones did.

Which modules a request loads can only be seen in a fresh interpreter, so
these tests run their probes in subprocesses.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

import bhthermo
from bhthermo import cli

SRC = os.path.dirname(os.path.dirname(bhthermo.__file__))
REPO = os.path.dirname(SRC)
PERFBENCH = os.path.join(REPO, "perfbench")


def _probe(code: str, *argv: str) -> object:
    """Run ``code`` in a fresh interpreter with ``argv`` as sys.argv[1:];
    its last stdout line is a Python literal, returned evaluated."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")])))
    env.pop("BHTHERMO_FORMAT", None)
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


#: Runs cli.main on sys.argv[1:] with its output discarded, then prints the
#: exit code and which modules the run loaded.
FOOTPRINT = """
import io, sys
from bhthermo import cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print((code, sorted(m for m in sys.modules if m.split(".")[0] == "bhthermo"),
       sorted({"argparse", "dataclasses", "inspect", "json", "numpy", "scipy"}
              & sys.modules.keys())))
"""

BASE = ["bhthermo", "bhthermo.cli", "bhthermo.constants", "bhthermo.document",
        "bhthermo.errors"]
#: bhthermo.X for each formula module a request loads beyond BASE.
HOLE = ["kerr_newman"]
CHANNEL = ["channel", "evaporation"]


@pytest.mark.parametrize("argv, modules", [
    (["constants"], []),
    (["--help"], []),
    (["bh", "--help"], []),
    (["bh", "--mass", "1e15"], HOLE),
    (["bh", "--mass", "1e-10"], HOLE),
    (["bh", "--mass"], []),
    (["evaporate", "--mass", "1e12", "--points", "10"], ["evaporation", "grids"]),
    (["bounds", "--mass", "16", "--radius", "6"], ["bounds"]),
    (["gedanken", "--scenario", "merger", "--m1", "1e15", "--m2", "1e15"],
     ["bounds", "evaporation", "gedanken", *HOLE]),
    (["channel", "--lambda-c", "5e-5", "--power", "1e-3"], CHANNEL),
    (["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18"],
     ["grids", *HOLE]),
    (["sweep", "channel", "--param", "power", "--start", "1e-6", "--stop",
      "1e-1", "--lambda-c", "5e-5"], ["grids", *CHANNEL]),
])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_request_loads_only_its_modules(argv, modules, fmt):
    code, loaded, others = _probe(FOOTPRINT, *argv, "--format", fmt)
    refused = argv[-1] == "--mass"          # a flag without its value
    assert code == (2 if refused else 1 if "1e-10" in argv else 0)
    assert loaded == sorted({*BASE, *(f"bhthermo.{m}" for m in modules)})
    # json only for JSON output; never argparse, not even for help or a
    # usage error, nor numpy, scipy, dataclasses or the inspect module
    writes_json = fmt == "json" and code == 0 and "--help" not in argv
    assert others == ["json"] * writes_json


def test_package_import_loads_no_submodule():
    code = ("import sys, bhthermo; "
            "print(sorted(m for m in sys.modules if m.startswith('bhthermo')))")
    assert _probe(code) == ["bhthermo"]


#: Sets a name on the package before its module loads, then reads another
#: name of that module, the grids module and an unknown name; prints what
#: each read gave.
PACKAGE = """
import sys, bhthermo
fresh = not {"bhthermo.kerr_newman", "bhthermo.grids"} & sys.modules.keys()
double = bhthermo.entropy = object()
from_module = bhthermo.temperature is sys.modules["bhthermo.kerr_newman"].temperature
grids = bhthermo.grids.__name__
try:
    bhthermo.no_such_name
except AttributeError as exc:
    unknown = str(exc)
print((fresh, bhthermo.entropy is double, from_module, grids, unknown))
"""


def test_the_package_keeps_the_lazy_contract_of_the_cli():
    # the package's names come from the loader the cli module uses
    fresh, kept, from_module, grids, unknown = _probe(PACKAGE)
    assert fresh
    assert kept                 # a name set earlier survives the module's load
    assert from_module
    assert grids == "bhthermo.grids"
    assert unknown == "module 'bhthermo' has no attribute 'no_such_name'"


#: Wraps every formula name the cli module calls by name, plus the grids,
#: on the cli module before any request used it; runs one request per
#: subcommand; prints the names whose wrapper ran and those no longer set.
#: With "read" each wrapper wraps the value read from cli (perfbench's
#: traced replay); with "set" it wraps the defining module's own function,
#: so cli has bound nothing when the wrapper is set (a test double).
CONTRACT = """
import io, sys
sys.path.insert(0, sys.argv[2])
from workloads import CLI_IMPORTS
from bhthermo import cli
names = sorted({*CLI_IMPORTS, "linspace", "geomspace", "mass_history"})
called = set()

def wrap(name, func):
    def wrapper(*args, **kwargs):
        called.add(name)
        return func(*args, **kwargs)
    return wrapper

wrappers = {}
for name in names:
    if sys.argv[1] == "read":
        func = getattr(cli, name)
    else:
        home = "bhthermo." + cli._LAZY_HOME[name]
        __import__(home)
        func = getattr(sys.modules[home], name)
    wrappers[name] = wrap(name, func)
    setattr(cli, name, wrappers[name])
codes = []
sys.stdout = io.StringIO()
for argv in [
        ["constants"],
        ["bh", "--mass", "1e15", "--charge-over-m", "0.3"],
        ["evaporate", "--mass", "1e12", "--points", "10"],
        ["bounds", "--mass", "16", "--radius", "6"],
        ["gedanken", "--scenario", "susskind", "--energy", "1e30",
         "--radius", "1", "--entropy", "1"],
        ["gedanken", "--scenario", "capsule", "--bh-mass", "1e30", "--mu", "1",
         "--b", "1", "--s-cap", "1e30"],
        ["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius",
         "1", "--entropy", "1"],
        ["gedanken", "--scenario", "merger", "--m1", "1e15", "--m2", "1e15"],
        ["channel", "--lambda-c", "5e-5", "--power", "1e-3"],
        ["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18"],
        ["sweep", "channel", "--param", "power", "--start", "1e-6",
         "--stop", "1e-1", "--lambda-c", "5e-5", "--spacing", "linear"]]:
    codes.append(cli.main(argv))
sys.stdout = sys.__stdout__
print((codes, sorted(set(names) - called),
       sorted(n for n in names if getattr(cli, n) is not wrappers[n])))
"""


@pytest.mark.parametrize("how", ["read", "set"])
def test_names_set_before_first_use_are_the_ones_called(how):
    codes, never_called, replaced = _probe(CONTRACT, how, PERFBENCH)
    assert codes == [0] * 11
    assert never_called == []
    assert replaced == []


def test_every_public_name_is_its_submodules_object():
    submodules = [getattr(bhthermo, m) for m in
                  ("bounds", "channel", "constants", "errors", "evaporation",
                   "gedanken", "grids", "kerr_newman")]
    for name in bhthermo.__all__:
        value = getattr(bhthermo, name)
        assert (value in submodules
                or any(getattr(m, name, None) is value for m in submodules)), name


def test_star_import_and_dir_give_the_eager_packages_names():
    # The names an eager `from .x import ...` of every formula module bound:
    # the 47 public names and the eight formula submodules.
    expected = {
        "BlackHole", "BoundEntry", "BoundReport", "CODATA2018", "CONSTANTS",
        "CapacityReport", "Channel", "ConsistencyReport", "DomainError",
        "EmissionParameters", "EntropyLedger", "FirstLawPotentials",
        "GedankenReport", "MaterialSystem", "NakedSingularityError",
        "PhysicalConstants", "SubPlanckMassError", "bound_report",
        "capacity_bound", "capsule_lowering", "characteristic_power",
        "compositeness", "consistency_check", "drop_distance",
        "energy_temperature_to_kelvin", "entropy", "geometrized_charge",
        "geometrized_mass", "gour_bound", "h_factors", "hawking_power",
        "holographic_bound", "horizon_area", "infall_experiment", "lifetime",
        "make_black_hole", "mean_density", "merger", "nats_to_bits",
        "optimal_xi", "pendry_capacity", "potentials", "susskind_collapse",
        "temperature", "universal_bound", "weak_gravity_ratio",
        "weak_universal_bound",
        "bounds", "channel", "constants", "errors", "evaporation", "gedanken",
        "grids", "kerr_newman",
    }
    namespace: dict = {}
    exec("from bhthermo import *", namespace)
    assert set(namespace) - {"__builtins__"} == expected
    # `cli`, and the `document` it imports, are public only once imported,
    # as `cli` was with the eager package
    public = {n for n in dir(bhthermo) if not n.startswith("_")} - {"cli", "document"}
    assert public == expected
    assert bhthermo.__version__ == "0.1.0"


def _names_read(path: str) -> set[str]:
    """The names the code of the module at ``path`` reads, as a ``Name`` or
    as an ``Attribute``, outside the function or class of the same name.
    An import, an assignment, a docstring or another string reads none."""
    read = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in defining:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    with open(path) as fh:
        visit(ast.parse(fh.read(), path), frozenset())
    return read


def test_every_public_name_has_a_caller_outside_the_tests():
    # no code without a caller: the package's own modules, the benchmark or
    # the scripts read each public name, so no name is kept for its tests
    paths = [path for path in glob.glob(os.path.join(SRC, "bhthermo", "*.py"))
             if os.path.basename(path) != "__init__.py"]
    paths += glob.glob(os.path.join(PERFBENCH, "*.py"))
    paths += glob.glob(os.path.join(REPO, "scripts", "*.py"))
    read = set().union(*map(_names_read, paths))
    uncalled = sorted(set(bhthermo.__all__) - {*bhthermo._SUBMODULES} - read)
    assert not uncalled, f"only the tests call {', '.join(uncalled)}"


def _trees(*patterns: str) -> list[ast.AST]:
    trees = []
    for pattern in patterns:
        for path in glob.glob(pattern):
            with open(path) as fh:
                trees.append(ast.parse(fh.read(), path))
    return trees


PACKAGE_FILES = os.path.join(SRC, "bhthermo", "*.py")
#: The code outside the tests: the package, the benchmark and the scripts.
CALLER_FILES = (PACKAGE_FILES, os.path.join(PERFBENCH, "*.py"),
                os.path.join(REPO, "scripts", "*.py"))


def _name(node: ast.AST) -> str | None:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def test_every_parameter_default_is_left_out_by_a_caller():
    # a default that every caller overrides is a second statement of the
    # value the callers pass, which only the tests can tell apart
    defaults = {}       # (function, parameter) -> its position, None if keyword-only
    for tree in _trees(PACKAGE_FILES):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    defaults[node.name, positional[i].arg] = i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        defaults[node.name, arg.arg] = None
    left_out = set()
    for tree in _trees(*CALLER_FILES):
        called = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called.add(id(node.func))
            unpacks = (any(isinstance(arg, ast.Starred) for arg in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            given = {kw.arg for kw in node.keywords}
            left_out |= {(function, param) for (function, param), i in defaults.items()
                         if function == _name(node.func) and (unpacks or (
                             param not in given
                             and (i is None or i >= len(node.args))))}
        # a function passed on as a value is called with whatever its
        # receiver gives, as perfbench's plans pass mass_history
        passed = {_name(node) for node in ast.walk(tree) if id(node) not in called
                  and isinstance(getattr(node, "ctx", None), ast.Load)}
        left_out |= {key for key in defaults if key[0] in passed}
    overridden = sorted(f"{function}({param}=)" for function, param
                        in defaults.keys() - left_out)
    assert not overridden, f"every caller sets {', '.join(overridden)}"


#: Value-type fields that no code outside the tests reads by name, each
#: with the reason it is kept.
FIELDS_READ_OTHERWISE = {
    # written into the bounds section by position, each entry's e[1:]
    "BoundEntry.name", "BoundEntry.limit_nats", "BoundEntry.limit_bits",
    "BoundEntry.applicable", "BoundEntry.applicability_reason",
    # written whole into the consistency section by _asdict()
    "ConsistencyReport.f0_limit", "ConsistencyReport.f_inf",
    "ConsistencyReport.monotone_ok", "ConsistencyReport.caveat_flagged",
    "ConsistencyReport.pendry_crossover_power",
    # the release distance itself, the value drop_distance exists to return
    "DropDistanceCheck.distance",
}


def test_every_value_type_field_is_read_outside_the_tests():
    fields = set()      # "Class.field" of each NamedTuple's own fields
    for tree in _trees(PACKAGE_FILES):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "NamedTuple" in map(_name, node.bases):
                fields |= {f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)}
    read = {node.attr for tree in _trees(*CALLER_FILES) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(field for field in fields - FIELDS_READ_OTHERWISE
                    if field.partition(".")[2] not in read)
    assert not unread, f"only the tests read {', '.join(unread)}"
    assert FIELDS_READ_OTHERWISE <= fields


@pytest.mark.parametrize("module", [bhthermo, cli])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
