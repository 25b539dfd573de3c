"""The parameter tables of the command line: file values obey the same
types and choices as flags, the defaults the help text names are the ones
that run, a library call receives only the options the request set, and
a record's inputs echo exactly those options, so it re-feeds through
--input to the same output."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from bhthermo import cli
from bhthermo.cli import main
from bhthermo.evaporation import EmissionParameters

FORMATS = ("table", "json", "csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subparsers():
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subcommands")


class TestChoicesInFiles:
    SWEEP = ["sweep", "bh", "--param", "mass", "--start", "1e10", "--stop",
             "1e12", "--points", "3"]

    def test_bad_spacing_exits_2_in_a_file_and_as_a_flag(self, capsys, tmp_path):
        path = tmp_path / "sp.cfg"
        path.write_text("spacing=bogus\n")
        assert run(capsys, *self.SWEEP, "--input", str(path)) == (
            2, "", f"bhthermo sweep: bad value for 'spacing' in {path}: "
                   "invalid choice 'bogus'; choose from log, linear\n")
        assert run(capsys, *self.SWEEP, "--spacing", "bogus") == (
            2, "", "bhthermo sweep: error: argument --spacing: invalid choice: "
                   "'bogus' (choose from 'log', 'linear')\n")

    def test_bad_scenario_in_a_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "merger.cfg"
        path.write_text("scenario=mergers\nm1=1e15\nm2=1e15\n")
        code, out, err = run(capsys, "gedanken", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"bhthermo gedanken: bad value for 'scenario' in {path}: invalid "
            "choice 'mergers'; choose from susskind, capsule, infall, merger"]

    def test_a_positional_argument_is_no_file_key(self, capsys, tmp_path):
        path = tmp_path / "target.cfg"
        path.write_text("target=channel\n")
        code, out, err = run(capsys, *self.SWEEP, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"bhthermo sweep: unknown key 'target' in {path}\n"


#: Each "(default X)" a subcommand's help names, by subcommand and flag.
HELP_DEFAULTS = {
    ("evaporate", "--points"): "200",
    ("sweep", "--points"): "50",
    ("sweep", "--spacing"): "log",
    ("sweep", "--quantity"): "entropy",
}


def test_help_defaults_are_the_tables():
    found = {}
    for name, parser in _subparsers().items():
        rows = {p.dest: p for p in cli.SUBCOMMANDS[name][2]}
        for action in parser._actions:
            for text in re.findall(r"\(default ([^\s,)]+)[,)]", action.help or ""):
                found[name, action.option_strings[-1]] = text
                row = rows[action.dest]
                assert row.type(text) == row.default, (name, action.dest)
    assert found == HELP_DEFAULTS


SMOKE = Path(__file__).parents[1] / "scripts" / "runtime_smoke.sh"


def smoke_flags(script):
    """The flags of each subcommand that a request of the shell ``script``
    sets: the words from "--" after the first word naming a subcommand, on
    each line joined with its continuations.  A line inside a quoted string
    that spans lines is skipped."""
    flags = {}
    for line in re.sub(r"\\\n", " ", script.read_text()).splitlines():
        try:
            words = shlex.split(line, comments=True)
        except ValueError:          # an unclosed quote
            continue
        command = next((w for w in words if w in cli.SUBCOMMANDS), None)
        if command is not None:
            flags.setdefault(command, set()).update(
                w.partition("=")[0] for w in words[words.index(command):]
                if w.startswith("--"))
    return flags


def test_every_flag_is_set_by_a_smoke_request():
    # no flag without a run: each one left is set by some request of the
    # smoke script, for its own subcommand
    run = smoke_flags(SMOKE)
    unset = [f"{name} {p.flag}" for name, row in cli.SUBCOMMANDS.items()
             for p in row.parameters
             if p.flag.startswith("--") and p.flag not in run.get(name, ())]
    assert not unset, f"no smoke request sets {', '.join(unset)}"


def test_the_flag_reader_sees_continued_and_quoted_lines(tmp_path):
    script = tmp_path / "smoke.sh"
    script.write_text("""python -c 'import sys
sys.exit(0)'
refuse "bh --mass" channel --lambda-c 1 \\
    --power=2 --format "$fmt"  # --nu
""")
    assert smoke_flags(script) == {"channel": {"--lambda-c", "--power", "--format"}}


GEDANKEN_INFALL = ["gedanken", "--scenario", "infall", "--energy", "1e10",
                   "--radius", "1", "--entropy", "1"]
CHANNEL_SWEEP = ["sweep", "channel", "--start", "1e-6", "--stop", "1e-1",
                 "--points", "3"]


@pytest.mark.parametrize("argv, expected", [
    (["bounds", "--mass", "16", "--radius", "6"],
     [("bound_report", {"enclosing_area": None})]),
    (["bounds", "--mass", "16", "--radius", "6", "--zeta", "20"],
     [("bound_report", {"enclosing_area": None, "zeta": 20.0})]),
    (["bounds", "--mass", "16", "--radius", "6", "--area", "1000", "--nu", "1.2"],
     [("bound_report", {"enclosing_area": 1000.0, "nu": 1.2})]),
    (["evaporate", "--mass", "1e12", "--points", "3"],
     [("EmissionParameters", {})]),
    (["evaporate", "--mass", "1e12", "--points", "3", "--n-species", "2"],
     [("EmissionParameters", {"n_species": 2.0})]),
    (["channel", "--lambda-c", "1", "--power", "1e3"],
     [("EmissionParameters", {}),
      ("Channel", {"emission": EmissionParameters()})]),
    (["channel", "--lambda-c", "1", "--power", "1e3", "--n-carriers", "3",
      "--nu", "1.2"],
     [("EmissionParameters", {"nu": 1.2}),
      ("Channel", {"n_carriers": 3.0, "emission": EmissionParameters(nu=1.2)})]),
    (GEDANKEN_INFALL, [("EmissionParameters", {}), ("infall_experiment", ())]),
    (GEDANKEN_INFALL + ["--zeta", "20", "--gamma-bar", "3"],
     [("EmissionParameters", {"gamma_bar": 3.0}), ("infall_experiment", (20.0,))]),
    (CHANNEL_SWEEP + ["--param", "power", "--lambda-c", "5e-5"],
     [("EmissionParameters", {}), ("check_channels", {})]),
    (CHANNEL_SWEEP + ["--param", "lambda_c", "--power", "1e-3", "--n-carriers",
                      "3", "--n-species", "2"],
     [("EmissionParameters", {"n_species": 2.0}),
      ("check_channels", {"n_carriers": 3.0})]),
], ids=lambda x: " ".join(x) if isinstance(x[0], str) else None)
def test_a_library_call_receives_only_the_options_the_request_set(
        capsys, monkeypatch, argv, expected):
    """Each call of these library names in order, with its keyword
    arguments (for the infall, its positional ones after the system): an
    option the request left unset is not passed, so the library's own
    default applies."""
    calls = []

    def record(name, positional):
        func = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1:] if positional else kwargs))
            return func(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    for name in ("bound_report", "EmissionParameters", "Channel", "check_channels"):
        record(name, False)
    record("infall_experiment", True)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == expected


#: Requests and the inputs their JSON record echoes: exactly the options
#: each set, under its key, with the value it ran with, in the order of
#: the subcommand's parameters.  No default, library or literal, and no
#: value derived from another (an energy from --mass, a cutoff from
#: --frequency, a charge from its ratio, the sphere's area) is echoed.
ECHOES = [
    (["bh", "--mass", "1e15"], {"mass_g": 1e15}),
    (["bh", "--mass", "1e15", "--charge-over-m", "0.333333333333",
      "--spin-over-m", "0.4"],
     {"mass_g": 1e15, "charge_over_m": 0.333333333333, "spin_over_m": 0.4}),
    (["bh", "--mass", "1e15", "--charge", "1e3", "--spin", "1e-4"],
     {"mass_g": 1e15, "charge_esu": 1e3, "spin_erg_s": 1e-4}),
    (["evaporate", "--mass", "1e12"], {"mass_g": 1e12}),
    (["evaporate", "--mass", "1e12", "--points", "3", "--n-species", "3"],
     {"mass_g": 1e12, "points": 3, "n_species": 3.0}),
    (["bounds", "--mass", "16", "--radius", "6"], {"mass": 16.0, "radius": 6.0}),
    (["bounds", "--energy", "1e22", "--radius", "6", "--entropy", "1e3",
      "--area", "1000"],
     {"energy": 1e22, "radius": 6.0, "entropy": 1e3, "enclosing_area": 1000.0}),
    (["bounds", "--mass", "16", "--radius", "6", "--nu", "1.2", "--zeta", "20"],
     {"mass": 16.0, "radius": 6.0, "nu": 1.2, "zeta": 20.0}),
    (["channel", "--frequency", "5.99584916e14", "--power", "1e-3"],
     {"frequency": 5.99584916e14, "power": 1e-3}),
    (["channel", "--lambda-c", "5e-5", "--power", "1e-3", "--n-carriers", "3"],
     {"lambda_c": 5e-5, "power": 1e-3, "n_carriers": 3.0}),
    (["channel", "--lambda-c", "1", "--power", "1e3", "--nu", "1.2"],
     {"lambda_c": 1.0, "power": 1e3, "nu": 1.2}),
    (["channel", "--lambda-c", "5e-5", "--power", "1e-3", "--gamma-bar", "3",
      "--n-species", "2.5"],
     {"lambda_c": 5e-5, "power": 1e-3, "gamma_bar": 3.0, "n_species": 2.5}),
    (["sweep", "bh", "--param", "mass", "--start", "1e7", "--stop", "1e9",
      "--points", "7", "--spacing", "linear", "--charge", "1e3",
      "--quantity", "temperature_kelvin"],
     {"param": "mass", "start": 1e7, "stop": 1e9, "points": 7,
      "spacing": "linear", "quantity": "temperature_kelvin", "charge": 1e3}),
    (["sweep", "channel", "--param", "power", "--start", "1e-6", "--stop", "1e-1",
      "--lambda-c", "5e-5", "--n-species", "2"],
     {"param": "power", "start": 1e-6, "stop": 1e-1, "lambda_c": 5e-5,
      "n_species": 2.0}),
    (["gedanken", "--scenario", "susskind", "--energy", "1e30", "--radius", "1",
      "--entropy", "1", "--area", "20"],
     {"scenario": "susskind", "energy": 1e30, "radius": 1.0, "entropy": 1.0,
      "area": 20.0}),
    (["gedanken", "--scenario", "capsule", "--bh-mass", "1e30", "--bh-spin",
      "1e42", "--mu", "1", "--b", "1", "--s-cap", "1e30"],
     {"scenario": "capsule", "bh_mass": 1e30, "bh_spin": 1e42, "mu": 1.0,
      "b": 1.0, "s_cap": 1e30}),
    (["gedanken", "--scenario", "infall", "--mass", "1e-10", "--radius", "1",
      "--entropy", "1", "--zeta", "10", "--gamma-bar", "3"],
     {"scenario": "infall", "mass": 1e-10, "radius": 1.0, "entropy": 1.0,
      "zeta": 10.0, "gamma_bar": 3.0}),
    (["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius", "1",
      "--entropy", "1", "--bh-mass", "1e30"],
     {"scenario": "infall", "energy": 1e10, "radius": 1.0, "entropy": 1.0,
      "bh_mass": 1e30}),
    (["gedanken", "--scenario", "merger", "--m1", "1e15", "--m2", "2e15"],
     {"scenario": "merger", "m1": 1e15, "m2": 2e15}),
]


@pytest.mark.parametrize("argv, echoed", ECHOES, ids=lambda x: " ".join(x)
                         if isinstance(x, list) else None)
@pytest.mark.parametrize("how", ["flags", "file"])
def test_a_record_echoes_the_options_set_and_re_feeds(capsys, tmp_path, argv,
                                                      echoed, how):
    words = argv[:2] if argv[0] == "sweep" else argv[:1]
    if how == "file":       # the same options, set through a key=value file
        flags = argv[len(words):]
        path = tmp_path / "request.cfg"
        path.write_text("".join(f"{flag[2:]}={value}\n"
                                for flag, value in zip(flags[::2], flags[1::2])))
        argv = [*words, "--input", str(path)]
    code, record, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    inputs = json.loads(record)["inputs"]
    assert list(inputs.items()) == list(echoed.items())
    assert list(map(type, inputs.values())) == list(map(type, echoed.values()))
    # re-fed, the record sets the same options: the same output in every format
    path = tmp_path / "record.json"
    path.write_text(record)
    for fmt in FORMATS:
        expected = run(capsys, *argv, "--format", fmt)
        assert expected[0] == 0
        assert run(capsys, *words, "--input", str(path), "--format", fmt) == expected


def test_unset_charge_and_spin_are_zero(capsys, monkeypatch):
    """The literal defaults of a hole's charge and spin, in bh, sweep bh
    and the capsule scenario, are the library's own: q = j = 0."""
    calls = []

    def record(name):
        func = getattr(cli, name)

        def wrapper(masses, q=0.0, j=0.0):
            calls.append((name, q, j))
            return func(masses, q, j)
        monkeypatch.setattr(cli, name, wrapper)
    record("horizon_columns")
    record("make_black_hole")
    assert run(capsys, "bh", "--mass", "1e15")[0] == 0
    assert run(capsys, "sweep", "bh", "--param", "mass", "--start", "1e15",
               "--stop", "1e18", "--points", "3")[0] == 0
    assert run(capsys, "gedanken", "--scenario", "capsule", "--bh-mass", "1e30",
               "--mu", "1", "--b", "1", "--s-cap", "1e30")[0] == 0
    assert calls == [("make_black_hole", 0.0, 0.0), ("horizon_columns", 0.0, 0.0),
                     ("make_black_hole", 0.0, 0.0)]


#: A valid request of each gedanken scenario, and a value for each
#: parameter any scenario reads (another one where the request sets it).
SCENARIOS = {
    "susskind": ["--energy", "1e30", "--radius", "1", "--entropy", "1"],
    "capsule": ["--bh-mass", "1e30", "--mu", "1", "--b", "1", "--s-cap", "1e30"],
    "infall": ["--energy", "1e10", "--radius", "1", "--entropy", "1"],
    "merger": ["--m1", "1e15", "--m2", "1e15"],
}
OTHER_VALUES = {
    "energy": "2e30", "mass": "1e9", "radius": "2", "entropy": "2",
    "area": "100", "bh_mass": "2e30", "bh_charge": "1e25", "bh_spin": "1e42",
    "mu": "2", "b": "2", "s_cap": "2e30", "zeta": "20", "m1": "2e15",
    "m2": "3e15", "nu": "1.2", "gamma_bar": "3", "n_species": "2",
}
GEDANKEN_ROWS = {p.dest: p for p in cli.SUBCOMMANDS["gedanken"][2]}


def _with(argv, flag, value):
    """argv with ``flag`` set to ``value``, replaced if argv sets it."""
    if flag in argv:
        i = argv.index(flag)
        return [*argv[:i + 1], value, *argv[i + 2:]]
    return [*argv, flag, value]


def test_the_scenario_table_names_every_scenario_and_parameter():
    assert tuple(cli.GEDANKEN_SCENARIOS) == GEDANKEN_ROWS["scenario"].choices
    read = {d for dests in cli.GEDANKEN_SCENARIOS.values() for d in dests}
    assert read == set(GEDANKEN_ROWS) - {"scenario"} == set(OTHER_VALUES)


@pytest.mark.parametrize("scenario, dest", [
    (scenario, dest) for scenario, dests in cli.GEDANKEN_SCENARIOS.items()
    for dest in dests])
def test_a_scenario_reads_each_parameter_it_lists(capsys, scenario, dest):
    argv = ["gedanken", "--scenario", scenario, *SCENARIOS[scenario],
            "--format", "json"]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    changed = run(capsys, *_with(argv, GEDANKEN_ROWS[dest].flag,
                                 OTHER_VALUES[dest]))
    assert "does not read" not in changed[2]
    assert changed != expected


@pytest.mark.parametrize("scenario, dest", [
    (scenario, dest) for scenario, dests in cli.GEDANKEN_SCENARIOS.items()
    for dest in OTHER_VALUES if dest not in dests])
@pytest.mark.parametrize("how", ["flag", "file"])
def test_a_parameter_the_scenario_never_reads_exits_2(capsys, tmp_path,
                                                      scenario, dest, how):
    flag = GEDANKEN_ROWS[dest].flag
    argv = ["gedanken", "--scenario", scenario, *SCENARIOS[scenario]]
    if how == "flag":
        argv += [flag, OTHER_VALUES[dest]]
    else:
        path = tmp_path / "extra.cfg"
        path.write_text(f"{dest}={OTHER_VALUES[dest]}\n")
        argv += ["--input", str(path)]
    assert run(capsys, *argv) == (
        2, "", f"bhthermo gedanken: scenario {scenario} does not read {flag}\n")


SWEEPS = {
    "bh": ["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop",
           "1e18", "--points", "3"],
    "channel": ["sweep", "channel", "--param", "power", "--start", "1e-6",
                "--stop", "1e-1", "--points", "3", "--lambda-c", "5e-5"],
}


@pytest.mark.parametrize("target, param", [
    ("bh", p) for p in cli.SWEEP_CHANNEL] + [("channel", p) for p in cli.SWEEP_BH],
    ids=lambda x: getattr(x, "flag", x))
@pytest.mark.parametrize("how", ["flag", "file"])
def test_a_parameter_the_sweep_target_never_reads_exits_2(capsys, tmp_path,
                                                          target, param, how):
    value = "entropy" if param.type is str else "2"
    argv = SWEEPS[target]
    if how == "flag":
        argv = [*argv, param.flag, value]
    else:
        path = tmp_path / "extra.cfg"
        path.write_text(f"{param.dest}={value}\n")
        argv = [*argv, "--input", str(path)]
    assert run(capsys, *argv) == (
        2, "", f"bhthermo sweep: target {target} does not read {param.flag}\n")


def test_every_sweep_target_parameter_is_accepted(capsys):
    for target, rows in (("bh", cli.SWEEP_BH), ("channel", cli.SWEEP_CHANNEL)):
        for param in rows:
            if param.dest == "power":       # the swept parameter, below
                continue
            value = "entropy" if param.type is str else "1.5"
            code, out, err = run(capsys, *SWEEPS[target], param.flag, value)
            assert (code, err) == (0, ""), (target, param.flag)


@pytest.mark.parametrize("argv, message", [
    (SWEEPS["channel"] + ["--power", "1"], "a power sweep does not read --power"),
    (["sweep", "channel", "--param", "lambda_c", "--start", "1e-5", "--stop",
      "1e-3", "--points", "3", "--power", "1e-3", "--lambda-c", "5e-5"],
     "a lambda_c sweep does not read --lambda-c"),
])
def test_a_fixed_value_of_the_swept_parameter_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"bhthermo sweep: {message}\n")


def test_infall_with_a_host_hole_reads_no_zeta(capsys):
    argv = ["gedanken", "--scenario", "infall", *SCENARIOS["infall"],
            "--bh-mass", "1e30"]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--zeta", "10") == (
        2, "", "bhthermo gedanken: infall with --bh-mass does not read --zeta\n")


@pytest.mark.parametrize("flag", ["--nu", "--gamma-bar"])
def test_evaporate_takes_no_emission_factor_but_the_species(capsys, tmp_path,
                                                            flag):
    argv = ["evaporate", "--mass", "1e12", "--points", "5"]
    code, out, err = run(capsys, *argv, flag, "1.9")
    assert (code, out) == (2, "")
    assert err == f"bhthermo: error: unrecognized arguments: {flag} 1.9\n"
    path = tmp_path / "emission.cfg"
    path.write_text(f"{flag[2:]}=1.9\n")
    assert run(capsys, *argv, "--input", str(path)) == (
        2, "", f"bhthermo evaporate: unknown key '{flag[2:]}' in {path}\n")
    # the species count still reaches the mass loss
    assert run(capsys, *argv, "--n-species", "2")[1] != run(capsys, *argv)[1]
