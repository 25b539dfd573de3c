"""The parameter tables of the command line: file values obey the same
types and choices as flags, the defaults the help text names are the ones
that run, and every emitted record of bh, evaporate, bounds and channel
re-feeds through --input to the same output."""

import argparse
import json
import re

import pytest

from bhthermo import cli
from bhthermo.cli import main

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
    ("bounds", "--composite-threshold"): "10",
    ("bounds", "--weak-gravity-threshold"): "1e-2",
    ("sweep", "--points"): "50",
    ("sweep", "--spacing"): "log",
    ("sweep", "--quantity"): "entropy",
}


def test_help_defaults_are_the_tables():
    cli._load(*cli._LAZY_IMPORTS)
    found = {}
    for name, parser in _subparsers().items():
        rows = {p.dest: p for p in cli.SUBCOMMANDS[name][2]}
        for action in parser._actions:
            for text in re.findall(r"\(default ([^\s,)]+)[,)]", action.help or ""):
                found[name, action.option_strings[-1]] = text
                row = rows[action.dest]
                assert row.type(text) == row.default_value(), (name, action.dest)
    assert found == HELP_DEFAULTS


#: Requests whose JSON record holds every parameter they ran with.
REFEED = [
    ["bh", "--mass", "1e15"],
    ["bh", "--mass", "1e15", "--charge-over-m", "0.333333333333",
     "--spin-over-m", "0.4"],
    ["evaporate", "--mass", "1e12"],
    ["bounds", "--mass", "16", "--radius", "6"],
    ["bounds", "--energy", "1e22", "--radius", "6", "--entropy", "1e3",
     "--area", "1000"],
    ["channel", "--frequency", "5.99584916e14", "--power", "1e-3"],
    ["channel", "--lambda-c", "5e-5", "--power", "1e-3", "--n-carriers", "3"],
    # set optional parameters are echoed, so these re-feed too
    ["channel", "--lambda-c", "1", "--power", "1e3", "--nu", "1.2"],
    ["channel", "--lambda-c", "5e-5", "--power", "1e-3", "--gamma-bar", "3",
     "--n-species", "2.5"],
    ["bounds", "--mass", "16", "--radius", "6", "--nu", "1.2", "--zeta", "20",
     "--composite-threshold", "1e40", "--weak-gravity-threshold", "0.2"],
]


@pytest.mark.parametrize("argv", REFEED, ids=" ".join)
@pytest.mark.parametrize("fmt", FORMATS)
def test_an_emitted_record_re_feeds(capsys, tmp_path, argv, fmt):
    code, record, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    path = tmp_path / "record.json"
    path.write_text(record)
    expected = run(capsys, *argv, "--format", fmt)
    assert expected[0] == 0
    assert run(capsys, argv[0], "--input", str(path), "--format", fmt) == expected


@pytest.mark.parametrize("argv, echoed", [
    (["channel", "--lambda-c", "1", "--power", "1e3", "--nu", "1.2"],
     {"nu": 1.2}),
    (["channel", "--lambda-c", "1", "--power", "1e3", "--gamma-bar", "3",
      "--n-species", "2"], {"gamma_bar": 3.0, "n_species": 2.0}),
    (["bounds", "--mass", "16", "--radius", "6", "--nu", "1.2", "--zeta", "20",
      "--composite-threshold", "5", "--weak-gravity-threshold", "0.2"],
     {"nu": 1.2, "zeta": 20.0, "composite_threshold": 5.0,
      "weak_gravity_threshold": 0.2}),
])
def test_set_optional_parameters_are_echoed(capsys, tmp_path, argv, echoed):
    code, out, err = run(capsys, *argv, "--format", "json")
    inputs = json.loads(out)["inputs"]
    assert {k: inputs[k] for k in echoed} == echoed
    # the same values given through a key=value file are echoed too
    path = tmp_path / "optional.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in echoed.items()))
    code, out, err = run(capsys, *argv[:5], "--input", str(path),
                         "--format", "json")
    assert {k: json.loads(out)["inputs"][k] for k in echoed} == echoed


@pytest.mark.parametrize("argv, keys", [
    (["channel", "--lambda-c", "1", "--power", "1e3"],
     ["lambda_c", "power", "n_carriers"]),
    (["bounds", "--mass", "16", "--radius", "6"],
     ["energy", "radius", "enclosing_area"]),
])
def test_unset_optional_parameters_are_not_echoed(capsys, argv, keys):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert list(json.loads(out)["inputs"]) == keys


def test_unset_charge_and_spin_are_zero(capsys, monkeypatch):
    """The literal defaults of a hole's charge and spin, in bh, sweep bh
    and the capsule scenario, are the library's own: q = j = 0."""
    inputs = json.loads(run(capsys, "bh", "--mass", "1e15", "--format",
                            "json")[1])["inputs"]
    assert (inputs["charge_esu"], inputs["spin_erg_s"]) == (0.0, 0.0)
    calls = []

    def record(name):
        func = getattr(cli, name)

        def wrapper(masses, q=0.0, j=0.0):
            calls.append((name, q, j))
            return func(masses, q, j)
        monkeypatch.setattr(cli, name, wrapper)
    record("horizon_columns")
    record("make_black_hole")
    assert run(capsys, "sweep", "bh", "--param", "mass", "--start", "1e15",
               "--stop", "1e18", "--points", "3")[0] == 0
    assert run(capsys, "gedanken", "--scenario", "capsule", "--bh-mass", "1e30",
               "--mu", "1", "--b", "1", "--s-cap", "1e30")[0] == 0
    assert calls == [("horizon_columns", 0.0, 0.0), ("make_black_hole", 0.0, 0.0)]
