"""The failure-mode contract of ``cli.main``, driven by random arguments.

Every run ends one of two ways: exit 0 with finite output (strict JSON,
no nan or inf token in a table or CSV), or exit 1 or 2 with one stderr
line and nothing on stdout.  An exception escaping ``main`` is a
traceback and fails the test.
"""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from bhthermo.cli import (BH_SWEEP_QUANTITIES, FORMATS, build_parser, main,
                          parse_request)

NON_FINITE = re.compile(r"(?i)(?<![a-z_])(nan|inf|infinity)(?![a-z_])")


def _subcommands():
    """Subcommand -> its parser, read from the parser itself."""
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subcommands")


SUBCOMMANDS = _subcommands()

#: A valid request of each kind, which the strategy below perturbs: each
#: flag is kept, dropped or given a random value, and other flags of the
#: subcommand are added with random values.
VALID = [
    ["constants"],
    ["bh", "--mass", "1e15", "--charge-over-m", "0.5", "--spin-over-m", "0.5"],
    ["evaporate", "--mass", "1e15", "--points", "50"],
    ["bounds", "--mass", "16", "--radius", "6", "--entropy", "1e3"],
    ["gedanken", "--scenario", "susskind", "--energy", "1e30", "--radius", "1",
     "--entropy", "1"],
    ["gedanken", "--scenario", "capsule", "--bh-mass", "1e30", "--mu", "1",
     "--b", "1", "--s-cap", "1e30"],
    ["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius", "1",
     "--entropy", "1", "--zeta", "10"],
    ["gedanken", "--scenario", "merger", "--m1", "1e15", "--m2", "1e15"],
    ["channel", "--lambda-c", "5e-5", "--power", "1e-3"],
    ["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18",
     "--points", "50", "--quantity", "entropy"],
    ["sweep", "channel", "--param", "power", "--start", "1e-6", "--stop", "1e-1",
     "--points", "50", "--lambda-c", "5e-5"],
    ["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius", "1",
     "--entropy", "1", "--bh-mass", "1e30"],
]

#: Values near the physical scales of the subcommands next to every float
#: hypothesis draws, NaN and the infinities among them.
#: The float range's ends are among them: the least subnormal and normal,
#: where a quotient underflows to 0, and the greatest finite magnitudes.
TYPICAL = [0.0, 0.5, 1.0, 1.5, 2.0, 10.0, 1e-3, 5e-5, 1e-6, 1e5, 1e15, 1e20,
           1e30, 2e33, 1e-300, 1e300, 5e-324, 2.2e-308, 1e-303, 1e-154, 1e154,
           1.7e308]
floats = st.one_of(st.sampled_from(TYPICAL),
                   st.sampled_from(TYPICAL).map(lambda x: -x),
                   st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                   st.floats())
STR_VALUES = {
    "param": st.sampled_from(["mass", "power", "lambda_c", "charge"]),
    "quantity": st.sampled_from(sorted(BH_SWEEP_QUANTITIES) + ["volume"]),
}


def values(action):
    """Strategy for the text of one option's value."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-2, 1000).map(str)
    if action.type is float:
        return floats.map(repr)
    return STR_VALUES[action.dest]


@st.composite
def argvs(draw):
    valid = draw(st.sampled_from(VALID))
    words = 2 if valid[0] == "sweep" else 1     # the subcommand and its target
    argv = valid[:words]
    given_values = dict(zip(valid[words::2], valid[words + 1::2]))
    for action in SUBCOMMANDS[valid[0]]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in (None, "--help", "--input", "--format"):
            continue
        if flag in given_values:
            how = draw(st.sampled_from(["keep"] * 4 + ["drop", "random"]))
        else:
            how = draw(st.sampled_from(["drop"] * 4 + ["random"]))
        if how == "drop":
            continue
        value = given_values[flag] if how == "keep" else draw(values(action))
        # "--flag -1e5" is a usage error (the value looks like an option),
        # "--flag=-1e5" is a value
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv + ["--format", draw(st.sampled_from(FORMATS))]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# E/c^2 underflows to 0 for this energy, so hole mass / rest mass divides by 0
@example(["gedanken", "--scenario", "infall", "--energy", "1e-303", "--radius", "1",
          "--entropy", "1", "--format", "table"])
# a host hole of 1e30 g has M/R underflow to 0 at this radius
@example(["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius", "1e250",
          "--entropy", "1", "--bh-mass", "1e30", "--format", "table"])
# r_plus^2 fits a float but 4 pi r_plus^2 does not: T and h2 divided by inf
@example(["bh", "--mass", "5e181", "--format", "table"])
def test_every_run_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exits {code}")
    if code == 0:
        assert err == ""
        assert out.endswith("\n")
        if argv[-1] == "json":
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert not NON_FINITE.search(out), out
    else:
        assert code in (1, 2)
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith("bhthermo")


def _agrees_with_argparse(argv):
    """Whether the table parse reads ``argv``; where it does, it must give
    the namespace argparse gives, NaN equal to NaN."""
    table = parse_request(argv)
    if table is None:
        return False
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(build_parser().parse_args(argv))
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv}") from None
    assert vars(table).keys() == expected.keys()
    for dest, value in vars(table).items():
        nan = value != value and expected[dest] != expected[dest]
        assert value == expected[dest] or nan, dest
    return True


SWEEP_BH = ["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18"]


@pytest.mark.parametrize("argv, read", [
    (["bh", "--mass=1e15"], False),
    (["bh", "--mas", "1e15"], False),
    (["sweep", "--param", "mass", "bh", "--start", "1e15", "--stop", "1e18"], False),
    (["bh", "--mass", "-1e5"], True),
    (["bh", "--mass", "-inf"], False),
    (["bh", "--mass"], False),
    (["--format", "json", "bh", "--mass", "1e15"], True),
    (["bh", "--mass", "1e15", "--format", "csv", "--format", "json"], True),
    (["bh", "--mass", "1", "--mass", "1e15", "--input", "in.cfg"], True),
    (["-h"], False),
    (["bh", "-h"], False),
    (["--"], False),
    (["bh", "--", "--mass", "1e15"], False),
    ([], False),
    (["--format", "json"], False),
    (["constants", "--input", "in.cfg"], False),
    (["sweep", "bh"], True),
    (["sweep"], False),
    (["sweep", "bh", "target", "channel"], False),
    ([*SWEEP_BH, "--spacing", "cubic"], False),
    ([*SWEEP_BH, "--points", "1e3"], False),
    (["--format", "xml", "bh", "--mass", "1e15"], False),
    (["gedanken", "--scenario", "merger", "--m1", "nan"], True),
])
def test_the_table_parse_reads_its_shape_only(argv, read):
    # help, --flag=value, abbreviations, --, a missing, dashed or bad value
    # and a misplaced target are left to argparse
    assert _agrees_with_argparse(argv) == read


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_the_table_parse_agrees_with_argparse(argv):
    event("read" if _agrees_with_argparse(argv) else "left to argparse")


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["evaporate", "--mass", "1e12", "--points", "3", "--n-species", "3",
          "--format", "table"])
@example(["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18",
          "--points", "5", "--format", "csv"])
@example(["sweep", "channel", "--param", "power", "--start", "1e-6", "--stop",
          "1e-1", "--points", "5", "--lambda-c", "5e-5", "--format", "json"])
@example(["gedanken", "--scenario", "merger", "--m1", "1e15", "--m2", "2e15",
          "--format", "table"])
def test_every_record_re_feeds_to_the_same_output(argv):
    # the JSON record of an exit-0 request, fed back through --input (a
    # sweep's target stays on the command line), prints what the request
    # prints in every format; constants reads no --input
    request = argv[:-2]
    words = request[:2] if request[0] == "sweep" else request[:1]
    code, record, _ = _run([*request, "--format", "json"])
    event(f"{request[0]} exits {code}")
    if code != 0 or request[0] == "constants":
        return
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "record.json")
        with open(path, "w") as fh:
            fh.write(record)
        for fmt in FORMATS:
            assert _run([*words, "--input", path, "--format", fmt]) == _run(
                [*request, "--format", fmt]), fmt


def _emitted_kind(argv):
    code, out, _ = _run([*argv, "--format", "json"])
    assert code == 0
    return json.loads(out)["kind"]


def _input_request(valid):
    """A valid request's subcommand words, the kind of record it emits and
    its flags as the inputs of a JSON record."""
    words = 2 if valid[0] == "sweep" else 1
    flags = valid[words:]
    return (valid[:words], _emitted_kind(valid),
            {flag[2:]: value for flag, value in zip(flags[::2], flags[1::2])})


#: The valid requests of the subcommands that take --input.
INPUT_REQUESTS = [_input_request(valid) for valid in VALID if valid[0] != "constants"]
KINDS = sorted({kind for _, kind, _ in INPUT_REQUESTS})

#: JSON values, and values that cannot be one of a request's parameters.
scalars = st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                    st.text(max_size=8))
containers = st.one_of(st.lists(scalars, max_size=3),
                       st.dictionaries(st.text(max_size=4), scalars, max_size=3))


@st.composite
def bad_input_files(draw):
    """(argv without --input, kind it emits, text of an --input JSON file
    that the request must refuse, which shape)."""
    words, kind, inputs = draw(st.sampled_from(INPUT_REQUESTS))
    shape = draw(st.sampled_from(["top level", "inputs", "other kind", "deep"]))
    if shape == "top level":     # a list, bool, number or string
        text = json.dumps(draw(st.one_of(scalars, st.lists(scalars, max_size=3))))
    elif shape == "inputs":      # an object of non-scalar values, array, null or bool
        keys = st.sampled_from([*inputs, "target", "kind", "mass_g"])
        value = draw(st.one_of(st.dictionaries(keys, containers, max_size=3),
                               st.lists(scalars, max_size=3), st.none(), st.booleans()))
        text = json.dumps({"inputs": value})
    elif shape == "other kind":  # a valid request's inputs under another kind
        other = draw(st.one_of(st.sampled_from(KINDS), st.text(max_size=12), scalars)
                     .filter(lambda k: k != kind))
        text = json.dumps({"kind": other, "inputs": inputs})
    else:                        # nested deeper than 1,100 levels
        depth = draw(st.integers(1_101, 20_000))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
        nest = opener * depth + ("0" if opener != "[" else "") + closer * depth
        text = draw(st.sampled_from([nest, f'{{"inputs": {nest}}}']))
    return words, kind, text, shape


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bad_input_files(), st.sampled_from(FORMATS))
@example((["bh"], "black_hole",
          json.dumps({"kind": "channel_capacity", "inputs": {"mass_g": 1e15}}),
          "other kind"), "table")
@example((["channel"], "channel_capacity",
          '{"inputs": ' + "[" * 1100 + "]" * 1100 + "}", "deep"), "json")
def test_a_bad_input_file_is_one_line_and_exit_2(request, fmt):
    # the file is refused before anything is computed, whatever the format
    words, kind, text, shape = request
    event(shape)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = _run([*words, "--input", path, "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith(f"bhthermo {words[0]}: ") and err.count("\n") == 1, err
    assert err.endswith("\n")
    if shape == "other kind":
        assert repr(kind) in err


@pytest.mark.parametrize("words, kind, inputs", INPUT_REQUESTS)
def test_a_record_of_its_own_kind_loads(words, kind, inputs):
    # with the kind the subcommand emits, or none, the record is read
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        expected = _run([*words, "--format", "json",
                         *(x for k, v in inputs.items() for x in (f"--{k}", v))])
        assert expected[0] == 0
        for record in ({"kind": kind, "inputs": inputs}, {"inputs": inputs}, inputs):
            with open(path, "w") as fh:
                json.dump(record, fh)
            assert _run([*words, "--input", path, "--format", "json"]) == expected
