"""Fuzz the CLI's error contract (paper App. B: the executable is the front end).

Each subcommand runs through ``main(argv)``: a small valid base command
followed by up to four flags drawn from pools that mix good and bad values
(a later flag overrides the base's).  The pools hold distances, rounds,
shots, seeds and label limits around their minimums; rates and scales
including ``nan``, ``inf``, negatives and values above 1; window/commit/
shot-shard combinations; unknown operation, noise, profile and arrangement
names; and ``--json`` paths that are a directory or sit in a missing
directory.  Flags with argparse ``choices`` draw only their choices, so
argparse never exits, and ``--jobs`` stays at most 1, so no process pool
starts.

Whatever the input, nothing escapes ``main`` and it returns 0 or 2.  A 2
leaves stdout ending in one non-empty error line with no traceback, and a
value that is bad on its own (a negative ``--max-labels``, an unknown
``--op``, ``--resume`` without ``--checkpoint``, ...) always exits 2.
Values that fail only in combination (``--noise nope`` when ``--rates`` is
also given, a window not above the default commit) may exit either way.
Stdout is captured with ``contextlib.redirect_stdout`` because Hypothesis
rejects function-scoped fixtures such as ``capsys``.
"""

from __future__ import annotations

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.decode.base import available_decoders

#: Stands for the module's scratch directory in drawn paths.
TMP = "<tmp>"


def split(values, ok) -> tuple[st.SearchStrategy, st.SearchStrategy]:
    """``(fine, bad)`` pools: ``values`` that pass ``ok`` and those that fail it."""
    fine = [v for v in values if ok(v)]
    bad = [v for v in values if not ok(v)]
    return st.sampled_from(fine), st.sampled_from(bad) if bad else st.nothing()


def flag(name, fine, bad=st.nothing(), nargs=False) -> st.SearchStrategy:
    """``(tokens, bad)``: ``[name, value]`` (one or two values with ``nargs``)
    drawn from ``fine`` and ``bad`` values, and whether any drawn value is bad.

    A ``fine`` value may still fail in combination; a ``bad`` one must exit 2.
    """
    pool = st.one_of(fine.map(lambda v: (v, False)), bad.map(lambda v: (v, True)))
    drawn = st.lists(pool, min_size=1, max_size=2 if nargs else 1)
    return drawn.map(lambda vs: ([name, *(str(v) for v, _ in vs)], any(b for _, b in vs)))


def switch(name: str, bad: bool = False) -> st.SearchStrategy:
    return st.just(([name], bad))


def base(command: str) -> st.SearchStrategy:
    return st.just((command.split(), False))


PATCH = split(range(-1, 6), lambda d: d >= 2)
CODE = split(range(-1, 6), lambda d: d >= 3 and d % 2 == 1)
ROUNDS = split(range(-1, 3), lambda r: r >= 1)
SEEDS = split([-1, 0, 7], lambda s: s >= 0)
RATES = split(
    ["0", "1e-3", "0.02", "1", "1.5", "-0.1", "nan", "inf"], lambda p: 0 <= float(p) <= 1
)
SCALES = split(["0", "0.5", "1", "3", "-1", "nan", "inf"], lambda s: 0 <= float(s) < math.inf)
OPS = split(
    ["Idle", "MeasureZ", "MeasureZZ", "BellPrepare", "Move", "CNOT", "Bogus"],
    lambda op: op != "Bogus",
)
PROFILES = split(
    ["baseline", "slow_junction", "nope", f"{TMP}/missing.toml"],
    lambda p: p in ("baseline", "slow_junction"),
)
ARRANGEMENTS = split(
    ["standard", "Rotated", "FLIPPED", "rotated_flipped", "bogus"], lambda a: a != "bogus"
)
NOISES = st.sampled_from(["near_term", "ideal", "projected", "nope"])
JSON_PATHS = split(
    [TMP, f"{TMP}/missing/out.json", f"{TMP}/out.json"], lambda p: p == f"{TMP}/out.json"
)
JOBS = split(range(-1, 2), lambda j: j >= 1)
BASES = st.sampled_from(["Z", "X"])
DECODERS = st.sampled_from(available_decoders())

COMPILE_FLAGS = {
    "--op": flag("--op", *OPS),
    "--dx": flag("--dx", *PATCH),
    "--dz": flag("--dz", *PATCH),
    "--rounds": flag("--rounds", *ROUNDS),
    "--seed": flag("--seed", *SEEDS),
    "--profile": flag("--profile", *PROFILES),
}

#: Subcommand -> (valid base command, drawable flags).
COMMANDS = {
    "compile": (
        base("compile --op Idle --dx 2 --dz 2 --rounds 1"),
        {
            **COMPILE_FLAGS,
            **{f: switch(f) for f in ("--resources", "--timings", "--simulate", "--simd")},
        },
    ),
    "sample": (
        base("sample --op MeasureZ --dx 2 --dz 2 --rounds 1 --shots 5 --outcomes"),
        {
            **COMPILE_FLAGS,
            "--shots": flag("--shots", *split(range(-1, 21), lambda n: n >= 1)),
            "--max-labels": flag("--max-labels", *split(range(-3, 4), lambda n: n >= 0)),
            "--fast": switch("--fast"),
        },
    ),
    "render": (
        base("render --dx 2 --dz 2"),
        {
            "--dx": flag("--dx", *PATCH),
            "--dz": flag("--dz", *PATCH),
            "--arrangement": flag("--arrangement", *ARRANGEMENTS),
            "--profile": flag("--profile", *PROFILES),
        },
    ),
    "sweep": (
        base("sweep --op Idle --distances 2 --rounds 1"),
        {
            "--op": flag("--op", *OPS),
            "--distances": flag("--distances", *PATCH, nargs=True),
            "--rounds": flag("--rounds", *ROUNDS),
            "--profile": flag("--profile", *PROFILES),
            "--jobs": flag("--jobs", *JOBS),
            "--simd": switch("--simd"),
            "--resume": switch("--resume", bad=True),  # there is no --checkpoint
        },
    ),
    "lfr": (
        base("lfr --distances 3 --shots 20 --rounds 1"),
        {
            "--distances": flag("--distances", *CODE, nargs=True),
            "--rates": flag("--rates", *RATES, nargs=True),
            "--noise": flag("--noise", NOISES),
            "--scales": flag("--scales", *SCALES, nargs=True),
            "--shots": flag("--shots", *split(range(-1, 21), lambda n: n >= 2)),
            "--basis": flag("--basis", BASES),
            "--rounds": flag("--rounds", *ROUNDS),
            "--seed": flag("--seed", *SEEDS),
            "--engine": flag("--engine", st.sampled_from(["frame", "tableau"])),
            "--decoder": flag("--decoder", DECODERS),
            "--window": flag("--window", *split([-1, 1, 2, 4, 9], lambda w: w >= 2)),
            "--commit": flag("--commit", *split([0, 1, 3, 8], lambda c: c >= 1)),
            "--shot-shards": flag("--shot-shards", *split(range(3), lambda n: n >= 1)),
            "--json": flag("--json", *JSON_PATHS),
            "--profile": flag("--profile", *PROFILES),
            "--jobs": flag("--jobs", *JOBS),
            "--simd": switch("--simd"),
            "--resume": switch("--resume", bad=True),  # there is no --checkpoint
        },
    ),
    "dem": (
        base("dem --distance 3 --rounds 1"),
        {
            "--distance": flag("--distance", *CODE),
            "--basis": flag("--basis", BASES),
            "--rounds": flag("--rounds", *ROUNDS),
            "--rate": flag("--rate", *RATES),
            "--noise": flag("--noise", NOISES),
            "--decoder": flag("--decoder", DECODERS),
            "--json": flag("--json", *JSON_PATHS),
            "--profile": flag("--profile", *PROFILES),
            "--stats": switch("--stats"),
        },
    ),
    "profiles show": (
        flag("show", *PROFILES).map(lambda drawn: (["profiles", *drawn[0]], drawn[1])),
        {"--json": switch("--json")},
    ),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-fuzz"))


@pytest.mark.parametrize("name", list(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bad_input_exits_2_with_one_line(name, data, scratch):
    command, flags = COMMANDS[name]
    argv, bad = data.draw(command, label="command")
    for chosen in data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        tokens, bad_value = data.draw(flags[chosen], label=chosen)
        argv, bad = argv + tokens, bad or bad_value
    argv = [token.replace(TMP, scratch) for token in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert code in ((2,) if bad else (0, 2)), (argv, code, text[-300:])
    assert "Traceback" not in text, argv
    if code == 2:
        assert text.endswith("\n") and text.splitlines()[-1].strip(), (argv, text)
