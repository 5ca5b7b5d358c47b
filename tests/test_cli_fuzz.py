"""Fuzz the CLI in process with argv drawn from its grammar.

Each example is a well-formed request of one command, over n up to 60 and
up to three species flags (repeats included), that is then corrupted about
half of the time: one value replaced by a negative, huge, 5,000-digit or
malformed token, a token dropped, or an unknown or repeated flag inserted.
Every request must end with exit code 0, 1, 2 or 3, let no exception escape
main, and finish within DEADLINE_S.  Three species at most: an admitted
triangle suite of one to three of these species, n_max 2..12 and deg_max
0..4 took at most about 1.5 s in process (2-CPU Xeon, Python 3.11.7),
while four or more species admit suites of several seconds.
"""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from qhurwitz.cli import main

#: Past Python's 4300-digit limit on int() of text.
HUGE_DIGITS = "7" * 5000

#: Per-example wall bound, a little above the about 3 s that the cost
#: models admit.
DEADLINE_S = 4.0

SIZES = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 13, 45, 50, 60])
SPECIES = st.sampled_from(["E:q=1/2", "H:q=1/2", "H:p=1/5", "E':r=-1/3", "E:q=2/5"])
SMALL = st.integers(0, 4).map(str)
JUNK = st.sampled_from([
    HUGE_DIGITS, "-" + HUGE_DIGITS, str(10**18), str(-(10**9)), "-1", "0", "", "x", "1/2",
    "2.5", "1,,1", "3,-1", ";", "1;2;3", "H", "H:q", "Q:q=1/2", "H:q=1", "E:q=1/0",
    f"H:q=1/{HUGE_DIGITS}", "H:q=1e-30000000", "1e30000000", "H:q=1e4300", "H:q=1_0/31",
])


@st.composite
def partition(draw, n):
    parts = draw(st.sampled_from([(n,), (1,) * n, (n - 1, 1) if n > 1 else (1,),
                                  (2,) * (n // 2) + (1,) * (n % 2)]))
    return ",".join(map(str, parts))


@st.composite
def degree_text(draw, species):
    blocks = [
        ",".join(draw(SMALL) for s in species if s.startswith(prefix)) for prefix in ("E", "H")
    ]
    return ";".join(blocks) if all(blocks) or draw(st.booleans()) else "".join(blocks)


@st.composite
def request(draw):
    n = draw(SIZES)
    species = draw(st.lists(SPECIES, min_size=1, max_size=3))
    species_flags = [token for text in species for token in ("--species", text)]
    command = draw(st.sampled_from(["geometric", "combinatorial", "tau", "verify", "paths",
                                    "chartable"]))
    if command in ("geometric", "combinatorial"):
        return ["compute", command, "--n", str(n), "--mu", draw(partition(n)),
                "--nu", draw(partition(n)), *species_flags, "--degrees", draw(degree_text(species))]
    if command == "tau":
        args = ["compute", "tau", "--n", str(n), *species_flags,
                "--maxdeg", draw(degree_text(species))]
        if draw(st.booleans()):
            args += ["--mu", draw(partition(n))]
        if draw(st.booleans()):
            args += ["--N", draw(st.integers(-3, 3).map(str))]
        if draw(st.booleans()):
            args += ["--format", draw(st.sampled_from(["json", "csv"]))]
        return args
    if command == "verify":
        return ["verify", "triangle", "--n-max", str(draw(st.integers(2, 12))),
                "--deg-max", str(draw(st.integers(0, 4))), *species_flags]
    if command == "paths":
        return ["oracle", "paths", "--n", str(n), "--d", draw(SMALL),
                "--mu", draw(partition(n)), "--nu", draw(partition(n))]
    return ["chartable", "--n", str(n)]


@st.composite
def argv(draw):
    args = draw(request())
    corruption = draw(st.integers(0, 9))
    if corruption < 5:
        return args
    values = [i for i, token in enumerate(args) if i > 1 and not token.startswith("--")]
    if corruption < 8:
        args[draw(st.sampled_from(values))] = draw(JUNK)
    elif corruption == 8:
        del args[draw(st.integers(0, len(args) - 1))]
    else:
        flag = draw(st.sampled_from(["--bogus", "--species", "--n", "--mu", "--degrees"]))
        args[draw(st.integers(2, len(args))):0] = [flag, draw(JUNK)]
    return args


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_every_request_ends_with_a_documented_exit_code(args):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < DEADLINE_S, (args, elapsed)
