"""A property test of the CLI's input surface: argv drawn from the alphabets
of the number and configuration grammars, and from near-misses of them,
either exits 0 or exits 2 with a message of the CLI's own, within 0.5 s."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from kummerlat import cli

# pieces of numbers, with near-misses: doubled or misplaced marks, other
# separators, a non-ASCII digit and the 4300-digit edges
NUMBER_PIECES = ["0", "1", "2", "3", "9", "24", "_", "/", ".", "e", "E", "+", "-", " ", "4300",
                 "4301", "x", ",", "٣", "\t", "9" * 4300]
CONFIG_PIECES = ["A", "D", "E", "a", "0", "1", "2", "3", "4", "6", "8", "9", "19", "20", "+", " ",
                 "-", "_", "x", "99999999999999999999", "9" * 4300]
# appended flags: a repeated or value-less option, an unknown one, a stray word
EXTRA = st.lists(st.sampled_from(["--json", "--m", "--max-rank", "--config", "--e1", "-", "--", "x"]),
                 max_size=2)


def pieces(alphabet: list[str], max_size: int) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_size).map("".join)


# numbers at the edges: an empty text, 4300 digits, and values of 4301
EDGES = ["", "1e4300", "1e-4300", "1e4301", "9" * 4300, "1" + "0" * 4300, "1/" + "7" * 4300, "5e4299"]
numbers = st.one_of(pieces(NUMBER_PIECES, 6), st.sampled_from(EDGES),
                    st.fractions(0, 30, max_denominator=12).map(str),
                    st.decimals(0, 30, places=2).map(str))
# valid configurations, most of them of rank above 19; counts of 4300 digits
# give a rank or an m of 4301
counts = st.one_of(st.integers(1, 9), st.sampled_from([10**19, 10**4300 - 1]))
terms = st.tuples(counts, st.sampled_from(["A1", "A2", "A3", "A7", "D4", "D5", "E6", "E8"]))
configs = st.one_of(pieces(CONFIG_PIECES, 6), st.lists(terms, min_size=1, max_size=3).map(
    lambda ts: "+".join(f"{c if c > 1 else ''}{t}" for c, t in ts)))
max_ranks = st.one_of(st.integers(-2, 19).map(str), st.sampled_from(["", "x", "1.5", "1_9", " 7 ", "+3"]))
# the lieberman group takes nonzero 2-torsion points
halves = st.one_of(st.sampled_from(["0", "1/2", "-1/2", "1", "3/2", "0.5", "5e-1"]), numbers)

census = st.builds(lambda m, r, extra: ["census", "--m", m, "--max-rank", r, *extra], numbers, max_ranks, EXTRA)
obstruct = st.builds(lambda c, extra: ["obstruct", "--config", c, *extra], configs, EXTRA)
torus = st.builds(lambda x1, y1, x2, y2, extra: ["torus", "--group", "lieberman", "--e1", f"{x1},{y1}",
                                                 "--e2", f"{x2},{y2}", *extra],
                  halves, halves, halves, halves, EXTRA)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(census, obstruct, torus))
def test_cli_exits_0_or_2_with_its_own_message(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Exceeds the limit" not in err.getvalue()
    assert elapsed < 0.5, argv
