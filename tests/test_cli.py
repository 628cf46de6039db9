import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from kummerlat import cli, torus
from kummerlat.ade import _MAX_DIGITS as N  # the int/str digit limit: 4300 in test names and ids
from test_cli_golden import TORUS_GROUPS

CLI = [sys.executable, "-m", "kummerlat"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = SRC + os.pathsep + full_env.get("PYTHONPATH", "")
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env
    )


def test_census_text():
    res = run_cli("census", "--m", "24", "--max-rank", "19")
    assert res.returncode == 0
    assert "total: 18" in res.stdout


def test_census_json():
    res = run_cli("census", "--m", "24", "--max-rank", "19", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["count"] == 18
    assert data["m"] == "24/1"
    assert all(cfg["m"] == "24/1" for cfg in data["configs"])


def test_census_minimal():
    res = run_cli("census", "--m", "3/2", "--max-rank", "19", "--json")
    data = json.loads(res.stdout)
    assert data["count"] == 1
    assert data["configs"][0]["A"] == {"1": 1}


def test_census_12_9():
    res = run_cli("census", "--m", "12", "--max-rank", "9")
    assert "8A1" in res.stdout
    assert "3A1+2A3" in res.stdout


def test_kummer_q8hat_json():
    res = run_cli("kummer", "--group", "Q8hat", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["index"] == 16
    assert data["disc_K"] == [2, 4, 4]
    assert data["root_pairs_F"] == 37
    assert data["root_pairs_K"] == 37
    assert data["roots_equal"] is True
    assert len(data["even_sets"]) == 3


def test_kummer_t24hat_json():
    res = run_cli("kummer", "--group", "T24hat", "--json")
    data = json.loads(res.stdout)
    assert data["index"] == 3
    assert data["disc_K"] == [6, 12, 12]
    assert data["root_pairs_K"] == 39


def test_kummer_z2():
    res = run_cli("kummer", "--group", "Z2", "--json")
    data = json.loads(res.stdout)
    assert data["config"] == "16A1"
    assert data["rank"] == 16
    assert data["index"] is None


def test_obstruct_excluded():
    res = run_cli("obstruct", "--config", "11A1+2A3", "--json")
    assert res.returncode == 0  # Excluded is data, not an error
    data = json.loads(res.stdout)
    assert data["verdict"] == "Excluded"


def test_obstruct_unobstructed():
    res = run_cli("obstruct", "--config", "16A1", "--json")
    data = json.loads(res.stdout)
    assert data["verdict"] == "NoObstructionFound"


def test_obstruct_C3_cover():
    res = run_cli("obstruct", "--config", "5A1+A3+A7+D4", "--json")
    data = json.loads(res.stdout)
    assert data["verdict"] == "Excluded"
    covers = [s for s in data["steps"] if s["kind"] == "CoverRankExceeds"]
    assert any("2A7" in s["cover_config"] and s["cover_rank"] == "20" for s in covers)


@pytest.mark.parametrize(
    "config,rank",
    [("20A1", 20), ("25A1", 25), ("A30", 30)]
    + [(f"{c}A1", c) for c in (20000000, 999999999, 99999999999999999999)],
)
def test_obstruct_rank_above_19_excluded_at_once(config, rank):
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["obstruct", "--config", config, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out.getvalue())
    assert data["verdict"] == "Excluded"
    assert data["steps"] == [{"kind": "RankExceeds", "rank": str(rank), "rank_limit": "19"}]
    assert elapsed < 0.5


TOTALITY_SCRIPT = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import inspect
import kummerlat
from kummerlat import RankLimitExceeded, parse_config

def takes_config(fn):
    params = list(inspect.signature(fn).parameters.values())
    return bool(params) and params[0].annotation == "ADEConfig"

names = sorted(
    name for name in kummerlat.__all__
    if inspect.isfunction(getattr(kummerlat, name)) and takes_config(getattr(kummerlat, name))
)
out = []
for text in sys.argv[1:]:
    config = parse_config(text)
    for name in names:
        args = (config, ()) if name == "double_cover_transform" else (config,)
        start = time.perf_counter()
        try:
            getattr(kummerlat, name)(*args)
            outcome = "returned"
        except RankLimitExceeded:
            outcome = "refused"
        except Exception as exc:  # MemoryError and RecursionError included
            outcome = type(exc).__name__
        out.append([text, name, outcome, time.perf_counter() - start])
print(json.dumps(out))
"""


def test_config_functions_total_under_memory_cap():
    # every public function of a configuration returns or refuses rank > 19
    # at once, with the address space of the child capped at 1 GB
    texts = ["99999999999999999999A1", "A40", "A2000", "20A1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", TOTALITY_SCRIPT, *texts],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert sorted({name for _, name, _, _ in rows}) == [
        "check_nonexistence",
        "double_cover_transform",
        "dynkin",
        "even_set_candidates",
        "gram",
        "m_value",
        "max_disjoint_curves",
        "required_even_sets",
        "three_divisible_candidates",
    ]
    returned = {(text, name) for text, name, outcome, _ in rows if outcome == "returned"}
    assert returned == {
        (text, name) for text in texts for name in ("check_nonexistence", "m_value")
    } | {("99999999999999999999A1", "required_even_sets"), ("20A1", "required_even_sets")}
    assert {outcome for _, _, outcome, _ in rows} == {"returned", "refused"}
    assert max(elapsed for _, _, _, elapsed in rows) < 0.5


def _main_stdout(*argv):
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("count", [20000000, 999999999, 99999999999999999999])
def test_obstruct_huge_count_text_excluded_at_once(count):
    # rank and m come from the (n, count) pairs, never from a list of components
    code, text, elapsed = _main_stdout("obstruct", "--config", f"{count}A1")
    assert code == 0
    assert text.splitlines() == [
        f"configuration {count}A1: m = {Fraction(3 * count, 2)}, rank = {count}",
        "verdict: Excluded",
        f"  [RankExceeds] rank={count}, rank_limit=19",
    ]
    assert elapsed < 0.5


@pytest.mark.parametrize("m", ["3/2", "6", "12"])
def test_census_huge_max_rank_matches_small(m):
    # no component of rank above m fits, so any max rank >= m gives one census
    code, text, elapsed = _main_stdout("census", "--m", m, "--max-rank", "100000000", "--json")
    assert code == 0
    small_rank = str(2 * int(Fraction(m)))
    _, small, _ = _main_stdout("census", "--m", m, "--max-rank", small_rank, "--json")
    huge, small = json.loads(text), json.loads(small)
    assert huge["count"] == small["count"] > 0
    assert huge["configs"] == small["configs"]
    assert elapsed < 5.0


def test_census_beyond_the_cap_exits_2():
    start = time.perf_counter()
    res = run_cli("census", "--m", "200", "--max-rank", "1000")
    assert time.perf_counter() - start < 5.0
    assert res.returncode == 2
    assert "error: more than 10000 configurations with m = 200 and rank <= 1000" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_infeasible_census_returns_before_its_catalogue():
    # A_1 gives the most m per unit of rank, so 2m > 3 max_rank has no configuration
    code, text, elapsed = _main_stdout("census", "--m", "20000", "--max-rank", "12000", "--json")
    assert code == 0
    assert json.loads(text)["count"] == 0
    assert elapsed < 0.5


def test_census_deeper_than_the_recursion_limit():
    # 1000 copies of A_1 alone fill the rank: the walk skips 1998 component types
    code, text, _ = _main_stdout("census", "--m", "1500", "--max-rank", "1000")
    assert code == 0
    assert text.splitlines()[1:] == ["  1000A1  (rank 1000)", "total: 1"]


def test_torus_q8hat():
    res = run_cli("torus", "--group", "Q8hat", "--json")
    data = json.loads(res.stdout)
    assert data["config"] == "A1+6A3"
    assert len(data["points"]) == 16
    assert all("abcd" in p for p in data["points"])


def test_torus_neg1():
    res = run_cli("torus", "--group", "neg1", "--json")
    data = json.loads(res.stdout)
    assert data["config"] == "16A1"


def test_torus_t24hat():
    res = run_cli("torus", "--group", "T24hat", "--json")
    data = json.loads(res.stdout)
    assert data["config"] == "4A2+2A3+A5"


def test_torus_lieberman():
    res = run_cli("torus", "--group", "lieberman", "--e1", "1/2,0", "--e2", "0,1/2", "--json")
    data = json.loads(res.stdout)
    assert data["fixed_point_free"] is True
    assert data["config"] == "8A1"


def test_torus_group_choices_are_the_torus_groups():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = sub.choices["torus"]._option_string_actions["--group"].choices
    assert sorted(choices) == sorted([*TORUS_GROUPS, "lieberman"])
    for name in choices:
        if name == "lieberman":
            assert torus.lieberman_check((Fraction(1, 2), 0), (0, Fraction(1, 2))).fixed_point_free
        else:
            assert len(torus.standard_group(name)) > 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--group", "lieberman", "--e1", "1/0,0", "--e2", "0,1/2"], "not a rational: '1/0'"),
        (["--group", "lieberman", "--lattice", "a"], "--lattice does not apply"),
        (["--group", "Q8", "--e1", "1/2,0"], "apply to the lieberman group only"),
        (["--group", "T24", "--e2", "0,1/2"], "apply to the lieberman group only"),
        (["--group", "D12", "--lattice", "a"], "does not preserve the lattice"),
        (["--group", "lieberman", "--e1", "1/2", "--e2", "0,1/2"], "expected 'x,y'"),
    ],
    ids=["e1-zero-denominator", "lieberman-lattice", "Q8-e1", "T24-e2", "D12-lattice-a",
         "e1-not-a-pair"],
)
def test_torus_bad_options_exit_2(argv, message):
    res = run_cli("torus", *argv)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr


def test_usage_error_exit_2():
    res = run_cli("obstruct", "--config", "2D3")
    assert res.returncode == 2
    res = run_cli("census")
    assert res.returncode == 2
    res = run_cli("kummer", "--group", "nope")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["obstruct", "--config", "0A1"], "zero count in term '0A1'"),
        (["obstruct", "--config", "A1+0D4", "--json"], "zero count in term '0D4'"),
        (["census", "--m", "3/2", "--max-rank", "-1"], "max rank nonnegative"),
        (["census", "--m", "24", "--max-rank", "-1", "--json"], "max rank nonnegative"),
    ],
    ids=["obstruct-0A1", "obstruct-0D4-json", "census-m1.5", "census-m24-json"],
)
def test_zero_count_and_negative_max_rank_exit_2(argv, message):
    # both used to exit 0: "0A1" as the empty configuration, a negative max
    # rank as an empty census
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in err.getvalue()
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--m", "24"],
        ["kummer", "--group", "Q8hat"],
        ["obstruct", "--config", "16A1", "--json"],
        ["torus", "--group", "Q8"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(argv, buffered):
    # the reader quits before the command writes, as `kummerlat ... | head -1` may
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(CLI + argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert res.returncode == cli.BROKEN_PIPE_EXIT == 141
    assert res.stderr == ""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["census", "--m", "1e100000000"], "1e100000000"),
        (["census", "--m", "1e-100000000", "--json"], "1e-100000000"),
        (["torus", "--group", "lieberman", "--e1", "1e100000000,0", "--e2", "0,1/2"], "1e100000000"),
        (["census", "--m", f"1e{N + 1}"], f"1e{N + 1}"),
        (["census", "--m", f"1e-0_{N + 1}", "--json"], f"1e-0_{N + 1}"),
    ],
    ids=["census-m", "census-m-negative-json", "torus-e1", "census-m-4301", "census-m-underscore"],
)
def test_huge_exponent_exits_2_at_once(argv, text):
    # Fraction would work out 10**exponent before anything refused it
    start = time.perf_counter()
    code, out, err = run_main(argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert f"exponent beyond {N} in {text!r}" in err


@pytest.mark.parametrize(
    "text, value",
    [("24", 24), ("3/2", Fraction(3, 2)), ("1.5", Fraction(3, 2)), ("1e3", 1000),
     (f"1e{N}", 10**N), (f"1e-{N}", Fraction(1, 10**N)), ("2E+03", 2000)],
    ids=["24", "3/2", "1.5", "1e3", "1e4300", "1e-4300", "2E+03"],
)
def test_parse_rational_keeps_exponents_up_to_4300(text, value):
    assert cli._parse_rational(text) == value


@pytest.mark.parametrize("text", ["1_2", " 12 ", "+12", "24/2", "1.2e1", "1_2.0_0e0_0", "120e-1"])
def test_census_m_reads_one_grammar(text):
    # underscores group digits on every interpreter, as Fraction reads them from 3.11
    assert run_main(["census", "--m", text, "--max-rank", "9"]) == (
        0, run_main(["census", "--m", "12", "--max-rank", "9"])[1], "")


LONG_COUNT = "9" * (N + 700) + "A1"  # 5000 digits at the default


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--m", "3 / 2"], "not a rational: '3 / 2'"),
        (["census", "--m", "1__2"], "not a rational: '1__2'"),
        (["census", "--m", "1" + "0" * N], f"more than {N} digits in '10000"),
        (["census", "--m", "1/" + "7" * (N + 1), "--json"], f"more than {N} digits in '1/7777"),
        (["census", "--m", f"1e{N}"], f"--m gives a number of more than {N} digits"),
        (["census", "--m", f"1e-{N}", "--json"], f"--m gives a number of more than {N} digits"),
        (["torus", "--group", "lieberman", "--e1", "1" * (N + 1) + ",0", "--e2", "0,1/2"],
         f"more than {N} digits in '1111"),
        (["obstruct", "--config", LONG_COUNT], f"more than {N} digits in term '9999"),
        (["obstruct", "--config", "A1+A" + "1" * (N + 1), "--json"], f"more than {N} digits in term 'A1111"),
        (["obstruct", "--config", "9" * N + "A1"],
         f"a configuration with a rank or m of more than {N} digits cannot be printed"),
        (["obstruct", "--config", "7" * (N // 2 + 50) + "A" + "7" * (N // 2 + 50), "--json"],
         f"a configuration with a rank or m of more than {N} digits cannot be printed"),
    ],
    ids=["m-spaced-slash", "m-double-underscore", "m-4301-digits", "m-4301-digit-denominator",
         "m-1e4300", "m-1e-4300-json", "torus-e1-4301-digits", "obstruct-5000-digit-count",
         "obstruct-4301-digit-rank-json", "obstruct-4300-digit-count", "obstruct-4400-digit-rank-json"],
)
def test_number_errors_name_the_option_or_text(argv, message):
    # never the interpreter's own "Exceeds the limit (4300 digits)" message
    start = time.perf_counter()
    code, out, err = run_main(argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert message in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (CLI + ["obstruct", "--config", "9" * 700 + "A1"], 2, "more than 640 digits in term '9999"),
        (CLI + ["census", "--m", "1" + "0" * 700], 2, "more than 640 digits in '1000"),
        ([sys.executable, "-c", "from kummerlat import parse_config; repr(parse_config('A1') * 10**650)"], 1,
         "a configuration with a rank or m of more than 640 digits cannot be printed"),
    ],
    ids=["obstruct-700-digit-count", "census-701-digit-m", "repr-651-digit-rank"],
)
def test_the_interpreters_digit_limit_is_the_one_refused_by_name(argv, code, message):
    # under the least int/str limit the interpreter allows, numbers past it are
    # refused by the package's own checks, never by int() or str()
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout) == (code, "")
    assert message in res.stderr
    assert "Exceeds the limit" not in res.stderr and "_parse_rational" not in res.stderr


def test_deterministic_output():
    a = run_cli("obstruct", "--config", "5A1+A3+A7+D4", "--json").stdout
    b = run_cli("obstruct", "--config", "5A1+A3+A7+D4", "--json").stdout
    assert a == b
    a = run_cli("kummer", "--group", "T24hat", "--json").stdout
    b = run_cli("kummer", "--group", "T24hat", "--json").stdout
    assert a == b



# valid and invalid runs: argparse usage errors, ValueError exits and JSON output
MIXED_ARGVS = [
    ["census", "--m", "3/2", "--json"],
    ["obstruct", "--config", "2D3"],
    ["kummer", "--group", "Z2", "--json"],
    ["census"],
    ["torus", "--group", "Q8", "--e1", "1/2,0"],
    ["obstruct", "--config", "11A1+2A3", "--json"],
    ["kummer", "--group", "nope"],
    ["torus", "--group", "neg1", "--json"],
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call():
    fresh = []
    for argv in MIXED_ARGVS:
        cli.build_parser.cache_clear()
        fresh.append(run_main(argv))
    cli.build_parser.cache_clear()
    shared = [run_main(argv) for argv in MIXED_ARGVS]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 2, 0, 2, 0]
