"""Byte-for-byte guard on the output of every CLI command shown in the README.

Each command runs in-process in text and `--json` form and is compared with
its recorded output under `tests/golden/`.  To re-record after an intended
output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import os
from contextlib import redirect_stdout

import pytest

from kummerlat import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

KUMMER_GROUPS = ("Q12", "Q8", "Q8_T24", "Q8hat", "T24", "T24hat", "Z2", "Z3", "Z4", "Z6")
TORUS_GROUPS = ("neg1", "Z2", "i", "Z4", "Q8", "Q8_T24", "T24", "D12", "Q8hat", "T24hat")

COMMANDS = [
    ("census_m24", ["census", "--m", "24", "--max-rank", "19"]),
    ("census_m3-2", ["census", "--m", "3/2", "--max-rank", "19"]),
    ("obstruct_11A1+2A3", ["obstruct", "--config", "11A1+2A3"]),
    ("obstruct_16A1", ["obstruct", "--config", "16A1"]),
    *((f"kummer_{g}", ["kummer", "--group", g]) for g in KUMMER_GROUPS),
    *((f"torus_{g}", ["torus", "--group", g]) for g in TORUS_GROUPS),
    ("torus_lieberman", ["torus", "--group", "lieberman", "--e1", "1/2,0", "--e2", "0,1/2"]),
]
CASES = [(f"{name}.txt", argv) for name, argv in COMMANDS] + [
    (f"{name}.json", argv + ["--json"]) for name, argv in COMMANDS
]


def run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(filename, argv):
    with open(os.path.join(GOLDEN, filename), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert run(argv) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for filename, argv in CASES:
        with open(os.path.join(GOLDEN, filename), "w", encoding="utf-8", newline="") as fh:
            fh.write(run(argv))
