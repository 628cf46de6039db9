"""Byte-for-byte guard on the output of every CLI command shown in the README,
of `obstruct` on every configuration of the m = 24 census, on 18A1 and
19A1 and on the six deepest code searches of the atlas, and of `torus` on
every non-default lattice that a group preserves.

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
# every configuration of `census --m 24 --max-rank 19`
CENSUS_24 = (
    "16A1", "11A1+2A3", "9A2", "5A1+4A2+A5", "6A1+4A3", "6A1+2A2+A3+D5",
    "7A1+A3+2D4", "4A2+2A3+A5", "A1+6A3", "A1+2A2+3A3+D5", "A1+4A2+2D5",
    "A1+4A2+D4+E6", "2A1+3A3+2D4", "2A1+2A2+2D4+D5", "3A1+4D4", "5A1+A3+A7+D4",
    "5A1+A3+A4+D7", "5A1+A2+D4+D8",
)
# the largest rank <= 19 A1 configurations, where the double-cover scan is longest
A1_TAIL = ("18A1", "19A1")
# the deepest F_2 and F_3 code searches of the rank <= 19 atlas
RESIDUE = ("9A1+2D4", "10A1+A2+D4", "10A1+A3+D4", "3A1+8A2", "8A2+A3", "7A2+A5")
# (group, lattice) pairs off the default lattice; D12 lives on lattice b only
TORUS_ON_LATTICE = (
    *((g, lat) for g in ("neg1", "i", "Q8_T24", "Q8hat") for lat in ("a0", "b", "product")),
    *(("Q8", lat) for lat in ("a", "b", "product")),
)

COMMANDS = [
    ("census_m24", ["census", "--m", "24", "--max-rank", "19"]),
    ("census_m3-2", ["census", "--m", "3/2", "--max-rank", "19"]),
    *((f"obstruct_{c}", ["obstruct", "--config", c]) for c in CENSUS_24 + A1_TAIL + RESIDUE),
    *((f"kummer_{g}", ["kummer", "--group", g]) for g in KUMMER_GROUPS),
    *((f"torus_{g}", ["torus", "--group", g]) for g in TORUS_GROUPS),
    *((f"torus_{g}_on_{lat}", ["torus", "--group", g, "--lattice", lat])
      for g, lat in TORUS_ON_LATTICE),
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
