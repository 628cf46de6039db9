"""Byte-for-byte guard on the output of every script under `demos/`.

Each demo runs in a fresh interpreter with `src` on `PYTHONPATH`, and its
stdout is compared with `tests/golden/demo_<name>.txt`.  To re-record after
an intended output change:

    PYTHONPATH=src python tests/test_demos.py
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def golden_path(demo: str) -> str:
    name = os.path.splitext(os.path.basename(demo))[0]
    return os.path.join(GOLDEN, f"demo_{name}.txt")


def run(demo: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, demo], capture_output=True, env=env)
    assert res.returncode == 0, res.stderr.decode(errors="replace")
    return res.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(d) for d in DEMOS])
def test_demo_output_matches_golden(demo):
    with open(golden_path(demo), "rb") as fh:
        expected = fh.read()
    assert run(demo) == expected


if __name__ == "__main__":
    for demo in DEMOS:
        with open(golden_path(demo), "wb") as fh:
            fh.write(run(demo))
