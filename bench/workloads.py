"""Workload inputs and their output oracles.

Each workload is a list of rounds; each round is a list of operations.  An
operation calls the library once and checks its output against an oracle
that does not use the code under test (closed forms or tables from the
paper).  All inputs come from the seed.  Library functions are looked up on
the package at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import kummerlat as kl
import kummerlat.cli  # noqa: F401  (kl.cli)

# The ten torus-quotient configurations (no obstruction) and the eight
# further m = 24 configurations of rank <= 19 that the checker excludes.
TORUS_TABLE = ("16A1", "9A2", "6A1+4A3", "5A1+4A2+A5", "2A1+3A3+2D4", "3A1+4D4",
               "A1+6A3", "A1+2A2+3A3+D5", "A1+4A2+D4+E6", "4A2+2A3+A5")
EXCLUDED_8 = ("11A1+2A3", "7A1+A3+2D4", "5A1+A3+A7+D4", "6A1+2A2+A3+D5",
              "5A1+A2+D4+D8", "5A1+A3+A4+D7", "2A1+2A2+2D4+D5", "A1+4A2+2D5")
ENRIQUES = ["8A1", "3A1+2A3"]

GROUP_CONFIGS = {
    "Z2": "16A1", "Z3": "9A2", "Z4": "6A1+4A3", "Z6": "5A1+4A2+A5",
    "Q8": "2A1+3A3+2D4", "Q8_T24": "3A1+4D4", "Q8hat": "A1+6A3",
    "Q12": "A1+2A2+3A3+D5", "T24": "A1+4A2+D4+E6", "T24hat": "4A2+2A3+A5",
}
# (index [K:F], invariant factors of disc(K), root pairs of F and of K)
SATURATIONS = {"Q8hat": (16, (2, 4, 4), 37), "T24hat": (3, (6, 12, 12), 39)}
QUOTIENTS = {
    "neg1": "16A1", "i": "6A1+4A3", "Q8": "2A1+3A3+2D4", "Q8_T24": "3A1+4D4",
    "Q8hat": "A1+6A3", "D12": "A1+2A2+3A3+D5", "T24": "A1+4A2+D4+E6",
    "T24hat": "4A2+2A3+A5",
}

EXCLUDED = "Excluded"
NO_OBSTRUCTION = "NoObstructionFound"


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # groups latencies for the per-kind figures
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


# --------------------------------------------------------------------------
# ADE configurations in the library's text form ("5A1+4A2+A5": A ascending,
# then D, then E), and closed forms for their blocks

MAX_RANK = 19
_LETTER_ORDER = {"A": 0, "D": 1, "E": 2}
_TERM = re.compile(r"(\d*)([ADE])(\d+)")


def component_types() -> list[tuple[str, int]]:
    """Every irreducible block A_n, D_n, E_n of rank <= MAX_RANK."""
    types = [("A", n) for n in range(1, MAX_RANK + 1)]
    types += [("D", n) for n in range(4, MAX_RANK + 1)]
    types += [("E", n) for n in (6, 7, 8)]
    return types


def render(counts: dict[tuple[str, int], int]) -> str:
    parts = []
    for (letter, n) in sorted(counts, key=lambda k: (_LETTER_ORDER[k[0]], k[1])):
        c = counts[(letter, n)]
        parts.append(f"{c if c > 1 else ''}{letter}{n}")
    return "+".join(parts)


def blocks(text: str) -> list[tuple[str, int]]:
    """Components of a rendered configuration, with multiplicity."""
    out = []
    for term in text.split("+"):
        m = _TERM.fullmatch(term)
        out += [(m.group(2), int(m.group(3)))] * int(m.group(1) or 1)
    return out


def block_det(letter: str, n: int) -> int:
    return {"A": n + 1, "D": 4, "E": {6: 3, 7: 2, 8: 1}.get(n)}[letter]


def block_root_pairs(letter: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n)}[letter]


def closed_form_det(text: str) -> int:
    out = 1
    for letter, n in blocks(text):
        out *= block_det(letter, n)
    return out


def closed_form_root_pairs(text: str) -> int:
    return sum(block_root_pairs(letter, n) for letter, n in blocks(text))


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


# --------------------------------------------------------------------------
# census-sweep

def _obstruct_cli(text: str) -> dict:
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = kl.cli.main(["obstruct", "--config", text, "--json"])
    except SystemExit as exc:  # the CLI's usage-error exit
        code = exc.code
    if code != 0:
        return {"exit": code}
    return json.loads(out.getvalue())


def _obstruct_op(text: str, want: str) -> Op:
    return Op(f"obstruct --config {text}", "check",
              lambda: _obstruct_cli(text),
              lambda r: _expect(r.get("config") == text and r.get("verdict") == want,
                                f"output {r.get('config')} {r.get('verdict') or r}"))


def census_round(rng: random.Random) -> list[Op]:
    census = sorted(TORUS_TABLE + EXCLUDED_8)
    ops = [Op("enumerate_configs(24,19)", "enumerate",
              lambda: kl.enumerate_configs(24, 19),
              lambda r: _expect(sorted(c.render() for c in r) == census,
                                f"census {[c.render() for c in r]}"))]
    checks = list(census)
    rng.shuffle(checks)
    # the checks go through the CLI, as a user reproducing the census runs them
    ops += [_obstruct_op(text, NO_OBSTRUCTION if text in TORUS_TABLE else EXCLUDED)
            for text in checks]
    ops.append(Op("enriques_census()", "enriques", lambda: kl.enriques_census(),
                  lambda r: _expect([c.render() for c in r] == ENRIQUES,
                                    f"census {[c.render() for c in r]}")))
    return ops


# --------------------------------------------------------------------------
# lattice-build

def direct_sums(rng: random.Random) -> list[str]:
    """Every irreducible block of rank <= 19 once, first-fit into seeded
    direct sums of rank <= 19."""
    blocks = component_types()
    rng.shuffle(blocks)
    bins: list[list[tuple[str, int]]] = []
    for block in blocks:
        for b in bins:
            if sum(n for _, n in b) + block[1] <= MAX_RANK:
                b.append(block)
                break
        else:
            bins.append([block])
    out = []
    for b in bins:
        counts: dict[tuple[str, int], int] = {}
        for block in b:
            counts[block] = counts.get(block, 0) + 1
        out.append(render(counts))
    return out


def _check_report(group: str, r) -> str | None:
    config = GROUP_CONFIGS[group]
    if r.config.render() != config:
        return f"config {r.config.render()}"
    if r.disc_F.order != closed_form_det(config):
        return f"|disc F| {r.disc_F.order}"
    if r.root_pairs_F != closed_form_root_pairs(config):
        return f"root pairs of F {r.root_pairs_F}"
    if group in SATURATIONS:
        index, disc, pairs = SATURATIONS[group]
        got = (r.K.index, r.disc_K.invariant_factors, r.root_pairs_K, r.roots_equal)
        if got != (index, disc, pairs, True):
            return f"saturation {got}"
    return None


def _roots_and_disc(text: str):
    L = kl.gram(kl.parse_config(text))
    return len(kl.roots(L)), kl.discriminant_group(L).order


def _quotient(group: str):
    return kl.singularity_configuration(kl.standard_group(group))


def _lieberman():
    return kl.lieberman_check((Fraction(1, 2), 0), (0, Fraction(1, 2)))


def lattice_round(rng: random.Random) -> list[Op]:
    ops = []
    for group in GROUP_CONFIGS:
        kind = "saturation" if group in SATURATIONS else "report"
        ops.append(Op(f"build_group_report({group})", kind,
                      lambda g=group: kl.build_group_report(g),
                      lambda r, g=group: _check_report(g, r)))
    for group, config in QUOTIENTS.items():
        ops.append(Op(f"singularity_configuration({group})", "quotient",
                      lambda g=group: _quotient(g),
                      lambda r, c=config: _expect(r.config.render() == c,
                                                  f"config {r.config.render()}")))
    ops.append(Op("lieberman_check((1/2,0),(0,1/2))", "quotient", _lieberman,
                  lambda r: _expect(r.fixed_point_free and r.config.render() == "8A1",
                                    f"free {r.fixed_point_free}, config {r.config}")))
    for text in direct_sums(rng):
        want = (closed_form_root_pairs(text), closed_form_det(text))
        ops.append(Op(f"roots+discriminant_group({text})", "roots",
                      lambda t=text: _roots_and_disc(t),
                      lambda r, w=want: _expect(r == w, f"(root pairs, |disc|) {r}, want {w}")))
    rng.shuffle(ops)
    return ops
