"""Command line front end: census, kummer, obstruct and torus subcommands.

Exit codes: 0 on success (an Excluded verdict is data, not an error),
2 on usage errors, 3 on internal invariant violations, among them a torus
stabilizer outside the ADE table, and 141 when the reader of stdout quits
first (the status a shell reports for such a reader).  All rationals in
JSON output are strings "p/q"; output is deterministic for fixed input.

`--m`, `--e1` and `--e2` read one grammar on every interpreter, the syntax
of `Fraction` on Python 3.11: underscores may group digits (`1_000`; 3.10
refuses them) and no space may stand around "/" (3.12 allows it).  Numbers
of more than 4300 digits (the interpreter's int/str limit), in that text, in
a `--config` term or in a value to print, and exponents beyond 4300 exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from . import divisibility, kummer, torus
from .ade import _MAX_DIGITS, _TOO_LONG, enumerate_configs, m_value, parse_config
from .lattice import frac_str

INTERNAL_ERROR_EXIT = 3
BROKEN_PIPE_EXIT = 141
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(rf"\s*([+-]?)(?=\d|\.\d)((?:{_DIGITS})?)"
                       rf"(?:/({_DIGITS})|(?:\.((?:{_DIGITS})?))?(?:e([+-]?{_DIGITS}))?)\s*", re.IGNORECASE)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_rational(text: str) -> Fraction:
    """The rational that `text` spells in the grammar of the module docstring."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    sign, whole, den, point, exp = (g.replace("_", "") if g else "" for g in match.groups())
    # the exponent is refused before 10**exponent is worked out
    magnitude = exp.lstrip("+-").lstrip("0")
    if len(magnitude) > len(str(_MAX_DIGITS)) or magnitude and int(magnitude) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"exponent beyond {_MAX_DIGITS} in {text!r}")
    if max(len(whole + point), len(den)) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} digits in {text!r}")
    if den and not int(den):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    shift = (-1 if exp.startswith("-") else 1) * int(magnitude or "0") - len(point)
    return Fraction(int(sign + whole + point), int(den or "1")) * Fraction(10) ** shift


def _check_digits(option: str, *values: int) -> None:
    """Refuse, naming the option, a number that str() would refuse to write."""
    if max(map(abs, values)) >= _TOO_LONG:
        raise ValueError(f"{option} gives a number of more than {_MAX_DIGITS} digits")


def cmd_census(args) -> int:
    _check_digits("--m", args.m.numerator, args.m.denominator)
    configs = enumerate_configs(args.m, args.max_rank)
    if args.json:
        _emit_json(
            {
                "m": frac_str(args.m),
                "max_rank": args.max_rank,
                "count": len(configs),
                "configs": [c.to_json_dict() for c in configs],
            }
        )
    else:
        print(f"configurations with m = {args.m}, rank <= {args.max_rank}:")
        for c in configs:
            print(f"  {c.render()}  (rank {c.rank})")
        print(f"total: {len(configs)}")
    return 0


def cmd_kummer(args) -> int:
    report = kummer.build_group_report(args.group)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    print(f"group {report.group}: configuration {report.config.render()} "
          f"(rank {report.config.rank})")
    print(f"  disc(F) = {report.disc_F.symbol()} "
          f"(order {report.disc_F.order}, length {report.disc_F.length})")
    if report.K is None:
        print("  primitive saturation data for this group comes from prior work;"
              " only F is built here")
        return 0
    print(f"  [K : F] = {report.K.index}")
    print(f"  disc(K) = {report.disc_K.symbol()} "
          f"invariant factors {list(report.disc_K.invariant_factors)}")
    print(f"  root pairs: F = {report.root_pairs_F}, K = {report.root_pairs_K}, "
          f"equal = {report.roots_equal}")
    for line in report.glue_info:
        print(f"  glue: {line}")
    for s in report.even_sets:
        print(f"  even set: {' '.join(s)}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0


def cmd_obstruct(args) -> int:
    config = parse_config(args.config)
    _check_digits("--config", config.rank)  # no count or size exceeds the rank
    report = divisibility.check_nonexistence(config)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    m = m_value(config)
    _check_digits("--config", m.numerator, m.denominator)
    print(f"configuration {config.render()}: m = {m}, "
          f"rank = {config.rank}")
    print(f"verdict: {report.verdict}")
    for step in report.steps:
        data = ", ".join(f"{k}={v}" for k, v in step.data)
        print(f"  [{step.kind}] {data}")
    return 0


def cmd_torus(args) -> int:
    if args.group == "lieberman":
        if args.lattice:
            raise ValueError("--lattice does not apply to the lieberman group")
        report = torus.lieberman_check(
            args.e1 or (Fraction(1, 2), Fraction(0)),
            args.e2 or (Fraction(1, 2), Fraction(0)),
        )
        if args.json:
            _emit_json(report.to_json_dict())
        else:
            print(f"tau fixed locus: {report.tau_fixed}; "
                  f"-tau fixed locus: {report.neg_tau_fixed}")
            print(f"fixed point free: {report.fixed_point_free}")
            if report.config is not None:
                print(f"quotient configuration: {report.config.render()}")
        return 0
    if args.e1 or args.e2:
        raise ValueError("--e1 and --e2 apply to the lieberman group only")
    group = torus.standard_group(args.group, lattice=args.lattice)
    report = torus.singularity_configuration(group)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    print(f"group {group.name} on lattice {group.lattice.name}: "
          f"|G| = {len(group)}")
    print(f"singular configuration: {report.config.render()}")
    for orbit, order, ade_type in zip(
        report.orbits, report.stabilizer_orders, report.stabilizer_types
    ):
        pts = []
        for p in orbit:
            short = torus.abcd_shorthand(p)
            pts.append(short if short else "(" + ",".join(str(c) for c in p) + ")")
        print(f"  {'%s%d' % ade_type}: stabilizer order {order}, "
              f"orbit {{{', '.join(pts)}}}")
    return 0


def _torsion_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'x,y' with rational entries")
    return (_parse_rational(parts[0]), _parse_rational(parts[1]))


@cache  # built once per process; parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummerlat",
        description="Exact computations on ADE configurations, Kummer lattices "
        "and finite quaternion group actions on 4-tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate configurations by m and rank")
    p.add_argument("--m", type=_parse_rational, required=True,
                   help="exact target value, e.g. 24 or 3/2")
    p.add_argument("--max-rank", type=int, default=19)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("kummer", help="curve lattice and saturation reports")
    p.add_argument("--group", required=True,
                   choices=sorted(kummer.GROUP_CONFIGS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kummer)

    p = sub.add_parser("obstruct", help="nonexistence check for a configuration")
    p.add_argument("--config", required=True, help="e.g. '11A1+2A3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("torus", help="singularities of a torus quotient")
    p.add_argument("--group", required=True,
                   choices=sorted([*torus._GROUPS, *torus._ALIASES, "lieberman"]))
    p.add_argument("--lattice", choices=sorted(torus.LATTICES))
    p.add_argument("--e1", type=_torsion_pair, help="lieberman: 2-torsion 'x,y'")
    p.add_argument("--e2", type=_torsion_pair, help="lieberman: 2-torsion 'x,y'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_torus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    # the parser refuses unknown group names, so UnrecognizedGroup is a stabilizer's
    except (AssertionError, torus.UnrecognizedGroup) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR_EXIT
    except (ValueError, KeyError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
