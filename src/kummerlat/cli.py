"""Command line front end: census, kummer, obstruct and torus subcommands.

Exit codes: 0 on success (an Excluded verdict is data, not an error),
2 on usage errors, 3 on internal invariant violations, among them a torus
stabilizer outside the ADE table, and 141 when the reader of stdout quits
first (the status a shell reports for such a reader).  All rationals in
JSON output are strings "p/q"; output is deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import divisibility, kummer, torus
from .ade import enumerate_configs, m_value, parse_config
from .lattice import frac_str

INTERNAL_ERROR_EXIT = 3
BROKEN_PIPE_EXIT = 141
MAX_EXPONENT = 4300  # the interpreter's default int-digit limit


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_rational(text: str) -> Fraction:
    # Fraction works out 10**exponent first, so a huge exponent is refused here
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        raise argparse.ArgumentTypeError(f"exponent beyond {MAX_EXPONENT} in {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def cmd_census(args) -> int:
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
    report = divisibility.check_nonexistence(config)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    print(f"configuration {config.render()}: m = {m_value(config)}, "
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
                   choices=["neg1", "Z2", "i", "Z4", "Q8", "Q8_T24", "T24",
                            "D12", "Q8hat", "T24hat", "lieberman"])
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
