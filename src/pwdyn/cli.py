"""Command-line front end.

Exit codes: 0 on success, 1 when the analysis itself finds a genuine
negative (a violated bound, a failed certification, suite failures), 2 for
usage or input errors (a map file that does not parse or breaks a map
invariant) or a spent `BudgetError`, 3 with an `internal error:` prefix
when any other `BugError` (`TaxonomyViolation`, or `MapInvariantError`
after the maps loaded) shows an implementation bug, and 141 (SIGPIPE's
shell status), with no traceback, when stdout closes before the output is
written.  Results go to stdout, diagnostics to stderr.  All set-valued
output is sorted and rationals print exactly, so reports diff cleanly.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .codes import (DEFAULT_CAP, CertificationError, YES,
                    attractor_regular_source, codes, is_regular,
                    regular_attractor)
from .harness import GeneratorConfig, PROPERTIES, run_suite
from .maps import (BugError, MapInvariantError, MINUS, PLUS, PiecewiseMap,
                   PwdynError, as_fraction, compose, parse_map)
from .orbits import (DENOM_BIT_CAP, HALF_POINT, INTERVAL_FAMILY, POINT,
                     STRUCTURE_CAP, VariantSelector, orbit, periodic_points,
                     structure)
from .plotting import emit_plot
from .stability import (_connections, _walks, classify_point,
                        classify_side, germs_of)
from .taxonomy import (NOT_APPLICABLE, PreconditionError,
                       basin_adjacent_special, count_bound, taxonomy)


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _fmt_points(points) -> str:
    return "(" + ", ".join(str(p) for p in points) + ")"


class _MapFileError(PwdynError):
    """A map file that cannot be read, or parses but breaks a map
    invariant: an input error."""


def _load(path: str) -> PiecewiseMap:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_map(handle.read())
    except (OSError, MapInvariantError) as exc:
        raise _MapFileError(str(exc)) from exc


def _selector_from_bits(f: PiecewiseMap, bits: Optional[str]) -> VariantSelector:
    jumps = f.special_points().discontinuities
    if bits is None:
        bits = "0" * len(jumps)
    if len(bits) != len(jumps) or any(b not in "01" for b in bits):
        raise PreconditionError(
            f"selector needs {len(jumps)} bits over sorted jump points")
    return VariantSelector(tuple(
        (w, PLUS if b == "1" else MINUS) for w, b in zip(jumps, bits)))


def _orbit_label(orb) -> str:
    bits = [f"period={orb.period}", f"kind={orb.kind}",
            f"points={_fmt_points(orb.points)}"]
    if orb.kind == INTERVAL_FAMILY:
        ends = "[]" if all(orb.interval_closed) else "()"
        ivs = " u ".join(f"{ends[0]}{lo}, {hi}{ends[1]}"
                         for lo, hi in orb.intervals)
        bits.append(f"intervals={ivs}")
    if orb.kind == HALF_POINT:
        bits.append(f"anchor_side={orb.anchor_side}")
    bits.append(f"continuous={'yes' if orb.continuous else 'no'}")
    return " ".join(bits)


def rational(token: str) -> Fraction:
    """A point option's value; argparse names the option in its error."""
    return as_fraction(token)


def horizon(token: str) -> int:
    """A `--horizon` value, at least 1; argparse names the option."""
    if int(token) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {token}")
    return int(token)


class _Parser(argparse.ArgumentParser):
    """Takes a word that starts like a negative number, such as -1/3, for
    a value, not an option.  argparse's own test here accepts only plain
    negative integers and decimals, so `--x -1/3` was a usage error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pwdyn",
        description="exact analysis of piecewise-affine interval maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help, *, map_arg=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if map_arg:
            p.add_argument("map", help="map file")
        return p

    cmd("validate", _cmd_validate,
        help="parse a map file and report its shape")
    p = cmd("eval", _cmd_eval, help="exact value at a point")
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--side", choices=("minus", "plus"), default=None,
                   help="report the one-sided limit instead of the value")
    cmd("special", _cmd_special, help="special points: S, T, D")
    p = cmd("compose", _cmd_compose,
            help="exact composition of two maps (outer inner)")
    p.add_argument("inner", help="inner map file")
    p.add_argument("--emit-map", action="store_true")
    p = cmd("iterate", _cmd_iterate, help="exact power of the map")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--emit-map", action="store_true")
    p = cmd("orbit", _cmd_orbit, help="forward orbit of one variant")
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--selector", default=None)
    p.add_argument("--cap", type=int, default=10**4)
    p = cmd("structure", _cmd_structure, help="branching forward-orbit set")
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--cap", type=int, default=STRUCTURE_CAP)
    p = cmd("periodic", _cmd_periodic,
            help="periodic orbits up to a period horizon")
    p.add_argument("--horizon", type=horizon, default=4)
    p = cmd("classify", _cmd_classify,
            help="stability class of a confined point")
    p.add_argument("--x", type=rational, required=True)
    p = cmd("connections", _cmd_connections,
            help="lateral connections inside a structure")
    p.add_argument("--x", type=rational, required=True)
    p = cmd("taxonomy", _cmd_taxonomy,
            help="critical / trapped / free / exceptional flags")
    p.add_argument("--horizon", type=horizon, default=4)
    p = cmd("basin", _cmd_basin,
            help="one-sided basin witnesses at special points")
    p.add_argument("--horizon", type=horizon, default=4)
    p = cmd("bound", _cmd_bound, help="orbit count against N_T + 2 N_D + 2")
    p.add_argument("--horizon", type=horizon, default=8)
    p = cmd("code", _cmd_code, help="itinerary codes of a point")
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p = cmd("regular", _cmd_regular, help="regularity of every special point")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--side", choices=("minus", "plus"), default=None,
                   help="restrict jump points to one side")
    p = cmd("theorem5", _cmd_theorem5,
            help="regular points vs attracting orbits, both ways")
    p.add_argument("--horizon", type=horizon, default=4)
    p = cmd("suite", _cmd_suite, map_arg=False, help="run the property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--which", default=None,
                   help="comma-separated property names (default: all)")
    p.add_argument("--count", type=int, default=None,
                   help="override the per-property corpus size")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p = cmd("plot", _cmd_plot, help="graph or cobweb plot document")
    p.add_argument("--mode", choices=("graph", "cobweb"), default="graph")
    p.add_argument("--x0", type=rational, default=None)
    p.add_argument("-n", type=int, default=20)
    p.add_argument("--selector", default=None)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "suite":
            return args.handler(args)
        return args.handler(_load(args.map), args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except BugError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (PwdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_validate(f, args) -> int:
    sp = f.special_points()
    print(f"OK: {len(f._segs)} pieces on [{f.a}, {f.b}], "
          f"{len(sp.turning)} turns, {len(sp.discontinuities)} jumps")
    return 0


def _cmd_eval(f, args) -> int:
    x = args.x
    if args.side is not None:
        print(f.lateral(x, args.side))
        return 0
    v = f.value(x)
    if v is None:
        print(f"undefined (jump at {x}); laterals: "
              f"minus={f.lateral(x, MINUS)} plus={f.lateral(x, PLUS)}")
    else:
        print(v)
    return 0


def _cmd_special(f, args) -> int:
    sp = f.special_points()
    print(f"S = {_fmt_set(sp.points)}")
    print(f"T = {_fmt_set(sp.turning)}")
    print(f"D = {_fmt_set(sp.discontinuities)}")
    return 0


def _print_map(h: PiecewiseMap, args) -> int:
    """The map's text with --emit-map, else its size and special set."""
    if args.emit_map:
        sys.stdout.write(h.to_text())
    else:
        print(f"{len(h._segs)} pieces, S = {_fmt_set(h.special_points().points)}")
    return 0


def _cmd_compose(f, args) -> int:
    return _print_map(compose(f, _load(args.inner)), args)


def _cmd_iterate(f, args) -> int:
    return _print_map(f.power(args.n), args)


def _cmd_orbit(f, args) -> int:
    sel = _selector_from_bits(f, args.selector)
    res = orbit(f, args.x, sel, cap=args.cap)
    print(f"prefix = {_fmt_points(res.prefix)}")
    if res.cycle is not None:
        print(f"cycle = {_fmt_points(res.cycle)} (period {len(res.cycle)})")
    else:
        print(f"truncated after {res.steps_used} steps")
    return 0


def _cmd_structure(f, args) -> int:
    st = structure(f, args.x, cap=args.cap)
    if st.truncated:
        # the nodes are sorted; a cut-off set is summarized, not dumped
        cap = (f"cap {args.cap}" if len(st.nodes) >= args.cap
               else f"bit cap {DENOM_BIT_CAP}")
        print(f"nodes: {len(st.nodes)} ({cap}), least "
              f"{st.nodes[0]}, greatest {st.nodes[-1]}")
    else:
        print(f"nodes = {_fmt_set(st.nodes)}")
    print(f"closed = {'yes' if st.closed else 'no'}"
          + (" (truncated)" if st.truncated else ""))
    return 0


def _cmd_periodic(f, args) -> int:
    for orb in periodic_points(f, args.horizon):
        print(_orbit_label(orb))
    return 0


def _cmd_classify(f, args) -> int:
    x = args.x
    print(classify_point(f, x))  # checks once that x is confined
    for s in (classify_side(f, x, g.side) for g in germs_of(f, x)):
        print(f"  {s.side}: {s.verdict} (cycle product {s.cycle_product})")
    return 0


def _cmd_connections(f, args) -> int:
    st = structure(f, args.x)
    if not st.closed:
        print("structure not closed", file=sys.stderr)
        return 2
    found = 0
    for y in st.nodes:
        walks = _walks(f, y)
        for z in st.nodes:
            levels = _connections(y, z, walks)[1]
            for level, conn in sorted(levels.items()):
                ks = ",".join(str(k) for k in conn.iterates)
                print(f"{y} ~{level} {z} (k={ks})")
            found += len(levels)
    print(f"total = {found}")
    return 0


def _cmd_taxonomy(f, args) -> int:
    for orb in periodic_points(f, args.horizon):
        if not orb.continuous:
            continue
        tax = taxonomy(f, orb)
        flags = []
        if tax.critical:
            flags.append("critical")
        if tax.trapped:
            y, z, delta = tax.trap_witness
            flags.append(f"trapped (y={y} z={z} delta={delta})")
        if tax.free:
            flags.append("free")
        if tax.exceptional:
            flags.append("exceptional=" + "".join(sorted(tax.exceptional)))
        if tax.boundary_case != "none":
            flags.append(tax.boundary_case)
        print(f"{_fmt_points(orb.points)} period={orb.period}: "
              + (", ".join(flags) if flags else "none"))
    return 0


def _cmd_basin(f, args) -> int:
    shown = 0
    for orb in periodic_points(f, args.horizon):
        if orb.kind != POINT:
            continue
        tax = taxonomy(f, orb)
        if not tax.free or tax.exceptional:
            continue
        for wit in basin_adjacent_special(f, orb):
            print(f"orbit {_fmt_points(orb.points)}: w={wit.w} "
                  f"side={wit.side} delta={wit.delta} "
                  f"w_attracted={'yes' if wit.w_attracted else 'no'}")
            shown += 1
    if not shown:
        print("no qualifying free orbits")
    return 0


def _cmd_bound(f, args) -> int:
    report = count_bound(f, args.horizon)
    verdict = "HOLDS" if report.holds else "VIOLATED"
    print(f"count={report.count_found} N_T={report.n_t} N_D={report.n_d} "
          f"bound={report.bound} {verdict}")
    for orb in report.orbits:
        print(f"  {_orbit_label(orb)}")
    return 0 if report.holds else 1


def _cmd_code(f, args) -> int:
    for code in codes(f, args.x, args.cap):
        prefix = ",".join(str(i) for i in code.prefix)
        if code.cycle is None:
            print(f"({prefix}, ...) truncated")
        else:
            cyc = ",".join(str(i) for i in code.cycle)
            tag = f" strictly periodic period={code.period}" \
                if code.strictly_periodic else ""
            print(f"({prefix}|{cyc}*){tag}")
    return 0


def _cmd_regular(f, args) -> int:
    jumps = set(f.special_points().discontinuities)
    for w in f.special_points().points:
        if w in jumps:
            sides = (args.side,) if args.side else (MINUS, PLUS)
            for side in sides:
                v = is_regular(f, w, args.cap, side=side)
                print(f"{w} ({side}): {v.value}")
        else:
            v = is_regular(f, w, args.cap)
            print(f"{w}: {v.value}")
    return 0


def _cmd_theorem5(f, args) -> int:
    negatives = 0
    for w in f.special_points().points:
        verdict = is_regular(f, w)
        if verdict.value != YES:
            print(f"forward {w}: not regular ({verdict.value})")
            continue
        try:
            res = regular_attractor(f, w)
            print(f"forward {w}: orbit {_fmt_points(res.orbit.points)} "
                  f"{res.stability}, not trapped, attracted={res.attracted_verdict}, "
                  f"J=[{res.interval[0]}, {res.interval[1]}]")
        except CertificationError as exc:
            print(f"forward {w}: CERTIFICATION FAILURE: {exc}")
            negatives += 1
    for orb in periodic_points(f, args.horizon):
        if orb.kind != POINT:
            continue
        try:
            w, verdict = attractor_regular_source(f, orb,
                                                  horizon=args.horizon)
            print(f"reverse {_fmt_points(orb.points)}: w={w} "
                  f"regular={verdict.value}")
        except NOT_APPLICABLE:
            continue
        except CertificationError as exc:
            print(f"reverse {_fmt_points(orb.points)}: "
                  f"CERTIFICATION FAILURE: {exc}")
            negatives += 1
    return 1 if negatives else 0


def _cmd_suite(args) -> int:
    cfg = GeneratorConfig(seed=args.seed)
    which = set(args.which.split(",")) if args.which else None
    if which is not None:
        unknown = which - set(PROPERTIES)
        if unknown:
            raise ValueError(f"unknown properties {sorted(unknown)}")
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    counts = {name: args.count for name in (which or PROPERTIES)} \
        if args.count else None
    report = run_suite(cfg, which, counts=counts)
    if args.format == "json":
        print(report.canonical_json())
    else:
        print(report.summary())
    return 1 if report.total_fails else 0


def _cmd_plot(f, args) -> int:
    sys.stdout.write(emit_plot(f, args.mode,
                               _selector_from_bits(f, args.selector),
                               x0=args.x0, steps=args.n, fmt=args.format))
    return 0


def main() -> None:
    try:
        status = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is left goes to devnull, so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
