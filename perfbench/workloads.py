"""Seeded corpora, operations and answer checks for the four workloads.

A workload turns a seed into a list of ops.  An op holds only map texts
and the rationals its queries take; it parses its maps itself, so every
per-map cache starts cold, as it does for a freshly generated map or a CLI
call.  `run` performs an op's query sequence (the timed part); `check`
verifies the answers against independent computations and returns the
op's canonical answer string, which feeds the run's answer digest.

Library functions are always looked up through their module
(`orbits.periodic_points`, never a name bound at import time), so the
tracer can wrap them from outside the library.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction

from pwdyn import codes, harness, maps, orbits, stability, taxonomy
from pwdyn.codes import CertificationError
from pwdyn.maps import MapInvariantError, PieceLimitError, PowerLimitError
from pwdyn.orbits import HALF_POINT, VariantLimitError
from pwdyn.stability import CycleBudgetError
from pwdyn.taxonomy import PreconditionError, TaxonomyViolation

# A budget error that escapes an op makes the op count as failed.  No op of
# the four workloads is expected to fail; see `outcomes`.
BUDGET_ERRORS = (PieceLimitError, PowerLimitError, CycleBudgetError,
                 VariantLimitError)
# An implementation bug: the run aborts, the op is never counted as failed.
BUG_ERRORS = (TaxonomyViolation, MapInvariantError, CertificationError)

# The maps of every corpus come from pools drawn at this fixed generator
# seed.  Op cost is heavy-tailed (a few maps cost a hundred times the
# median), so pools drawn afresh for each seed would move p95 latency by more
# than half between seeds; the seed varies everything else (see make_ops).
POOL_SEED = 7

MIN_OPS = 200

# Check points for value agreement.  10007 is prime and every breakpoint of
# a generated map, its powers and compositions has a denominator built from
# 2, 3 and 5, so x = k/10007 and all its iterates avoid every breakpoint.
CHECK_DENOMINATOR = 10007


class CheckFailed(Exception):
    """An answer disagreed with its independent computation."""


@dataclass(frozen=True)
class Op:
    texts: tuple[str, ...]
    points: tuple[Fraction, ...] = ()
    checks: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class Workload:
    generator: dict          # GeneratorConfig overrides
    ops_per_second: int      # ops per second of --seconds


# The reason for each workload is in BENCHMARK.json and README.md.
WORKLOADS = {
    "algebra": Workload({}, 60),
    "census": Workload({"max_pieces": 3}, 13),
    "stability": Workload({}, 90),
    "duality": Workload({"slope_palette": "contracting-rich",
                         "max_pieces": 3}, 30),
}


def corpus_size(workload: str, seconds: int) -> int:
    """Ops in a run: enough that ten latencies lie beyond the 95th
    percentile."""
    return max(MIN_OPS, WORKLOADS[workload].ops_per_second * seconds)


def _pool(workload: str, salt: str, count: int,
          need_special: bool = False) -> list[maps.PiecewiseMap]:
    """The first `count` maps of a workload's fixed pool; draws that fail
    generation, or lack a special point when one is needed, are passed
    over."""
    cfg = harness.GeneratorConfig(seed=POOL_SEED,
                                  **WORKLOADS[workload].generator)
    out = []
    index = 0
    while len(out) < count:
        try:
            f = harness.random_map(cfg.sub(f"{salt}:{workload}", index))
        except harness.GenerationError:
            f = None
        index += 1
        if f is not None and (f.special_points().points or not need_special):
            out.append(f)
    return out


def _mirror(f: maps.PiecewiseMap) -> maps.PiecewiseMap:
    """The conjugate x -> a + b - f(a + b - x): the same dynamics seen in a
    mirror, so the same cost, with different texts and answers."""
    m = f.a + f.b
    return maps.PiecewiseMap(f.a, f.b, [
        maps.AffinePiece(m - p.right, m - p.left, p.slope,
                         m * (1 - p.slope) - p.intercept)
        for p in reversed(f.pieces)])


def make_ops(workload: str, seed: int, count: int, salt: str = "timed"
             ) -> list[Op]:
    """The op list for a workload and seed.

    The maps come from a fixed pool; the seed mirrors each map or not,
    pairs the algebra maps, orders the ops and draws the query points.  A
    different salt draws a disjoint pool.
    """
    rng = random.Random(zlib.crc32(f"{salt}:{workload}:{seed}".encode()))

    def grid():
        return Fraction(rng.randint(0, 64), 64)

    def checks(k):
        return tuple(Fraction(rng.randrange(1, CHECK_DENOMINATOR),
                              CHECK_DENOMINATOR) for _ in range(k))

    def text(f):
        return (_mirror(f) if rng.random() < 0.5 else f).to_text()

    if workload == "algebra":
        outer = _pool(workload, salt + ":outer", count)
        inner = _pool(workload, salt + ":inner", count)
        rng.shuffle(inner)
        ops = [Op((text(f), text(g)), tuple(grid() for _ in range(8)),
                  checks(4)) for f, g in zip(outer, inner)]
    elif workload == "duality":
        ops = [Op((text(f),), (grid(),))
               for f in _pool(workload, salt, count, need_special=True)]
    else:
        ops = [Op((text(f),)) for f in _pool(workload, salt, count)]
    rng.shuffle(ops)
    return ops


# -- algebra ------------------------------------------------------------------

def run_algebra(op: Op) -> dict:
    f = maps.parse_map(op.texts[0])
    g = maps.parse_map(op.texts[1])
    h = maps.compose(f, g)
    powers = [f.power(n) for n in range(1, 9)]
    sset = f.special_preimage_set(6)
    roots = [f.preimage(y) for y in op.points]
    back = maps.parse_map(h.to_text())
    return {"f": f, "g": g, "h": h, "powers": powers, "sset": sset,
            "roots": roots, "back": back}


def check_algebra(op: Op, ans: dict) -> str:
    f, g, h = ans["f"], ans["g"], ans["h"]
    for x in op.checks:
        if h.value(x) != f.value(g.value(x)):
            raise CheckFailed(f"compose disagrees with nested values at {x}")
        y = x
        for n, fn in enumerate(ans["powers"], start=1):
            y = f.value(y)
            if fn.value(x) != y:
                raise CheckFailed(f"power {n} disagrees with iterates at {x}")
    special = set(f.special_points().points)
    for z in ans["sset"]:
        y, hit = z, False
        for _ in range(6):
            if y in special:
                hit = True
                break
            y = f.value(y)
        if not hit:
            raise CheckFailed(f"{z} in the preimage set never hits a special "
                              "point within 6 steps")
    for y, roots in zip(op.points, ans["roots"]):
        if any(f.value(x) != y for x in roots):
            raise CheckFailed(f"a preimage root of {y} does not map to it")
    if ans["back"] != h:
        raise CheckFailed("to_text / parse_map round trip changed the map")
    return "|".join([h.to_text(), ",".join(str(len(p.pieces))
                                           for p in ans["powers"]),
                     _fmt(ans["sset"]), *(_fmt(r) for r in ans["roots"])])


# -- census -------------------------------------------------------------------

def run_census(op: Op) -> dict:
    f = maps.parse_map(op.texts[0])
    found = orbits.periodic_points(f, 8, max_power=16)
    classes = []
    for orb in found:
        if not orb.continuous or orb.kind == HALF_POINT:
            continue
        try:
            classes.append(taxonomy.taxonomy(f, orb))
        except PreconditionError:
            classes.append(None)
    bound = taxonomy.count_bound(f, 8) if f.special_points().points else None
    return {"f": f, "orbits": found, "classes": classes, "bound": bound}


def check_census(op: Op, ans: dict) -> str:
    f = ans["f"]
    for orb in ans["orbits"]:
        _check_closes(f, orb)
    rep = ans["bound"]
    if rep is not None:
        sp = f.special_points()
        limit = len(sp.turning) + 2 * len(sp.discontinuities) + 2
        if len(rep.orbits) != rep.count_found or rep.count_found > limit \
                or rep.bound != limit or not rep.holds:
            raise CheckFailed("count_bound does not hold")
    tax = ["-" if t is None else f"{t.critical:d}{t.trapped:d}{t.free:d}"
           f"{t.boundary_case}{sorted(t.exceptional)}"
           for t in ans["classes"]]
    bound = "-" if rep is None else repr(sorted(rep.to_dict().items()))
    return "|".join([_fmt_orbits(ans["orbits"]), ",".join(tax), bound])


# -- stability ----------------------------------------------------------------

def run_stability(op: Op) -> dict:
    f = maps.parse_map(op.texts[0])
    out = []
    for st in harness.closed_structures(f):
        verdicts = [(x, stability.classify_point(f, x, require_confined=False),
                     stability.oracle_classify(f, x)) for x in st.nodes]
        prop = stability.stability_propagation_report(f, st)
        try:
            cyc = stability.cycle_stability_report(f, st)
        except CycleBudgetError:
            cyc = None    # over the node budget; see `outcomes`
        out.append((st, verdicts, prop, cyc))
    return {"f": f, "structures": out}


def check_stability(op: Op, ans: dict) -> str:
    parts = []
    for st, verdicts, prop, cyc in ans["structures"]:
        for x, germ, oracle in verdicts:
            if germ != oracle:
                raise CheckFailed(f"germ verdict {germ} and oracle verdict "
                                  f"{oracle} disagree at {x}")
        if not prop.consistent or (cyc is not None and not cyc.consistent):
            raise CheckFailed(f"stability rule violated on the structure of "
                              f"{st.root}")
        parts.append(f"{st.root}:{len(st.nodes)}:"
                     f"{'-' if cyc is None else len(cyc.cycles)}:"
                     + ",".join(v for _, v, _ in verdicts))
    return "|".join(parts)


# -- duality ------------------------------------------------------------------

def run_duality(op: Op) -> dict:
    f = maps.parse_map(op.texts[0])
    regular = []
    for w in f.special_points().points:
        verdict = codes.is_regular(f, w)
        attractor = (codes.regular_attractor(f, w)
                     if verdict.value == codes.YES else None)
        regular.append((w, verdict.value, attractor))
    x = op.points[0]
    good = codes.avoids_special_forever(f, x)
    found = codes.codes(f, x) if good.value == codes.YES else None
    return {"f": f, "regular": regular, "good": good.value, "codes": found}


def check_duality(op: Op, ans: dict) -> str:
    f = ans["f"]
    for _, _, res in ans["regular"]:
        if res is not None:
            _check_closes(f, res.orbit)
    if ans["codes"] is not None and len(ans["codes"]) != 1:
        raise CheckFailed(f"good point {op.points[0]} has "
                          f"{len(ans['codes'])} codes")
    parts = [f"{w}:{v}:-" if r is None else
             f"{w}:{v}:{_fmt(r.orbit.points)}{r.stability}"
             f"{r.attracted_verdict}" for w, v, r in ans["regular"]]
    parts.append(f"{ans['good']}:{ans['codes']}")
    return "|".join(parts)


def outcomes(workload: str, ans: dict) -> dict[str, int]:
    """Answers an op gave short of a full one, by kind.

    `unknown` counts trivalent verdicts that ran out of their cap, which is
    a valid answer.  `budget_skip` counts structures over the cycle
    analysis's node budget (`CycleBudgetError`), which the property suite
    skips in the same way; one in about 1500 stability ops has one.  Both
    are reported beside the metrics; neither makes the op fail.
    """
    if workload == "duality":
        verdicts = [v for _, v, _ in ans["regular"]] + [ans["good"]]
        return {"unknown": verdicts.count(codes.UNKNOWN)}
    if workload == "stability":
        return {"budget_skip": sum(cyc is None
                                   for *_, cyc in ans["structures"])}
    return {}


RUN = {"algebra": run_algebra, "census": run_census,
       "stability": run_stability, "duality": run_duality}
CHECK = {"algebra": check_algebra, "census": check_census,
         "stability": check_stability, "duality": check_duality}


def _check_closes(f, orb) -> None:
    pts = orb.points
    for i, p in enumerate(pts):
        nxt = f.value(p)
        if nxt is None and orb.selector is not None:
            nxt = f.lateral(p, orb.selector.side_at(p))
        if nxt != pts[(i + 1) % len(pts)]:
            raise CheckFailed(f"periodic orbit {_fmt(pts)} does not close")


def _fmt(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _fmt_orbits(found) -> str:
    return ";".join(f"{o.kind}{o.period}{_fmt(o.points)}{o.continuous:d}"
                    for o in found)
