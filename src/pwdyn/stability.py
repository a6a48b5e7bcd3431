"""Stability of confined points, lateral connections, and rule tables.

A confined point is classified through its two germ orbits: the product of
branch slope magnitudes around a germ cycle decides whether the one-sided
neighbourhood it stands for shrinks to nothing (product below one), keeps a
fixed length (exactly one), or grows until it escapes its branches (above
one).  An independent oracle cross-checks this by iterating an actual
one-sided interval, split exactly at breakpoints, and watching the total
length of the fragments; `orbits.interval_walk` does the iteration on
integer pairs and names why it stopped, and this module turns that
reason into a verdict.

Connections transport classification between points of a closed structure:
four levels, depending on whether one or both germs of the source reach one
or both germs of the target.  All four come from one table per ordered node
pair, `_connections`: the landing rows of the source's germs at the target,
read off each germ's cycle (`_germ_cycle`); the table reads its target's
pair itself.  `find_connection` looks a level up in it; `pwdyn connections`
and the propagation report read each node's germ cycles once, then one
table per node pair (the report: per pair whose target the source
reaches), and read every level or clause off it.  Both reports read a
structure by node position: reachability, node classes and cycles run on
ints, and a node germ is validated once, in `classify_side`.  The rule
tables below state every implication of the four levels, and both report
violations as replayable bundles through one core, `_RuleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Optional

from .maps import (MINUS, PLUS, BudgetError, Pair, PiecewiseMap, PwdynError,
                   RationalLike, Side, _pair, _table, as_fraction)
from .orbits import (GERM_CAP, Germ, GermKey, PeriodicOrbit, StructureGraph,
                     _germ, _germ_key, _germ_walk, _half_point_cycle,
                     interval_walk, structure)

STABLE = "stable"
SEMI_STABLE = "semi_stable"
UNSTABLE = "unstable"
# each stable clause of the rule tables, read with this table, is also
# its unstable mirror: the rule name and message name the class
_MIRROR = {STABLE: UNSTABLE, UNSTABLE: STABLE}

CONTRACTING = "contracting"
NEUTRAL = "neutral"
EXPANDING = "expanding"

ORACLE_WIDTH = Fraction(1, 2**20)  # of the domain length
ORACLE_MAX_STEPS = 10**4
CYCLE_NODE_BUDGET = 64
CYCLE_LIMIT = 4000


class NotConfinedError(PwdynError):
    """The point's structure is not closed, so germ cycles need not exist."""


@dataclass(frozen=True)
class SideClass:
    side: Side
    verdict: str
    cycle_product: Fraction


def germs_of(f: PiecewiseMap, x: Fraction) -> list[Germ]:
    out = []
    if x > f.a:
        out.append(Germ(x, MINUS))
    if x < f.b:
        out.append(Germ(x, PLUS))
    return out


def _germ_cycle(f: PiecewiseMap, key: GermKey) -> tuple[dict, int, int]:
    """The one germ memo, on f per germ: the landing index of its walk to
    GERM_CAP, and the cycle's |A1 ... Ak| and D1 ... Dk.  A walk that does
    not close raises NotConfinedError, so none is kept."""
    def build():
        index, steps, start = _germ_walk(f, key, GERM_CAP)
        if start is None:
            g = _germ(key)
            raise NotConfinedError(
                f"germ orbit of ({g.point}, {g.side}) found no cycle")
        cycle = [_table(f).coefs[i] for i in steps[start:]]
        return (index, prod(abs(c[0]) for c in cycle),
                prod(c[2] for c in cycle))

    return f._memo(("germ_cycle", key), build)


def classify_side(f: PiecewiseMap, x: RationalLike, side: Side) -> SideClass:
    """Verdict for one lateral neighbourhood from its germ cycle product
    (`_germ_cycle`), unchecked for confinement: `classify_point` checks."""
    _, num, den = _germ_cycle(f, _germ_key(f, Germ(x, side)))
    verdict = (CONTRACTING if num < den else NEUTRAL if num == den
               else EXPANDING)
    return SideClass(side, verdict, Fraction(num, den))


def combine_sides(verdicts: list[str]) -> str:
    """Two-sided class from the verdicts of the sides that exist.

    At an endpoint only the inward side exists and decides between stable
    and unstable; a single neutral or expanding side already rules out
    stability of any neighbourhood.
    """
    contracting = verdicts.count(CONTRACTING)
    if contracting == len(verdicts):
        return STABLE
    if len(verdicts) == 2 and contracting == 1:
        return SEMI_STABLE
    return UNSTABLE


def classify_point(f: PiecewiseMap, x: RationalLike, *,
                   require_confined: bool = True) -> str:
    x = as_fraction(x)
    if require_confined and not structure(f, x).closed:
        raise NotConfinedError(f"structure of {x} is not closed")
    return combine_sides([classify_side(f, x, g.side).verdict
                          for g in germs_of(f, x)])


# -- interval-iteration oracle ------------------------------------------------

def _gap_to_specials(f: PiecewiseMap, x: Fraction) -> Fraction:
    (xn, xd), best = _pair(x), (1, 0)  # |n/d - x| = g / (d * xd); 1/0
    for n, d in map(_pair, (*f.special_points().points, f.a, f.b)):
        if (g := abs(n * xd - xn * d)) and g * best[1] < best[0] * d:
            best = g, d
    return Fraction(best[0], best[1] * xd)  # a < b: one end differs from x


def lateral_oracle(f: PiecewiseMap, x: RationalLike, side: Side, *,
                   stride: int = 1) -> str:
    """Brute-force verdict for one lateral neighbourhood.

    Iterates the actual closed interval of width delta = 2^-20 * (b - a),
    clipped to a quarter of the distance to the nearest other special point
    so the witness interval starts inside a single branch, for at most
    ORACLE_MAX_STEPS steps.  Contracting once the total fragment length
    falls below 2^-20 * delta, expanding once it exceeds 2^10 * delta,
    neutral on exact state repetition; the first eight of nine walks
    restart with delta / 32 when the interval splits into parts of total
    length at most 2^10 * delta.  With stride > 1 the thresholds are only
    consulted every stride steps, which is the subsampled stability
    criterion.  A side that does not exist at x or is not minus or plus,
    or an x outside the domain, raises ValueError as `Germ.validate` does.
    """
    x = as_fraction(x)
    Germ(x, side).validate(f)
    delta = min((f.b - f.a) * ORACLE_WIDTH, _gap_to_specials(f, x) / 4)
    for final in (False,) * 8 + (True,):
        lo, hi = ((x, min(x + delta, f.b)) if side == PLUS
                  else (max(x - delta, f.a), x))
        verdict = _VERDICTS[interval_walk(
            f, lo, hi, steps=ORACLE_MAX_STEPS, stride=stride,
            thresh=delta * Fraction(1, 2**20), floor=delta * 2**10,
            restart=not final)]
        if verdict != "restart":
            return verdict
        delta = delta / 32


# the verdict behind each way `interval_walk` stops
_VERDICTS = {"parts": EXPANDING, "restart": "restart", "short": CONTRACTING,
             "long": EXPANDING, "repeat": NEUTRAL, "halved": CONTRACTING,
             "held": NEUTRAL}


def oracle_classify(f: PiecewiseMap, x: RationalLike, *,
                    stride: int = 1) -> str:
    """Two-sided class from the interval oracle alone."""
    x = as_fraction(x)
    return combine_sides([lateral_oracle(f, x, g.side, stride=stride)
                          for g in germs_of(f, x)])


# -- connections ---------------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    source: Fraction
    target: Fraction
    level: int
    iterates: tuple[int, ...]
    germs: tuple[Germ, ...]


def _walks(f: PiecewiseMap, x: Fraction
           ) -> list[tuple[Germ, dict[GermKey, int]]]:
    """x's germs, each with the landing index of its cycle; x is a node,
    in [a, b], so `germs_of` gives germs that need no `Germ.validate`."""
    return [(g, _germ_cycle(f, (*_pair(x), g.side == PLUS))[0])
            for g in germs_of(f, x)]


def _landings(index: dict[GermKey, int], z: Pair) -> dict[Side, int]:
    """Earliest iterate count at which a germ orbit sits at z, per arrival
    side, within one full cycle, looked up in its landing index."""
    return {side: index[(*z, side == PLUS)] for side in (MINUS, PLUS)
            if (*z, side == PLUS) in index}


def _connections(y: Fraction, z: Fraction,
                 walks: list[tuple[Germ, dict[GermKey, int]]]
                 ) -> tuple[dict[Side, dict[Side, int]], dict[int, Connection]]:
    """The landing rows of y's germs at z (per germ side of y, `_landings`
    of its walk at z's own pair), and every level 1..4 connection from
    y to z that they give (see `find_connection`), each level with its
    first witness in germ and arrival-side order.  Both germs of z are
    reached only when z is interior: an endpoint is reached from inside."""
    rows = {g.side: _landings(index, _pair(z)) for g, index in walks}
    found: dict[int, Connection] = {}
    for g, _ in walks:
        lands = rows[g.side]
        if lands and 1 not in found:
            side = min(lands, key=lands.get)
            found[1] = Connection(y, z, 1, (lands[side],), (g,))
        if MINUS in lands and PLUS in lands and 2 not in found:
            found[2] = Connection(y, z, 2, (lands[MINUS], lands[PLUS]), (g,))
    if len(walks) == 2:
        lminus, lplus = rows[MINUS], rows[PLUS]
        for level, s, t in ((3, MINUS, MINUS), (3, PLUS, PLUS),
                            (4, MINUS, PLUS), (4, PLUS, MINUS)):
            if level not in found and s in lminus and t in lplus:
                found[level] = Connection(y, z, level, (lminus[s], lplus[t]),
                                          tuple(g for g, _ in walks))
    return rows, found


def find_connection(f: PiecewiseMap, struct: StructureGraph, y: RationalLike,
                    z: RationalLike, level: int) -> Optional[Connection]:
    """Search germ orbits for a level 1..4 connection from y to z.

    Level 1: some germ of y reaches some germ of z.  Level 2: one germ of y
    reaches both germs of z.  Level 3: both germs of y reach the same germ
    of z.  Level 4: both germs of y reach opposite germs of z.  The landing
    indices are those of the germs' cycles, memoized on the map.
    """
    y, z = as_fraction(y), as_fraction(z)
    if y not in struct or z not in struct:
        raise ValueError("both points must be nodes of the structure")
    if level not in (1, 2, 3, 4):
        raise ValueError("level must be 1, 2, 3, or 4")
    if not struct.closed:
        raise NotConfinedError("structure is not closed")
    return _connections(y, z, _walks(f, y))[1].get(level)


# -- rule tables ----------------------------------------------------------------

@dataclass(frozen=True)
class RuleViolation:
    rule: str
    x: Fraction
    y: Fraction
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "x": str(self.x), "y": str(self.y),
                "detail": self.detail}


class _RuleReport:
    """The one core of both rule reports: `flag` and `consistent`."""

    @property
    def consistent(self) -> bool:
        return not self.violations

    def flag(self, rule: str, x: Fraction, y: Fraction, detail: str) -> None:
        self.violations.append(RuleViolation(rule, x, y, detail))


@dataclass
class PropagationReport(_RuleReport):
    root: Fraction
    verdicts: dict[Fraction, str]
    checked: int
    violations: list[RuleViolation] = field(default_factory=list)


def _successors(struct: StructureGraph) -> list[list[int]]:
    """Each node position's edge targets, as positions, in edge order."""
    at = {p: i for i, p in enumerate(struct.nodes)}
    succ: list[list[int]] = [[] for _ in struct.nodes]
    for src, _, dst in struct.edges:
        succ[at[src]].append(at[dst])
    return succ


def _reachable(i: int, succ: list[list[int]]) -> set[int]:
    seen = {i}
    stack = [i]
    while stack:
        for q in succ[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def stability_propagation_report(f: PiecewiseMap, struct: StructureGraph
                                 ) -> PropagationReport:
    """Check every connection-based stability implication on a closed
    structure: fourteen clauses over the ordered node pairs (x, y) with y
    reachable from x, each read off the `_connections` of (x, y) and
    (y, x), one per pair, over germ walks read once per node."""
    if not struct.closed:
        raise NotConfinedError("structure is not closed")
    nodes = struct.nodes
    walks = [_walks(f, p) for p in nodes]
    sides = [{g.side: classify_side(f, p, g.side).verdict for g, _ in w}
             for p, w in zip(nodes, walks)]
    classes = [combine_sides(list(s.values())) for s in sides]
    succ = _successors(struct)
    reach = [_reachable(i, succ) for i in range(len(nodes))]
    # a germ lands only on nodes its point reaches: other pairs have no rows
    table = {(i, j): _connections(nodes[i], nodes[j], walks[i])
             for i in range(len(nodes)) for j in reach[i]}

    report = PropagationReport(struct.root, {}, len(table))
    flag = report.flag
    for i, x in enumerate(nodes):
        cx = classes[i]
        for j in sorted(reach[i]):
            y, cy = nodes[j], classes[j]
            # rows and levels from x to y, and from y to x
            xy, yx = table[i, j], table.get((j, i), ({}, {}))
            strong = 4 in yx[1] or 3 in yx[1] or 4 in xy[1] or 2 in xy[1]
            weak = 2 in yx[1] or 1 in yx[1] or 3 in xy[1] or 1 in xy[1]
            if cx in _MIRROR:
                if strong and cy != cx:
                    flag(f"{cx}_strong", x, y, f"expected {cx}, got {cy}")
                if weak and cy == _MIRROR[cx]:
                    flag(f"{cx}_weak", x, y, f"expected not {_MIRROR[cx]}")
            else:
                _check_semi_clauses(x, y, cy, sides[i], xy, yx, flag)
    report.verdicts = dict(zip(nodes, classes))
    return report


def _check_semi_clauses(x, y, cy, sides, xy, yx, flag) -> None:
    """The clauses for a semi-stable x and a node y it reaches: `sides`
    maps x's sides to their verdicts, `xy` and `yx` are the landing rows
    and connection levels of (x, y) and (y, x)."""
    (xrows, xlevels), (yrows, ylevels) = xy, yx
    if 4 in xlevels and cy != SEMI_STABLE:
        flag("semi_x4y", x, y, f"expected semi_stable, got {cy}")
    if 4 in ylevels and cy != SEMI_STABLE:
        flag("semi_y4x", x, y, f"expected semi_stable, got {cy}")
    if 3 in ylevels and cy == SEMI_STABLE:
        flag("semi_y3x", x, y, "expected not semi_stable")
    if 2 in xlevels and cy == SEMI_STABLE:
        flag("semi_x2y", x, y, "expected not semi_stable")
    if 3 in xlevels:
        flag("semi_x3y_impossible", x, y, "level 3 from a semi-stable point")
    if 2 in ylevels:
        flag("semi_y2x_impossible", x, y, "level 2 onto a semi-stable point")
    # a stable side flags only an unstable y and an unstable side only a
    # stable one, so one pass over the sides keeps the flags' order
    for s, verdict in sides.items():
        if xrows[s] and verdict == CONTRACTING and cy == UNSTABLE:
            flag("semi_stable_side_forward", x, y,
                 "stable lateral neighbourhood reaches an unstable point")
        if xrows[s] and verdict != CONTRACTING and cy == STABLE:
            flag("semi_unstable_side_forward", x, y,
                 "unstable lateral neighbourhood reaches a stable point")
    for lands in yrows.values():
        for s, verdict in sides.items():
            if s in lands:
                if verdict == CONTRACTING and cy == UNSTABLE:
                    flag("semi_stable_side_backward", x, y,
                         "a lateral neighbourhood of y lands on the stable side")
                if verdict != CONTRACTING and cy == STABLE:
                    flag("semi_unstable_side_backward", x, y,
                         "a lateral neighbourhood of y lands on the unstable side")


# -- cycle-level rules -----------------------------------------------------------

@dataclass
class CycleRuleReport(_RuleReport):
    root: Fraction
    verdicts: dict[Fraction, str]
    cycles: list[tuple[Fraction, ...]]
    completely_periodic: bool
    core: tuple[Fraction, ...]
    core_choice_matters: bool
    violations: list[RuleViolation] = field(default_factory=list)
    applied: list[str] = field(default_factory=list)


class CycleBudgetError(BudgetError):
    """Cycle enumeration on a structure exceeded its budget."""


def _cycles(succ: list[list[int]]) -> list[tuple[int, ...]]:
    """All simple directed cycles on positions, in order, each rotated to
    start at its least position.  Simple cycles can be exponentially many
    on branching structures, so the enumeration aborts past CYCLE_LIMIT
    cycles or 8 * CYCLE_LIMIT search steps instead of hanging.  Node
    positions ascend with the nodes, so cycles start and sort as their
    points would."""
    cycles = set()
    steps = [0]

    def dfs(path: list[int], seen: set[int]):
        steps[0] += 1
        if steps[0] > CYCLE_LIMIT * 8 or len(cycles) > CYCLE_LIMIT:
            raise CycleBudgetError(f"more than {CYCLE_LIMIT} simple cycles "
                                   f"or {CYCLE_LIMIT * 8} steps")
        for q in succ[path[-1]]:
            if q == path[0]:
                i = path.index(min(path))
                cycles.add(tuple(path[i:] + path[:i]))
            elif q not in seen:
                dfs(path + [q], seen | {q})

    for start in range(len(succ)):
        dfs([start], {start})
    return sorted(cycles)


def cycle_stability_report(f: PiecewiseMap, struct: StructureGraph
                           ) -> CycleRuleReport:
    """Verify the cycle-level propagation rules on a closed structure:
    single-jump cycles, twin half-point cycles at one jump, completely
    periodic structures with a nonempty core, and continuous cycles.
    Structures over CYCLE_NODE_BUDGET nodes raise CycleBudgetError."""
    if not struct.closed:
        raise NotConfinedError("structure is not closed")
    nodes = struct.nodes
    if len(nodes) > CYCLE_NODE_BUDGET:
        raise CycleBudgetError(
            f"structure has {len(nodes)} nodes, over the "
            f"{CYCLE_NODE_BUDGET}-node cycle analysis budget")
    classes = [classify_point(f, p, require_confined=False) for p in nodes]
    at_cycles = _cycles(_successors(struct))
    cycles = [tuple(nodes[i] for i in cyc) for cyc in at_cycles]
    completely_periodic = len({i for c in at_cycles for i in c}) == len(nodes)
    core: tuple[Fraction, ...] = ()
    choice_matters = False
    if completely_periodic and at_cycles:
        inter = set(at_cycles[0]).intersection(*at_cycles[1:])
        core = tuple(nodes[i] for i in sorted(inter))
        # every node is on a cycle, so one is on two iff the lengths sum past n
        choice_matters = sum(map(len, at_cycles)) > len(nodes)
    report = CycleRuleReport(struct.root, {}, cycles, completely_periodic,
                             core, choice_matters)
    special = f.special_points()
    jumps = [i for i, p in enumerate(nodes) if p in special.discontinuities]
    flag = report.flag
    for at, cyc in zip(at_cycles, cycles):
        cls = [classes[i] for i in at]
        js = [k for k, i in enumerate(at) if i in jumps]
        _check_single_jump_cycle(cyc, cls, js, report)
        if not js:
            report.applied.append("continuous_cycle")
            if len(set(cls)) > 1:
                flag("continuous_cycle_uniform", cyc[0], cyc[0], "mixed classes "
                     f"{sorted(set(cls))} along a continuous cycle")
    report.verdicts = dict(zip(nodes, classes))
    if len(jumps) == 1:
        _check_twin_half_cycles(f, nodes[jumps[0]], struct, report)
    if completely_periodic and core:
        report.applied.append("core")
        for z, cz in ((nodes[i], classes[i]) for i in sorted(inter)):
            if cz in _MIRROR and any(c != cz for c in classes):
                flag(f"core_{cz}", z, z, f"{cz} core with non-{cz} node")
            if cz == SEMI_STABLE and any(classes[i] != SEMI_STABLE
                                         for i in inter):
                flag("core_semi", z, z, "semi-stable core not uniform")
    if not any(p in special.turning for p in nodes):
        report.applied.append("no_turns_uniform")
        if len(set(classes)) > 1:
            flag("no_turns_uniform", struct.root, struct.root,
                 f"mixed classes {sorted(set(classes))} without turning points")
    return report


def _check_single_jump_cycle(cyc, cls, js, report):
    if len(js) != 1:
        return
    report.applied.append("single_jump_cycle")
    flag = report.flag
    wi, n = js[0], len(cyc)
    w, cw = cyc[wi], cls[wi]
    for off in range(1, n):
        xi = (wi + off) % n
        x, cx = cyc[xi], cls[xi]
        # points strictly after w up to x are the b's, after x the a's
        bs = [(wi + j) % n for j in range(1, off)]
        as_ = [(xi + j) % n for j in range(1, n - off)]
        if cx in _MIRROR:
            other = _MIRROR[cx]
            for b in bs:
                if cls[b] != cx:
                    flag(f"single_jump_{cx}_b", x, cyc[b], f"expected {cx}")
            for a in as_:
                if cls[a] == other:
                    flag(f"single_jump_{cx}_a", x, cyc[a],
                         f"expected not {other}")
            if cw == other:
                flag(f"single_jump_{cx}_w", x, w, f"expected not {other}")
        else:
            for a in as_:
                if cls[a] != SEMI_STABLE:
                    flag("single_jump_semi_a", x, cyc[a], "expected semi_stable")
            if cw != SEMI_STABLE:
                flag("single_jump_semi_w", x, w, "expected semi_stable")


def _check_twin_half_cycles(f, w, struct, report):
    plus_cyc = _half_point_cycle(f, w, PLUS, len(struct.nodes) + 2)
    minus_cyc = _half_point_cycle(f, w, MINUS, len(struct.nodes) + 2)
    if plus_cyc is None or minus_cyc is None:
        return
    report.applied.append("twin_half_cycles")
    flag, verdicts = report.flag, report.verdicts
    inter = set(plus_cyc.points) & set(minus_cyc.points)
    for z in sorted(inter):
        cz = verdicts.get(z)
        if cz in _MIRROR and any(c != cz for c in verdicts.values()):
            flag(f"twin_{cz}", z, w, f"{cz} intersection, non-{cz} node")
        if cz == SEMI_STABLE:
            for y in sorted(inter):
                if verdicts[y] != SEMI_STABLE:
                    flag("twin_semi_intersection", z, y, "expected semi_stable")
            minus = classify_side(f, w, MINUS).verdict == CONTRACTING
            stable_cycle, other_cycle = ((minus_cyc, plus_cyc) if minus
                                         else (plus_cyc, minus_cyc))
            ok_a = all(verdicts[p] != UNSTABLE for p in stable_cycle.points)
            ok_b = all(verdicts[p] != STABLE for p in other_cycle.points)
            if not (ok_a and ok_b):
                flag("twin_semi_split", z, w,
                     "side cycles not split into non-unstable / non-stable")


# -- subsampled stability ---------------------------------------------------------

@dataclass(frozen=True)
class SubsampleReport:
    orbit: PeriodicOrbit
    germ_class: str
    full_class: str
    subsampled_class: str

    @property
    def consistent(self) -> bool:
        return self.germ_class == self.full_class == self.subsampled_class


def subsampled_stability_report(f: PiecewiseMap, orbit: PeriodicOrbit
                                ) -> SubsampleReport:
    """Check that watching lengths only every period-many steps gives the
    same class as watching every step, and that both match the germ verdict."""
    if not orbit.continuous:
        raise ValueError("subsampled stability needs a continuous orbit")
    x = orbit.representative
    return SubsampleReport(
        orbit,
        classify_point(f, x),
        oracle_classify(f, x, stride=1),
        oracle_classify(f, x, stride=orbit.period),
    )
