import functools
import hashlib
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F

import pytest

from pwdyn import stability
from pwdyn.harness import (GeneratorConfig, _corpus, closed_structures,
                           random_map)
from pwdyn.maps import MINUS, PLUS, AffinePiece, PiecewiseMap, parse_map
from pwdyn.orbits import (Germ, _half_point_cycle, germ_orbit, interval_walk,
                          periodic_points, structure)
from pwdyn.pinned import pinned_map, pinned_maps
from pwdyn.stability import (CONTRACTING, EXPANDING, NEUTRAL, ORACLE_MAX_STEPS,
                             ORACLE_WIDTH, Connection, NotConfinedError,
                             PropagationReport, RuleViolation, SEMI_STABLE,
                             STABLE, SideClass, UNSTABLE, _gap_to_specials,
                             classify_point, classify_side,
                             cycle_stability_report, find_connection,
                             germs_of, lateral_oracle, oracle_classify,
                             stability_propagation_report,
                             subsampled_stability_report)
from test_piece_kernel import _cold


def test_classify_side_examples(maps):
    side = classify_side(maps["contraction"], F(1, 2), "plus")
    assert side.verdict == CONTRACTING and side.cycle_product == F(1, 2)
    side = classify_side(maps["shift"], F(1, 2), "plus")
    assert side.verdict == NEUTRAL and side.cycle_product == 1
    side = classify_side(maps["tent"], F(3, 5), "minus")
    assert side.verdict == EXPANDING and side.cycle_product == F(9, 4)


def test_classify_point_examples(maps):
    assert classify_point(maps["contraction"], F(1, 2)) == STABLE
    assert classify_point(maps["identity"], F(2, 7)) == UNSTABLE
    assert classify_point(maps["semistable"], F(1, 2)) == SEMI_STABLE
    assert classify_point(maps["shift"], F(1, 2)) == UNSTABLE
    assert classify_point(maps["tent"], F(3, 5)) == UNSTABLE


def test_classify_endpoint_convention(maps):
    # only the inward side exists at an endpoint: stable or unstable
    assert classify_point(maps["tent"], F(0)) == UNSTABLE
    f = parse_map("interval 0 1\npiece 0 1 : slope 1/2 intercept 0\n")
    assert classify_point(f, F(0)) == STABLE


def test_classify_requires_confined():
    f = parse_map("interval 0 1\npiece 0 1 : slope 2/3 intercept 1/4\n")
    with pytest.raises(NotConfinedError):
        classify_point(f, F(1, 7))


def test_oracle_matches_germ_on_pinned(maps):
    cases = [
        ("contraction", F(1, 2)), ("identity", F(1, 3)),
        ("semistable", F(1, 2)), ("shift", F(1, 2)), ("shift", F(3, 8)),
        ("tent", F(3, 5)), ("tent", F(0)), ("hat", F(7, 12)),
        ("twocycle", F(1, 3)), ("decreasing2", F(1, 4)),
        ("decreasing2", F(1, 2)),
    ]
    for name, x in cases:
        f = maps[name]
        assert classify_point(f, x, require_confined=False) == \
            oracle_classify(f, x), (name, x)


def test_oracle_side_verdicts(maps):
    assert lateral_oracle(maps["semistable"], F(1, 2), "minus") == CONTRACTING
    assert lateral_oracle(maps["semistable"], F(1, 2), "plus") == EXPANDING
    assert lateral_oracle(maps["shift"], F(1, 2), "plus") == NEUTRAL


def test_connection_levels(maps):
    f = maps["shift"]
    st = structure(f, F(1, 2))
    conn = find_connection(f, st, F(3, 8), F(1, 2), 4)
    assert conn is not None and conn.iterates == (1, 1)
    t = maps["tent"]
    stt = structure(t, F(3, 5))
    conn = find_connection(t, stt, F(3, 5), F(3, 5), 4)
    assert conn is not None and conn.iterates == (0, 0)
    # a level 4 witness yields level 1 witnesses from each germ
    assert find_connection(f, st, F(3, 8), F(1, 2), 1) is not None


def test_connection_absent_pair(maps):
    fc = maps["fourcycle"]
    st = structure(fc, F(1, 8))
    assert st.closed
    for level in (1, 2, 3, 4):
        assert find_connection(fc, st, F(1, 8), F(5, 8), level) is None
        assert find_connection(fc, st, F(5, 8), F(1, 8), level) is None


def test_propagation_reports_clean(maps):
    for name in ("shift", "fourcycle", "contraction", "semistable"):
        f = maps[name]
        for root in (f.special_points().discontinuities
                     or (f.preimage(f.value(F(1, 2)) or F(1, 2)) and [F(1, 2)])
                     or [F(1, 2)]):
            st = structure(f, root)
            if not st.closed:
                continue
            rep = stability_propagation_report(f, st)
            assert rep.consistent, rep.violations


def test_cycle_report_shift(maps):
    f = maps["shift"]
    rep = cycle_stability_report(f, structure(f, F(1, 2)))
    assert rep.consistent
    assert rep.completely_periodic
    assert rep.core == (F(1, 2),)
    assert rep.core_choice_matters
    assert "twin_half_cycles" in rep.applied
    assert set(rep.verdicts.values()) == {UNSTABLE}
    assert sorted(set(map(frozenset, rep.cycles))) in (
        sorted({frozenset({F(3, 8), F(1, 2)}), frozenset({F(1, 2), F(5, 8)})}),
        [frozenset({F(3, 8), F(1, 2)}), frozenset({F(1, 2), F(5, 8)})],
    )


def test_cycle_report_single_node(maps):
    f = maps["contraction"]
    rep = cycle_stability_report(f, structure(f, F(1, 2)))
    assert rep.consistent
    assert rep.verdicts[F(1, 2)] == STABLE


def test_subsampled_stability(maps):
    f = maps["twocycle"]
    orb = [o for o in periodic_points(f, 2) if o.period == 2][0]
    rep = subsampled_stability_report(f, orb)
    assert rep.consistent and rep.germ_class == STABLE
    t = maps["tent"]
    orb = [o for o in periodic_points(t, 1) if o.points == (F(3, 5),)][0]
    rep = subsampled_stability_report(t, orb)
    assert rep.consistent and rep.germ_class == UNSTABLE
    c = maps["contraction"]
    rep = subsampled_stability_report(c, periodic_points(c, 1)[0])
    assert rep.consistent and rep.germ_class == STABLE


STABLE_TWINS = """interval 0 1
piece 0 3/8 : slope -1/2 intercept 5/8
piece 3/8 1/2 : slope -3/2 intercept 1
piece 1/2 1 : slope 1/2 intercept 1/4
"""

SEMI_TWINS = """interval 0 1
piece 0 3/8 : slope -1/2 intercept 5/8
piece 3/8 1/2 : slope -3/2 intercept 1
piece 1/2 5/8 : slope 2 intercept -1/2
piece 5/8 1 : slope -1/2 intercept 17/16
"""


def test_stable_twin_half_cycles():
    # a jump whose plus germ is a contracting fixed germ and whose minus
    # germ runs a contracting 2-cycle: every node stable, rules consistent
    f = parse_map(STABLE_TWINS)
    st = structure(f, F(1, 2))
    assert st.nodes == (F(1, 4), F(1, 2)) and st.closed
    assert all(classify_point(f, p, require_confined=False) == STABLE
               for p in st.nodes)
    rep = cycle_stability_report(f, st)
    assert rep.consistent and "twin_half_cycles" in rep.applied
    assert stability_propagation_report(f, st).consistent
    halves = {o.anchor_side: o for o in periodic_points(f, 2)
              if o.kind == "half_point"}
    assert halves["plus"].points == (F(1, 2),) and halves["plus"].period == 1
    assert set(halves["minus"].points) == {F(1, 2), F(1, 4)}
    assert halves["minus"].period == 2


def test_semi_stable_twin_half_cycles():
    # expanding plus germ, contracting minus cycle: semi-stable throughout,
    # exercising the semi-stable branches of both rule tables
    f = parse_map(SEMI_TWINS)
    st = structure(f, F(1, 2))
    assert all(classify_point(f, p, require_confined=False) == SEMI_STABLE
               for p in st.nodes)
    rep = cycle_stability_report(f, st)
    assert rep.consistent and "twin_half_cycles" in rep.applied
    assert stability_propagation_report(f, st).consistent


# SEMI_TWINS with a fold at 1/4, both of whose germs land on the jump's
# contracting minus germ: 1/4 is stable and lies on the minus half cycle.
SPLIT_TWINS = """interval 0 1
piece 0 1/4 : slope 1 intercept 1/4
piece 1/4 3/8 : slope -1/2 intercept 5/8
piece 3/8 1/2 : slope -3/2 intercept 1
piece 1/2 5/8 : slope 2 intercept -1/2
piece 5/8 1 : slope -1/2 intercept 17/16
"""


def test_semi_stable_twins_split_by_the_contracting_side():
    """A semi-stable intersection of the twin half cycles whose minus
    cycle holds a stable node: the minus side contracts, so that cycle is
    the non-unstable one and the expanding plus cycle the non-stable one,
    and the report is consistent."""
    f = parse_map(SPLIT_TWINS)
    st = structure(f, F(1, 2))
    assert st.nodes == (F(1, 4), F(1, 2)) and st.closed
    rep = cycle_stability_report(f, st)
    assert rep.verdicts == {F(1, 4): STABLE, F(1, 2): SEMI_STABLE}
    assert classify_side(f, F(1, 2), MINUS).verdict == CONTRACTING
    assert rep.consistent and "twin_half_cycles" in rep.applied


def test_connections_after_a_report_match_a_fresh_map():
    def connections(f):
        st = structure(f, F(1, 2))
        return [find_connection(f, st, y, z, level) for y in st.nodes
                for z in st.nodes for level in (1, 2, 3, 4)]

    warm = pinned_map("shift")
    stability_propagation_report(warm, structure(warm, F(1, 2)))
    assert connections(warm) == connections(pinned_map("shift"))


def test_lateral_oracle_rejects_sides_that_do_not_exist(maps):
    for f in maps.values():
        with pytest.raises(ValueError,
                           match="no right-hand germ at the right endpoint"):
            lateral_oracle(f, f.b, PLUS)
        with pytest.raises(ValueError,
                           match="no left-hand germ at the left endpoint"):
            lateral_oracle(f, f.a, MINUS)
    for x in (F(2), F(-1, 3)):
        with pytest.raises(ValueError) as err:
            oracle_classify(maps["hat"], x)
        assert str(err.value) == f"{x} outside [0, 1]"


# -- the interval oracle on Fractions, the reference for `interval_walk` --

def _ref_merge(parts):
    parts = sorted(p for p in parts if p[0] < p[1])
    out = []
    for lo, hi in parts:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _ref_step(f, parts):
    cuts = list(f.breakpoints)
    lefts = [piece.left for piece in f.pieces]
    out = []
    for lo, hi in parts:
        inner = cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]
        bounds = [lo] + inner + [hi]
        for p, q in zip(bounds, bounds[1:]):
            piece = f.pieces[bisect_right(lefts, (p + q) / 2) - 1]
            v1, v2 = piece.value_at(p), piece.value_at(q)
            out.append((v1, v2) if v1 <= v2 else (v2, v1))
    return _ref_merge(out)


def _ref_length(parts):
    return sum((hi - lo for lo, hi in parts), F(0))


def _ref_walk(f, lo, hi, steps, stride, thresh, floor, restart, paths):
    """The stepping loop `interval_walk` replaced, with its stop reasons;
    `paths` counts the multi-part states it meets and how it stops."""
    state = [(lo, hi)]
    start = _ref_length(state)
    seen = {}
    for step in range(1, steps + 1):
        state = _ref_step(f, state)
        paths["multi_part"] += len(state) > 1
        if len(state) > 256:
            return "parts"
        length = _ref_length(state)
        if restart and len(state) > 1 and length <= floor:
            return "restart"
        if step % stride:
            continue
        if length < thresh:
            return "short"
        if length > floor:
            return "long"
        key = tuple(state)
        if key in seen:
            return "repeat"
        seen[key] = step
    return "halved" if _ref_length(state) < start / 2 else "held"


def _ref_lateral_oracle(f, x, side, stride, paths, runs):
    """The oracle's restart loop over `_ref_walk`; `runs` collects each
    walk's arguments and stop reason."""
    verdicts = {"parts": EXPANDING, "short": CONTRACTING, "long": EXPANDING,
                "repeat": NEUTRAL, "halved": CONTRACTING, "held": NEUTRAL}
    eff = min((f.b - f.a) * ORACLE_WIDTH, _gap_to_specials(f, x) / 4)
    for k in range(9):
        lo, hi = (x, min(x + eff, f.b)) if side == PLUS else \
            (max(x - eff, f.a), x)
        args = (lo, hi, ORACLE_MAX_STEPS, stride, eff * F(1, 2**20),
                eff * 2**10, k < 8)
        reason = _ref_walk(f, *args, paths)
        runs.append((f, args, reason))
        paths[reason] += 1
        if reason != "restart":
            return verdicts[reason]
        eff = eff / 32


# generated maps on which some closed-structure node restarts the oracle
RESTART_MAPS = (
    "interval 0 1\n"
    "piece 0 1/16 : slope 3 intercept 377/8192\n"
    "piece 1/16 5/16 : slope 2 intercept 889/8192\n"
    "piece 5/16 11/16 : slope 3/4 intercept 3853/8192\n"
    "piece 11/16 1 : slope 5/2 intercept -25619/16384\n",
    "interval 0 1\n"
    "piece 0 1/16 : slope 1/3 intercept 16591/24576\n"
    "piece 1/16 3/8 : slope -1 intercept 6009/8192\n"
    "piece 3/8 7/8 : slope 3/2 intercept -107/256\n"
    "piece 7/8 1 : slope -3 intercept 1771/512\n",
)


def _oracle_inputs(f, rng, nodes):
    """a, b, every breakpoint and special point, random rationals, and
    with `nodes` the nodes of the map's closed structures."""
    points = {f.a, f.b, *f.breakpoints, *f.special_points().points}
    points |= {f.a + (f.b - f.a) * F(rng.randrange(1, 97), 97)
               for _ in range(2)}
    for st in closed_structures(f) if nodes else ():
        points |= set(st.nodes)
    return sorted(points)


def test_oracle_matches_the_fraction_reference(maps):
    """`lateral_oracle` against the Fraction loop it replaced, at stride 1
    and 3 on both sides, on the pinned maps, 100 generated maps and two
    maps whose oracle restarts; and each walk's stop reason, which a
    verdict can hide, against `interval_walk`'s."""
    rng = random.Random(41)
    cfg = GeneratorConfig(seed=5)
    corpus = [*((f, True) for f in maps.values()),
              *((random_map(cfg.sub("oracle", i)), False) for i in range(100)),
              *((parse_map(text), True) for text in RESTART_MAPS)]
    paths = Counter()
    runs = []
    checked = 0
    for f, nodes in corpus:
        for x in _oracle_inputs(f, rng, nodes):
            for side in (MINUS, PLUS):
                if (x, side) in ((f.a, MINUS), (f.b, PLUS)):
                    continue
                for stride in (1, 3):
                    assert lateral_oracle(f, x, side, stride=stride) == \
                        _ref_lateral_oracle(f, x, side, stride, paths,
                                            runs), \
                        (f.to_text(), x, side, stride)
                    checked += 1
    for f, (lo, hi, steps, stride, thresh, floor, restart), reason in runs:
        assert interval_walk(f, lo, hi, steps=steps, stride=stride,
                             thresh=thresh, floor=floor,
                             restart=restart) == reason, (f.to_text(), lo, hi)
    assert checked > 2500
    assert paths["multi_part"] > 0 and paths["restart"] > 0
    assert {"short", "long", "repeat"} <= set(paths)


def _comb(n):
    """n pieces, each halved towards its left end: every breakpoint is a
    jump and the images of the pieces are disjoint."""
    return PiecewiseMap(0, 1, [AffinePiece(F(k, n), F(k + 1, n), F(1, 2),
                                           F(k, 2 * n)) for k in range(n)])


def test_interval_walk_stop_reasons():
    """Each stop reason of `interval_walk` against the reference loop: more
    than 256 parts, a split state restarting, the stride, the length
    thresholds, a repeat and both sides of the half-length rule, a length
    of exactly half included."""
    flip = parse_map("interval 0 1\npiece 0 1 : slope -1 intercept 1\n")
    two = parse_map("interval 0 1\npiece 0 1/2 : slope 1/3 intercept 0\n"
                    "piece 1/2 1 : slope 1/3 intercept 2/3\n")
    half = parse_map("interval 0 1\npiece 0 1 : slope 1/2 intercept 0\n")
    # continuous and increasing at 1/2, so the images of the two sides touch
    bend = parse_map("interval 0 1\npiece 0 1/2 : slope 1/2 intercept 0\n"
                     "piece 1/2 1 : slope 3/2 intercept -1/2\n")
    cases = [
        (_comb(300), F(0), F(1), 5, 1, F(1, 10**6), F(2), False, "parts"),
        (_comb(300), F(0), F(1), 5, 1, F(1, 10**6), F(2), True, "parts"),
        (_comb(200), F(0), F(1), 5, 1, F(1, 10**6), F(2), True, "restart"),
        (_comb(200), F(0), F(1), 5, 1, F(1, 10**6), F(2), False, "halved"),
        (bend, F(1, 4), F(3, 4), 3, 1, F(1, 10**6), F(2), True, "halved"),
        (two, F(1, 4), F(3, 4), 50, 1, F(1, 10**9), F(2), False, "short"),
        (two, F(1, 4), F(3, 4), 2, 1, F(1, 10**9), F(2), False, "halved"),
        (flip, F(1, 4), F(1, 2), 3, 1, F(1, 8), F(1, 5), False, "long"),
        (flip, F(1, 4), F(1, 2), 5, 1, F(1, 8), F(1, 2), False, "repeat"),
        (flip, F(1, 4), F(1, 2), 1, 1, F(1, 8), F(1, 2), False, "held"),
        (half, F(0), F(1), 1, 1, F(1, 5), F(1), False, "held"),
        (half, F(0), F(1), 3, 4, F(1, 5), F(1), False, "halved"),
        (half, F(0), F(1), 3, 1, F(1, 5), F(1), False, "short"),
        (half, F(0), F(1), 8, 4, F(1, 5), F(1), False, "short"),
    ]
    for f, lo, hi, steps, stride, thresh, floor, restart, want in cases:
        got = interval_walk(f, lo, hi, steps=steps, stride=stride,
                            thresh=thresh, floor=floor, restart=restart)
        ref = _ref_walk(f, lo, hi, steps, stride, thresh, floor, restart,
                        Counter())
        assert got == ref == want, (f, lo, hi, steps, stride, got, ref)
    with pytest.raises(ValueError, match="is not an interval in"):
        interval_walk(flip, F(1, 2), F(1, 2), steps=1, stride=1,
                      thresh=F(1), floor=F(1), restart=False)


# -- connections and the propagation report on Fraction landings, the
# reference for `_connections` and the report that reads it --

def _ref_landings(f, g, z):
    lands = {}
    for k, h in enumerate(germ_orbit(f, g).germs):
        if h.point == z:
            lands.setdefault(h.side, k)
    return lands


def _ref_find_connection(f, struct, y, z, level):
    """`find_connection` as it searched each level on its own."""
    y, z = F(y), F(z)
    if y not in struct or z not in struct:
        raise ValueError("both points must be nodes of the structure")
    if not struct.closed:
        raise NotConfinedError("structure is not closed")
    ygerms = germs_of(f, y)
    if level == 1:
        for g in ygerms:
            lands = _ref_landings(f, g, z)
            if lands:
                side = min(lands, key=lambda s: lands[s])
                return Connection(y, z, 1, (lands[side],), (g,))
        return None
    if level == 2:
        if not f.a < z < f.b:
            return None
        for g in ygerms:
            lands = _ref_landings(f, g, z)
            if MINUS in lands and PLUS in lands:
                return Connection(y, z, 2, (lands[MINUS], lands[PLUS]), (g,))
        return None
    if len(ygerms) < 2:
        return None
    lminus = _ref_landings(f, ygerms[0], z)
    lplus = _ref_landings(f, ygerms[1], z)
    if level == 3:
        for side in (MINUS, PLUS):
            if side in lminus and side in lplus:
                return Connection(y, z, 3, (lminus[side], lplus[side]),
                                  tuple(ygerms))
        return None
    if level == 4:
        if not f.a < z < f.b:
            return None
        if MINUS in lminus and PLUS in lplus:
            return Connection(y, z, 4, (lminus[MINUS], lplus[PLUS]),
                              tuple(ygerms))
        if PLUS in lminus and MINUS in lplus:
            return Connection(y, z, 4, (lminus[PLUS], lplus[MINUS]),
                              tuple(ygerms))
        return None
    raise ValueError("level must be 1, 2, 3, or 4")


def _ref_combine(left, right):
    sides = [s for s in (left, right) if s is not None]
    contracting = sum(1 for s in sides if s.verdict == CONTRACTING)
    if contracting == len(sides):
        return STABLE
    if len(sides) == 2 and contracting == 1:
        return SEMI_STABLE
    return UNSTABLE


def _ref_report(f, struct):
    """`stability_propagation_report` as it asked `find_connection` for
    each (y, z, level) it needed, memoized on Fraction triples; it reads
    side verdicts through `stability.classify_side`, so a planted
    classifier reaches both reports."""
    side_classes = {}
    for p in struct.nodes:
        for g in germs_of(f, p):
            side_classes[(p, g.side)] = stability.classify_side(
                f, p, g.side)
    verdicts = {p: _ref_combine(side_classes.get((p, MINUS)),
                                side_classes.get((p, PLUS)))
                for p in struct.nodes}
    conn = {}

    def has(y, z, level):
        key = (y, z, level)
        if key not in conn:
            conn[key] = _ref_find_connection(f, struct, y, z, level)
        return conn[key] is not None

    report = PropagationReport(struct.root, verdicts, 0)

    def flag(rule, x, y, detail):
        report.violations.append(RuleViolation(rule, x, y, detail))

    for x in struct.nodes:
        cx = verdicts[x]
        inside = {x}
        frontier = [x]
        while frontier:
            frontier = [q for src, _, q in struct.edges
                        if src in frontier and q not in inside]
            inside.update(frontier)
        for y in struct.nodes:
            if y not in inside:
                continue
            report.checked += 1
            cy = verdicts[y]
            strong = (has(y, x, 4) or has(y, x, 3) or has(x, y, 4)
                      or has(x, y, 2))
            weak = (has(y, x, 2) or has(y, x, 1) or has(x, y, 3)
                    or has(x, y, 1))
            if cx == STABLE:
                if strong and cy != STABLE:
                    flag("stable_strong", x, y, f"expected stable, got {cy}")
                if weak and cy == UNSTABLE:
                    flag("stable_weak", x, y, "expected not unstable")
            elif cx == UNSTABLE:
                if strong and cy != UNSTABLE:
                    flag("unstable_strong", x, y,
                         f"expected unstable, got {cy}")
                if weak and cy == STABLE:
                    flag("unstable_weak", x, y, "expected not stable")
            else:
                sides = {s: side_classes[(x, s)] for s in (MINUS, PLUS)
                         if (x, s) in side_classes}
                _ref_semi_clauses(f, x, y, cy, sides, has, flag)
    for (y, z, level), c in conn.items():
        if level == 4 and c is not None:
            if any(not _ref_landings(f, g, z) for g in germs_of(f, y)):
                flag("level_monotonicity", y, z,
                     "level 4 connection without level 1 from each germ")
    return report


def _ref_semi_clauses(f, x, y, cy, sides, has, flag):
    if has(x, y, 4) and cy != SEMI_STABLE:
        flag("semi_x4y", x, y, f"expected semi_stable, got {cy}")
    if has(y, x, 4) and cy != SEMI_STABLE:
        flag("semi_y4x", x, y, f"expected semi_stable, got {cy}")
    if has(y, x, 3) and cy == SEMI_STABLE:
        flag("semi_y3x", x, y, "expected not semi_stable")
    if has(x, y, 2) and cy == SEMI_STABLE:
        flag("semi_x2y", x, y, "expected not semi_stable")
    if has(x, y, 3):
        flag("semi_x3y_impossible", x, y, "level 3 from a semi-stable point")
    if has(y, x, 2):
        flag("semi_y2x_impossible", x, y, "level 2 onto a semi-stable point")
    stable_sides = [s for s, c in sides.items() if c.verdict == CONTRACTING]
    unstable_sides = [s for s, c in sides.items() if c.verdict != CONTRACTING]
    for s in stable_sides:
        if _ref_landings(f, Germ(x, s), y) and cy == UNSTABLE:
            flag("semi_stable_side_forward", x, y,
                 "stable lateral neighbourhood reaches an unstable point")
    for s in unstable_sides:
        if _ref_landings(f, Germ(x, s), y) and cy == STABLE:
            flag("semi_unstable_side_forward", x, y,
                 "unstable lateral neighbourhood reaches a stable point")
    for g in germs_of(f, y):
        lands = _ref_landings(f, g, x)
        for s, cls in sides.items():
            if s in lands:
                if cls.verdict == CONTRACTING and cy == UNSTABLE:
                    flag("semi_stable_side_backward", x, y,
                         "a lateral neighbourhood of y lands on the stable side")
                if cls.verdict != CONTRACTING and cy == STABLE:
                    flag("semi_unstable_side_backward", x, y,
                         "a lateral neighbourhood of y lands on the unstable side")


RULE_CLAUSES = {
    "stable_strong", "stable_weak", "unstable_strong", "unstable_weak",
    "semi_x4y", "semi_y4x", "semi_y3x", "semi_x2y", "semi_x3y_impossible",
    "semi_y2x_impossible", "semi_stable_side_forward",
    "semi_unstable_side_forward", "semi_stable_side_backward",
    "semi_unstable_side_backward"}


@functools.lru_cache(maxsize=None)
def _structures():
    """(map, closed structure) over the pinned maps and 300 seeded maps,
    each map a cold copy so that no memo is shared with other tests."""
    maps = [*pinned_maps().values(),
            *_corpus(GeneratorConfig(seed=7), "connections", 300)]
    return tuple((f, st) for f in map(_cold, maps)
                 for st in closed_structures(f))


def test_connections_match_the_fraction_reference():
    """`find_connection` at every level of every ordered node pair, and
    the propagation report of every closed structure, against the
    per-level search and the Fraction-triple memo they replaced."""
    pairs = Counter()
    for f, st in _structures():
        for y in st.nodes:
            for z in st.nodes:
                for level in (1, 2, 3, 4):
                    conn = find_connection(f, st, y, z, level)
                    assert conn == _ref_find_connection(f, st, y, z, level), \
                        (f.to_text(), st.root, y, z, level)
                    pairs[level] += conn is not None
        assert stability_propagation_report(f, st) == _ref_report(f, st), \
            (f.to_text(), st.root)
    assert len(_structures()) > 500
    assert min(pairs.values()) > 50, pairs


def _planted_side(f, x, side):
    """A side verdict drawn from a hash of (map, point, side)."""
    digest = hashlib.sha256(f"{f.to_text()}|{x}|{side}".encode()).digest()
    verdict = (CONTRACTING, CONTRACTING, NEUTRAL, EXPANDING)[digest[0] % 4]
    return SideClass(side, verdict, F(digest[1] + 1, 128))


def test_planted_verdicts_give_the_reference_violations(monkeypatch):
    """With side verdicts planted, every clause of the report fires, and
    each structure's violations equal the reference's in order and
    multiplicity."""
    monkeypatch.setattr(stability, "classify_side", _planted_side)
    fired = Counter()
    for f, st in _structures():
        report = stability_propagation_report(f, st)
        assert report == _ref_report(f, st), (f.to_text(), st.root)
        fired.update(v.rule for v in report.violations)
    assert set(fired) == RULE_CLAUSES, fired


def test_reports_read_nodes_by_position(monkeypatch):
    """On cold maps, one propagation report validates each node germ once,
    in `classify_side`, and a report and the cycle search hash at most two
    Fractions per node and edge: reachable sets, node classes and cycles
    run on node positions, not on Fraction nodes per node pair."""
    hashes, validated = [0], []
    real_hash, real_validate = F.__hash__, Germ.validate

    def counted_hash(self):
        hashes[0] += 1
        return real_hash(self)

    def counted_validate(g, f):
        validated.append((g.point, g.side))
        real_validate(g, f)

    largest = 0
    for f in _corpus(GeneratorConfig(seed=13), "positions", 150):
        f = _cold(f)
        for st in closed_structures(f):
            size = len(st.nodes) + len(st.edges)
            largest = max(largest, len(st.nodes))
            validated.clear()
            with monkeypatch.context() as m:
                m.setattr(F, "__hash__", counted_hash)
                m.setattr(Germ, "validate", counted_validate)
                hashes[0] = 0
                stability_propagation_report(f, st)
                in_report, hashes[0] = hashes[0], 0
                if len(st.nodes) <= stability.CYCLE_NODE_BUDGET:
                    stability._cycles(stability._successors(st))
                in_cycles = hashes[0]
            germs = [(p, g.side) for p in st.nodes for g in germs_of(f, p)]
            assert sorted(validated) == sorted(germs), (f.to_text(), st.root)
            assert max(in_report, in_cycles) <= 2 * size, \
                (f.to_text(), st.root, in_report, in_cycles, size)
    assert largest > 64


def test_cycle_reports_read_nodes_by_position(monkeypatch):
    """On cold maps whose node classes the propagation report has found, a
    cycle report hashes at most two Fractions per node and edge outside the
    twin half-cycle check, which looks the half-point cycles' points up by
    value: node classes, cycles, the core and the jump and turning nodes
    are read by node position, not per cycle position."""
    hashes, paused = [0], [False]
    real_hash, real_twin = F.__hash__, stability._check_twin_half_cycles

    def counted_hash(self):
        hashes[0] += not paused[0]
        return real_hash(self)

    def uncounted_twin(*args):
        paused[0] = True
        try:
            real_twin(*args)
        finally:
            paused[0] = False

    applied, largest = Counter(), 0
    maps = [f for seed in (17, 19, 31)
            for f in _corpus(GeneratorConfig(seed=seed), "positions", 150)]
    for f in map(_cold, maps):
        for st in closed_structures(f):
            if len(st.nodes) > stability.CYCLE_NODE_BUDGET:
                continue
            stability_propagation_report(f, st)
            with monkeypatch.context() as m:
                m.setattr(F, "__hash__", counted_hash)
                m.setattr(stability, "_check_twin_half_cycles",
                          uncounted_twin)
                hashes[0] = 0
                report = cycle_stability_report(f, st)
            size = len(st.nodes) + len(st.edges)
            assert hashes[0] <= 2 * size, \
                (f.to_text(), st.root, hashes[0], size)
            applied.update(set(report.applied))
            largest = max(largest, len(st.nodes))
    assert largest > 50 and min(applied.values()) > 1, (largest, applied)


# -- the cycle-level clauses as each stable / unstable pair was written out,
# the reference ------------------------------------------------------------


def _ref_cycle_report(f, struct, classify):
    """`cycle_stability_report` with each stable clause and its unstable
    mirror written out, point verdicts from `classify`."""
    if len(struct.nodes) > stability.CYCLE_NODE_BUDGET:
        return "budget"
    verdicts = {p: classify(f, p) for p in struct.nodes}
    cycles = [tuple(struct.nodes[i] for i in c) for c in
              stability._cycles(stability._successors(struct))]
    on_cycle = {p for cyc in cycles for p in cyc}
    completely_periodic = set(struct.nodes) <= on_cycle
    core, choice_matters = (), False
    if completely_periodic and cycles:
        inter = set(cycles[0])
        for cyc in cycles[1:]:
            inter &= set(cyc)
        core = tuple(sorted(inter))
        counts = {p: sum(p in cyc for cyc in cycles) for p in struct.nodes}
        choice_matters = any(c > 1 for c in counts.values())
    report = stability.CycleRuleReport(struct.root, verdicts, cycles,
                                       completely_periodic, core,
                                       choice_matters)
    jumps = set(f.special_points().discontinuities) & set(struct.nodes)
    turns = set(f.special_points().turning)

    def flag(rule, x, y, detail):
        report.violations.append(RuleViolation(rule, x, y, detail))

    for cyc in cycles:
        _ref_single_jump_cycle(cyc, jumps, verdicts, report, flag)
        if not any(p in jumps for p in cyc):
            report.applied.append("continuous_cycle")
            classes = {verdicts[p] for p in cyc}
            if len(classes) > 1:
                flag("continuous_cycle_uniform", cyc[0], cyc[0],
                     f"mixed classes {sorted(classes)} along a continuous "
                     "cycle")
    if len(jumps) == 1:
        _ref_twin_half_cycles(f, next(iter(jumps)), struct, verdicts, report,
                              flag)
    if completely_periodic and core:
        report.applied.append("core")
        for z in core:
            cz = verdicts[z]
            if cz == STABLE and any(verdicts[p] != STABLE
                                    for p in struct.nodes):
                flag("core_stable", z, z, "stable core with non-stable node")
            if cz == UNSTABLE and any(verdicts[p] != UNSTABLE
                                      for p in struct.nodes):
                flag("core_unstable", z, z,
                     "unstable core with non-unstable node")
            if cz == SEMI_STABLE and any(verdicts[p] != SEMI_STABLE
                                         for p in core):
                flag("core_semi", z, z, "semi-stable core not uniform")
    if not any(p in turns for p in struct.nodes):
        report.applied.append("no_turns_uniform")
        classes = {verdicts[p] for p in struct.nodes}
        if len(classes) > 1:
            flag("no_turns_uniform", struct.root, struct.root,
                 f"mixed classes {sorted(classes)} without turning points")
    return report


def _ref_single_jump_cycle(cyc, jumps, verdicts, report, flag):
    in_cycle_jumps = [p for p in cyc if p in jumps]
    if len(in_cycle_jumps) != 1:
        return
    report.applied.append("single_jump_cycle")
    w = in_cycle_jumps[0]
    wi = cyc.index(w)
    n = len(cyc)
    for off in range(1, n):
        x = cyc[(wi + off) % n]
        bs = [cyc[(wi + j) % n] for j in range(1, off)]
        as_ = [cyc[(wi + off + j) % n] for j in range(1, n - off)]
        cx = verdicts[x]
        if cx == STABLE:
            for b in bs:
                if verdicts[b] != STABLE:
                    flag("single_jump_stable_b", x, b, "expected stable")
            for a in as_:
                if verdicts[a] == UNSTABLE:
                    flag("single_jump_stable_a", x, a, "expected not unstable")
            if verdicts[w] == UNSTABLE:
                flag("single_jump_stable_w", x, w, "expected not unstable")
        elif cx == UNSTABLE:
            for b in bs:
                if verdicts[b] != UNSTABLE:
                    flag("single_jump_unstable_b", x, b, "expected unstable")
            for a in as_:
                if verdicts[a] == STABLE:
                    flag("single_jump_unstable_a", x, a, "expected not stable")
            if verdicts[w] == STABLE:
                flag("single_jump_unstable_w", x, w, "expected not stable")
        else:
            for a in as_:
                if verdicts[a] != SEMI_STABLE:
                    flag("single_jump_semi_a", x, a, "expected semi_stable")
            if verdicts[w] != SEMI_STABLE:
                flag("single_jump_semi_w", x, w, "expected semi_stable")


def _ref_twin_half_cycles(f, w, struct, verdicts, report, flag):
    plus_cyc = _half_point_cycle(f, w, PLUS, len(struct.nodes) + 2)
    minus_cyc = _half_point_cycle(f, w, MINUS, len(struct.nodes) + 2)
    if plus_cyc is None or minus_cyc is None:
        return
    report.applied.append("twin_half_cycles")
    inter = set(plus_cyc.points) & set(minus_cyc.points)
    nodes = struct.nodes
    for z in sorted(inter):
        cz = verdicts.get(z)
        if cz == STABLE and any(verdicts[p] != STABLE for p in nodes):
            flag("twin_stable", z, w, "stable intersection, non-stable node")
        if cz == UNSTABLE and any(verdicts[p] != UNSTABLE for p in nodes):
            flag("twin_unstable", z, w,
                 "unstable intersection, non-unstable node")
        if cz == SEMI_STABLE:
            for y in sorted(inter):
                if verdicts[y] != SEMI_STABLE:
                    flag("twin_semi_intersection", z, y,
                         "expected semi_stable")
            sides = {s: classify_side(f, w, s).verdict for s in (MINUS, PLUS)}
            stable_side = MINUS if sides[MINUS] == CONTRACTING else PLUS
            stable_cycle = minus_cyc if stable_side == MINUS else plus_cyc
            other_cycle = plus_cyc if stable_side == MINUS else minus_cyc
            ok_a = all(verdicts[p] != UNSTABLE for p in stable_cycle.points)
            ok_b = all(verdicts[p] != STABLE for p in other_cycle.points)
            if not (ok_a and ok_b):
                flag("twin_semi_split", z, w,
                     "side cycles not split into non-unstable / non-stable")


CYCLE_CLAUSES = {
    "single_jump_stable_b", "single_jump_stable_a", "single_jump_stable_w",
    "single_jump_unstable_b", "single_jump_unstable_a",
    "single_jump_unstable_w", "single_jump_semi_a", "single_jump_semi_w",
    "continuous_cycle_uniform", "core_stable", "core_unstable", "core_semi",
    "twin_stable", "twin_unstable", "twin_semi_intersection",
    "twin_semi_split", "no_turns_uniform"}
# no planted verdicts at seed 7 make these fire
CYCLE_CLAUSES_UNFIRED = {"single_jump_stable_a", "twin_stable",
                         "twin_semi_intersection"}


def _planted_point(f, x, *, require_confined=True):
    """A point verdict drawn from a hash of (map, point)."""
    digest = hashlib.sha256(f"{f.to_text()}|{x}".encode()).digest()
    return (STABLE, SEMI_STABLE, UNSTABLE)[digest[0] % 3]


def test_planted_verdicts_give_the_reference_cycle_violations(monkeypatch):
    """With point verdicts planted, each structure's cycle report equals
    the reference's, violations in order and multiplicity, and every
    cycle clause but the three named ones fires."""
    monkeypatch.setattr(stability, "classify_point", _planted_point)
    fired = Counter()
    for f, st in _structures():
        try:
            report = cycle_stability_report(f, st)
        except stability.CycleBudgetError:
            report = "budget"
        assert report == _ref_cycle_report(f, st, _planted_point), \
            (f.to_text(), st.root)
        if report != "budget":
            fired.update(v.rule for v in report.violations)
    assert set(fired) == CYCLE_CLAUSES - CYCLE_CLAUSES_UNFIRED, fired


def test_find_connection_rejects_a_bad_level(maps, monkeypatch):
    """A level outside 1..4 raises for a source with one germ and for one
    with two, before any landing is read."""
    tent, shift = maps["tent"], maps["shift"]
    at_end, inside = structure(tent, F(0)), structure(shift, F(1, 2))
    assert at_end.nodes == (F(0),) and F(3, 8) in inside.nodes

    def unread(*args):
        raise AssertionError("a landing was read")

    monkeypatch.setattr(stability, "_landings", unread)
    for f, st, y in ((tent, at_end, F(0)), (shift, inside, F(3, 8))):
        for level in (0, 5):
            with pytest.raises(ValueError, match="level must be 1, 2, 3, or 4"):
                find_connection(f, st, y, y, level)
