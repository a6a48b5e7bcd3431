"""Germ orbits on integer triples against the Fraction germ step they
replaced.

`orbits.germ_orbit`, `germ_step`, the landing indices of `stability` and
the lateral powers of `taxonomy` step (p, q, plus) triples by the one germ
step, `orbits._germ_successor`, on each map's integer table.
`_ref_germ_step` and `_ref_germ_orbit` below are the Fraction code they
replaced, kept as the reference: every orbit, step and error message must
be the same.
"""

import random
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

from pwdyn import harness, orbits
from pwdyn.harness import (GeneratorConfig, _corpus, closed_structures,
                           run_suite)
from pwdyn.maps import MINUS, PLUS, PiecewiseMap, as_fraction, parse_map
from pwdyn.orbits import (DENOM_BIT_CAP, HALF_POINT, Germ, GermOrbit,
                          GermStepResult, PeriodicOrbit, VariantSelector,
                          germ_orbit, germ_step, periodic_points)
from pwdyn.stability import (CONTRACTING, EXPANDING, NEUTRAL,
                             NotConfinedError, SideClass, classify_point,
                             classify_side, find_connection, germs_of,
                             lateral_oracle, stability_propagation_report)
from pwdyn.taxonomy import _lateral_power
from test_orbits import _ref_piece_left_of, _ref_piece_right_of
from test_piece_kernel import _cold, _corpus_maps, _outcome

# -- the Fraction germ step, the reference ------------------------------------


def _ref_germ_step(f, g):
    g = Germ(as_fraction(g.point), g.side)
    g.validate(f)
    if g.side == PLUS:
        branch = _ref_piece_right_of(f, g.point)
    else:
        branch = _ref_piece_left_of(f, g.point)
    point = branch.value_at(g.point)
    side = g.side if branch.slope > 0 else MINUS if g.side == PLUS else PLUS
    return GermStepResult(Germ(point, side), abs(branch.slope))


def _ref_germ_orbit(f, g, cap):
    if cap < 1:
        raise ValueError("cap must be >= 1")
    g = Germ(as_fraction(g.point), g.side)
    g.validate(f)
    seen = {}
    germs = []
    slopes = []
    current = g
    for _ in range(cap):
        if current in seen:
            i = seen[current]
            germs.append(current)
            return GermOrbit(tuple(germs), tuple(slopes), i,
                             len(germs) - 1 - i, False)
        if current.point.denominator.bit_length() > DENOM_BIT_CAP:
            break
        seen[current] = len(germs)
        germs.append(current)
        step = _ref_germ_step(f, current)
        slopes.append(step.slope_magnitude)
        current = step.next
    return GermOrbit(tuple(germs), tuple(slopes), len(germs), 0, True)


# -- comparisons -----------------------------------------------------------------


def _germs(f, rng):
    """Germs at a and b, on both sides of every breakpoint, at the special
    and periodic points, and at seeded rationals, plus the three that do
    not exist: left of a, right of b, and one outside [a, b]."""
    points = {f.a, f.b, *f.breakpoints, *f.special_points().points,
              *(x for o in periodic_points(f, 2) for x in o.points)}
    points |= {f.a + (f.b - f.a) * F(rng.randrange(1, 97), 97)
               for _ in range(3)}
    out = [Germ(x, side) for x in sorted(points) for side in (MINUS, PLUS)]
    return out + [Germ(f.b + 1, PLUS)]


def test_germ_orbits_match_the_fraction_reference(monkeypatch):
    """Every orbit and error at GERM_CAP set to 1, 2, 16 and 10**4, on the
    pinned and 40 generated maps with their mirrors, each map cold for its
    first germ; some orbits close, some stop at the cap and some at the
    denominator bit cap, lowered to 64 bits on both sides so that a
    truncated orbit stays short."""
    monkeypatch.setattr(orbits, "DENOM_BIT_CAP", 64)
    monkeypatch.setitem(globals(), "DENOM_BIT_CAP", 64)
    rng = random.Random(41)
    seen = set()
    for f in _corpus_maps(40):
        f = _cold(f)
        for g in _germs(f, rng):
            for cap in (1, 2, 16, 10**4):
                want = _outcome(_ref_germ_orbit, f, g, cap)
                monkeypatch.setattr(orbits, "GERM_CAP", cap)
                assert _outcome(germ_orbit, f, g) == want, \
                    (f.to_text(), g, cap)
                if isinstance(want, str):
                    seen.add("error")
                elif not want.truncated:
                    seen.add("cycle")
                else:
                    bits = len(want.germs) < cap
                    seen.add("bit cap" if bits else "cap")
    assert seen == {"cycle", "cap", "bit cap", "error"}


def test_germ_orbit_at_the_full_bit_cap(maps):
    """An orbit that runs into the 4096-bit denominator budget, before any
    cap, ends the same way as the reference's."""
    for name, x in (("hat", F(1, 3)), ("contraction", F(2, 7))):
        f = _cold(maps[name])
        want = _ref_germ_orbit(f, Germ(x, PLUS), 10**4)
        assert want.truncated and 1000 < len(want.germs) < 10**4
        assert germ_orbit(f, Germ(x, PLUS)) == want


def test_germ_step_matches_the_fraction_reference():
    """`germ_step` and the lateral powers of `taxonomy`, which take the
    same germ step on the same integer table, against the Fraction step,
    including the errors for germs that do not exist."""
    rng = random.Random(43)
    for f in _corpus_maps(20):
        f = _cold(f)
        for g in _germs(f, rng):
            want = _outcome(_ref_germ_step, f, g)
            assert _outcome(germ_step, f, g) == want, (f.to_text(), g)
            if isinstance(want, str):
                continue
            h = g
            for _ in range(5):
                h = _ref_germ_step(f, h).next
            assert _lateral_power(f, g.point, g.side, 5) == h.point


# -- side verdicts and half-point cycles on the Fraction orbit, the
# reference for the int walk record they read --------------------------------


def _ref_classify_side(f, x, side):
    """`classify_side`, which checks no structure, as it read the cycle
    product of the Fraction germ orbit."""
    go = _ref_germ_orbit(f, Germ(x, side), 10**4)
    if go.truncated:
        raise NotConfinedError(f"germ orbit of ({x}, {side}) found no cycle")
    product = F(1)
    for s in go.slopes[go.preperiod:]:
        product *= s
    verdict = (CONTRACTING if product < 1 else NEUTRAL if product == 1
               else EXPANDING)
    return SideClass(side, verdict, product)


def _ref_half_point_cycle(f, w, side, max_period, jumps):
    """`orbits._half_point_cycle` as it read the Fraction germ orbit."""
    go = _ref_germ_orbit(f, Germ(w, side), 4 * max_period + 8)
    if go.truncated or go.preperiod != 0 or go.period > max_period:
        return None
    cycle = go.germs[:go.period]
    pts = [g.point for g in cycle]
    if pts.count(w) != 1:
        return None
    choice = {}
    for g in cycle:
        if g.point in jumps:
            if g.point in choice and choice[g.point] != g.side:
                return None
            choice[g.point] = g.side
    for j in sorted(jumps):
        choice.setdefault(j, MINUS)
    return PeriodicOrbit(tuple(pts), go.period,
                         VariantSelector.from_dict(choice), kind=HALF_POINT,
                         anchor_side=side)


# germ cycles that close at once but come back to a jump on its other side:
# (1/2, plus) -> (1/8, plus) -> (1/2, minus) -> (7/8, minus) -> (1/2, plus)
TWO_SIDED = """interval 0 1
piece 0 1/8 : slope 1 intercept 0
piece 1/8 1/4 : slope -1 intercept 5/8
piece 1/4 1/2 : slope 1 intercept 3/8
piece 1/2 3/4 : slope 1 intercept -3/8
piece 3/4 1 : slope -1 intercept 11/8
"""


def test_side_verdicts_and_half_point_cycles_match_the_fraction_orbit(
        monkeypatch):
    """On the pinned and 30 generated maps with their mirrors and
    TWO_SIDED, each map cold: `classify_side` at both sides of every node
    of every closed structure, and `_half_point_cycle` at both sides of
    every jump for periods 1 to 4, against the reference on
    `_ref_germ_orbit`; some cycles are accepted, and some close at once
    but are rejected, for visiting the anchor twice or another jump on
    both sides.  Then, on new cold maps with the denominator bit cap
    lowered to 64 bits on both sides so that a truncated walk stays
    short, `classify_side` at (a + 2b)/3, where some walks find no cycle
    and so raise NotConfinedError."""
    seen = Counter()
    maps = [*_corpus_maps(30), parse_map(TWO_SIDED)]
    for f in map(_cold, maps):
        jumps = set(f.special_points().discontinuities)
        nodes = {x for st in closed_structures(f) for x in st.nodes}
        for x in sorted(nodes):
            for g in germs_of(f, x):
                want = _ref_classify_side(f, x, g.side)
                assert classify_side(f, x, g.side) == want, \
                    (f.to_text(), x, g.side)
                seen[want.verdict] += 1
        for w in sorted(jumps):
            for side in (MINUS, PLUS):
                for period in (1, 2, 3, 4):
                    want = _ref_half_point_cycle(f, w, side, period, jumps)
                    assert orbits._half_point_cycle(
                        f, w, side, period) == want, \
                        (f.to_text(), w, side, period)
                    seen["accepted" if want else "rejected"] += 1
                    walk = _ref_germ_orbit(f, Germ(w, side), 4 * period + 8)
                    if want is None and not walk.truncated \
                            and walk.preperiod == 0 \
                            and walk.period <= period:
                        pts = [g.point for g in walk.germs]
                        seen["anchor twice" if pts.count(w) > 2
                             else "jump on both sides"] += 1
    monkeypatch.setattr(orbits, "DENOM_BIT_CAP", 64)
    monkeypatch.setitem(globals(), "DENOM_BIT_CAP", 64)
    for f in map(_cold, maps):
        x = (f.a + 2 * f.b) / 3
        for side in (MINUS, PLUS):
            want = _outcome(_ref_classify_side, f, x, side)
            assert _outcome(classify_side, f, x, side) == want, \
                (f.to_text(), side)
            if isinstance(want, str):
                assert want.startswith("NotConfinedError: ")
                seen["truncated"] += 1
    assert {CONTRACTING, NEUTRAL, EXPANDING, "accepted", "rejected",
            "anchor twice", "jump on both sides", "truncated"} <= set(seen), \
        seen


def test_germs_are_made_only_for_results(monkeypatch):
    """`orbits._germ`, which makes a Germ of a walk's triple, runs on no
    triple under `classify_point`, `stability_propagation_report` and
    `find_connection` on cold maps; under `periodic_points` it runs only
    inside `_half_point_cycle` calls that accept a cycle, once per germ of
    that cycle."""
    made = []
    real_germ, real_half = orbits._germ, orbits._half_point_cycle
    calls = []  # (orbit or None, Germs made) per half-point cycle call

    def germ(key):
        made.append(key)
        return real_germ(key)

    def half_point_cycle(*args):
        before = len(made)
        orb = real_half(*args)
        calls.append((orb, len(made) - before))
        return orb

    monkeypatch.setattr(orbits, "_germ", germ)
    monkeypatch.setattr(orbits, "_half_point_cycle", half_point_cycle)
    checked = 0
    seen = Counter()
    for f in _corpus(GeneratorConfig(seed=11), "germ-count", 20):
        structures = closed_structures(_cold(f))
        f = _cold(f)
        made.clear()
        for st in structures:
            for x in st.nodes:
                classify_point(f, x, require_confined=False)
            stability_propagation_report(f, st)
            for y in st.nodes:
                for z in st.nodes:
                    checked += find_connection(f, st, y, z, 1) is not None
        assert made == [], f.to_text()
        made.clear()
        calls.clear()
        periodic_points(_cold(f), 4)
        assert len(made) == sum(n for _, n in calls)
        assert all(n == (0 if orb is None else orb.period)
                   for orb, n in calls), f.to_text()
        seen.update("accepted" if orb else "rejected" for orb, _ in calls)
    assert checked > 100
    assert {"accepted", "rejected"} <= set(seen), seen


def test_a_side_other_than_minus_or_plus_is_an_error(maps):
    """A germ or a lateral limit on a side other than "minus" or "plus"
    raises ValueError naming the side, at an endpoint and inside, where
    the side was once read as minus."""
    hat = maps["hat"]
    for x, side in ((F(0), "up"), (F(1, 3), "left"), (F(1, 2), "right"),
                    (F(1), "plus ")):
        calls = (lambda: germ_orbit(hat, Germ(x, side)),
                 lambda: classify_side(hat, x, side),
                 lambda: lateral_oracle(hat, x, side),
                 lambda: hat.lateral(x, side))
        for call in calls:
            with pytest.raises(ValueError, match=repr(side)):
                call()
    assert hat.lateral(F(1, 2), MINUS) == hat.lateral(F(1, 2), PLUS) == F(5, 8)


# the rotation by 1/10007: every germ cycle has 10007 germs, past GERM_CAP
ROTATION = ("interval 0 1\n"
            "piece 0 10006/10007 : slope 1 intercept 1/10007\n"
            "piece 10006/10007 1 : slope 1 intercept -10006/10007\n")


def _germ_entries(f):
    """f's memo keys of every germ kind."""
    return [key for key in f._cache if key[0].startswith("germ")]


def _one_off_walks(f):
    """(line head, call) for the germ walks read once: `germ_orbit` at the
    germs of the jumps, the half-point cycles to period 8, and
    the suite's two probes (a node's germ at twice the node count plus
    two germs, a special point's germs at 500), each read as the probe
    reads it."""
    specials = f.special_points()
    for x in specials.discontinuities:
        for g in germs_of(f, x):
            yield (f"orbit {g}", lambda g=g: germ_orbit(f, g))
    for w in specials.discontinuities:
        for side in (MINUS, PLUS):
            yield (f"half {w} {side}", partial(orbits._half_point_cycle, f,
                                               w, side, 8))
    for st in closed_structures(_cold(f)):
        cap = 2 * len(st.nodes) + 2
        for g in (g for p in st.nodes for g in germs_of(f, p)):
            yield (f"probe {g} {cap}", lambda g=g, cap=cap: orbits._germ_walk(
                f, orbits._germ_key(f, g), cap)[2] is None)
    for g in (g for w in specials.points for g in germs_of(f, w)):
        yield (f"probe {g} 500", lambda g=g: orbits._germ_walk(
            f, orbits._germ_key(f, g), 500)[2] == 0)


def test_a_germ_walk_read_once_leaves_no_memo(maps, monkeypatch):
    """Only `stability._germ_cycle` memoizes a germ walk, keyed on the germ
    alone, and only a walk that closes within GERM_CAP germs.  On one map
    each, `germ_orbit` at a germ that GERM_CAP truncates (the rotation by
    1/10007) and at one that the 4096-bit cap truncates (hat at 1/3), the
    half-point cycles and both suite probes leave no germ entry, and a
    side verdict that finds no cycle raises and leaves none; in a run of
    the two suite properties that probe germ walks, every germ entry is a
    germ cycle.  `classify_side` answers are the same when the side
    verdicts and those walks run in a shuffled order on cold maps."""
    rot = parse_map(ROTATION)
    assert germ_orbit(rot, Germ(F(0), PLUS)).truncated
    assert len(germ_orbit(rot, Germ(F(0), PLUS)).germs) == orbits.GERM_CAP
    hat = _cold(maps["hat"])
    go = germ_orbit(hat, Germ(F(1, 3), PLUS))
    assert go.truncated and len(go.germs) < orbits.GERM_CAP
    for f, x in ((rot, F(0)), (hat, F(1, 3))):
        with pytest.raises(NotConfinedError, match="found no cycle"):
            classify_side(f, x, PLUS)
        assert _germ_entries(f) == [], f.to_text()
    texts = [maps[name].to_text() for name in ("shift", "fourcycle",
                                               "twocycle", "hat")]
    texts += [f.to_text() for f in _corpus(GeneratorConfig(seed=23),
                                           "germ-memo", 8)]
    seen = Counter()
    for text in texts:
        f = parse_map(text)
        walks = list(_one_off_walks(f))
        seen.update(head.split()[0] for head, _ in walks)
        for _, call in walks:
            call()
        assert _germ_entries(f) == [], text

    def calls(text):
        f = parse_map(text)
        points = set(f.special_points().points)
        points.update(p for st in closed_structures(_cold(f))
                      for p in st.nodes)
        for x in sorted(points):
            for g in germs_of(f, x):
                yield (f"side {g}", partial(_outcome, classify_side, f, x,
                                            g.side))
        yield from _one_off_walks(f)

    canonical = [(head, call()) for text in texts
                 for head, call in calls(text)]
    shuffled = [list(calls(text)) for text in texts]
    order = [(i, j) for i, run in enumerate(shuffled)
             for j in range(len(run))]
    random.Random(41).shuffle(order)
    answers = {}
    for i, j in order:
        head, call = shuffled[i][j]
        answers[i, j] = (head, call())
    assert [answers[i, j] for i, j in sorted(answers)] == canonical
    verdicts = Counter(str(a) for head, a in canonical
                       if head.startswith("side "))
    assert len(verdicts) >= 4 and min(seen.values()) > 0, (verdicts, seen)

    keys, probes = [], Counter()
    real, real_walk = PiecewiseMap._memo, harness._germ_walk
    monkeypatch.setattr(PiecewiseMap, "_memo", lambda self, key, build: (
        keys.append(key) or real(self, key, build)))
    monkeypatch.setattr(harness, "_germ_walk", lambda f, key, cap: (
        probes.update([cap == 500]) or real_walk(f, key, cap)))
    run_suite(GeneratorConfig(seed=7), {"orbit_invariants", "code_invariants"},
              counts={"orbit_invariants": 2, "code_invariants": 2})
    assert probes[True] and probes[False], probes
    germ_keys = [key for key in keys if key[0].startswith("germ")]
    assert all(key[0] == "germ_cycle" and len(key) == 2
               for key in germ_keys), germ_keys
