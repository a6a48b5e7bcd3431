import ast
import hashlib
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

from pwdyn import orbits, taxonomy
from pwdyn.codes import (UNKNOWN, Code, Trivalent, avoids_special_forever,
                         codes, regularity_certificate)
from pwdyn.harness import SWEEP_NODE_CAP, GeneratorConfig, _corpus, random_map
from pwdyn.maps import (MINUS, PLUS, AffinePiece, PiecewiseMap, PwdynError,
                        _image, _table, compose, parse_map)
from pwdyn.orbits import (DENOM_BIT_CAP, Germ, HALF_POINT, INTERVAL_FAMILY,
                          StructureGraph, VariantLimitError, VariantSelector,
                          ball_stops, germ_orbit, germ_step, orbit,
                          periodic_points, structure, variant_step, variants,
                          walk)
from pwdyn.pinned import PINNED_NAMES, pinned_maps, pinned_text
from pwdyn.stability import (classify_point, oracle_classify,
                             stability_propagation_report)
from pwdyn.taxonomy import attracted, window_sweep


def plus_selector(f):
    return [s for s in variants(f)
            if all(side == "plus" for _, side in s.choice)][0]


def test_variants_counts(maps):
    assert len(variants(maps["shift"])) == 2
    assert len(variants(maps["tent"])) == 1
    f = parse_map("interval 0 1\n"
                  "piece 0 1/3 : slope 1/2 intercept 0\n"
                  "piece 1/3 2/3 : slope 1/2 intercept 1/3\n"
                  "piece 2/3 1 : slope 1/2 intercept 1/4\n")
    assert len(f.special_points().discontinuities) == 2
    assert len(variants(f)) == 4


def test_orbit_examples(maps):
    f = maps["shift"]
    for sel in variants(f):
        res = orbit(f, F(1, 3), sel)
        assert res.prefix == (F(1, 3),)
        assert res.cycle == (F(11, 24), F(7, 12))
    res = orbit(maps["identity"], F(2, 7), variants(maps["identity"])[0])
    assert res.prefix == () and res.cycle == (F(2, 7),)
    res = orbit(f, F(1, 2), plus_selector(f))
    assert res.cycle == (F(1, 2), F(3, 8))
    assert len(res.cycle) == 2


def test_orbit_truncation():
    # slope 2/3 contraction never exactly repeats
    f = parse_map("interval 0 1\npiece 0 1 : slope 2/3 intercept 1/4\n")
    res = orbit(f, F(1, 7), variants(f)[0], cap=50)
    assert res.truncated and res.cycle is None
    assert res.steps_used == 50


def test_structure_examples(maps):
    f = maps["shift"]
    st = structure(f, F(1, 2))
    assert st.nodes == (F(3, 8), F(1, 2), F(5, 8))
    assert st.closed and not st.truncated
    assert structure(maps["identity"], F(2, 5)).nodes == (F(2, 5),)
    st3 = structure(f, F(1, 3))
    assert st3.nodes == (F(1, 3), F(11, 24), F(7, 12))
    assert st3.closed


def test_structure_superset_of_orbits(maps):
    f = maps["shift"]
    st = structure(f, F(1, 2))
    for sel in variants(f):
        res = orbit(f, F(1, 2), sel)
        pts = set(res.prefix) | set(res.cycle or ())
        assert pts <= set(st.nodes)


def test_germ_step(maps):
    f = maps["shift"]
    step = germ_step(f, Germ(F(1, 2), "plus"))
    assert step.next == Germ(F(3, 8), "plus")
    assert step.slope_magnitude == 1
    t = maps["tent"]
    step = germ_step(t, Germ(F(1, 2), "plus"))
    assert step.next == Germ(F(3, 4), "minus")
    assert step.slope_magnitude == F(3, 2)
    ident = maps["identity"]
    step = germ_step(ident, Germ(F(2, 5), "minus"))
    assert step.next == Germ(F(2, 5), "minus")


def test_germ_validity(maps):
    with pytest.raises(ValueError):
        germ_step(maps["shift"], Germ(F(0), "minus"))
    with pytest.raises(ValueError):
        germ_step(maps["shift"], Germ(F(1), "plus"))


def test_germ_orbit(maps):
    f = maps["shift"]
    go = germ_orbit(f, Germ(F(1, 2), "plus"))
    assert go.preperiod == 0 and go.period == 2
    assert go.cycle_product == 1
    assert [g.point for g in go.cycle] == [F(1, 2), F(3, 8)]
    go = germ_orbit(maps["contraction"], Germ(F(1, 2), "plus"))
    assert go.period == 1 and go.cycle_product == F(1, 2)
    go = germ_orbit(maps["tent"], Germ(F(3, 5), "plus"))
    assert go.period == 2 and go.cycle_product == F(9, 4)


def test_germ_cycle_bound(maps, monkeypatch):
    # inside a closed structure the germ orbit cycles within twice the nodes
    f = maps["shift"]
    st = structure(f, F(1, 2))
    monkeypatch.setattr(orbits, "GERM_CAP", 2 * len(st.nodes) + 2)
    for p in st.nodes:
        for side in ("minus", "plus"):
            go = germ_orbit(f, Germ(p, side))
            assert not go.truncated


def test_periodic_points_tent(maps):
    orbs = periodic_points(maps["tent"], 1)
    assert [o.points for o in orbs] == [(F(0),), (F(3, 5),)]
    orbs2 = periodic_points(maps["tent"], 2)
    two = [o for o in orbs2 if o.period == 2]
    assert len(two) == 1 and set(two[0].points) == {F(6, 13), F(9, 13)}


def test_periodic_points_shift_families_and_half_points(maps):
    orbs = periodic_points(maps["shift"], 2)
    kinds = sorted(o.kind for o in orbs)
    assert kinds == [HALF_POINT, HALF_POINT, INTERVAL_FAMILY]
    fam = [o for o in orbs if o.kind == INTERVAL_FAMILY][0]
    assert fam.intervals == ((F(3, 8), F(1, 2)), (F(1, 2), F(5, 8)))
    assert fam.period == 2 and fam.continuous
    halves = {o.anchor_side: o for o in orbs if o.kind == HALF_POINT}
    assert set(halves["plus"].points) == {F(1, 2), F(3, 8)}
    assert set(halves["minus"].points) == {F(1, 2), F(5, 8)}
    assert not halves["plus"].continuous


def test_periodic_points_identity(maps):
    orbs = periodic_points(maps["identity"], 1)
    assert len(orbs) == 1
    fam = orbs[0]
    assert fam.kind == INTERVAL_FAMILY
    assert fam.intervals == ((F(0), F(1)),)
    assert fam.interval_closed == (True, True)


def test_periodic_cycles_close(maps):
    for name in ("tent", "hat", "twocycle", "decreasing2"):
        f = maps[name]
        for orb in periodic_points(f, 4, max_power=8):
            if orb.kind == HALF_POINT:
                continue
            pts = list(orb.points)
            for i, p in enumerate(pts):
                assert f.value(p) == pts[(i + 1) % len(pts)]


def test_half_point_cycles_close(maps):
    f = maps["shift"]
    for orb in periodic_points(f, 2):
        if orb.kind != HALF_POINT:
            continue
        pts = list(orb.points)
        for i, p in enumerate(pts):
            v = f.value(p)
            if v is None:
                v = f.lateral(p, orb.selector.side_at(p))
            assert v == pts[(i + 1) % len(pts)]


def test_minimal_period_filter(maps):
    # the fixed point of the hat map must not reappear at higher periods
    orbs = periodic_points(maps["hat"], 4, max_power=8)
    assert [o.points for o in orbs] == [(F(7, 12),)]


def test_variant_bit_limit():
    """The 21-jump map of `test_cli.py::test_cobweb_past_twenty_jumps` is
    past the 20-bit limit."""
    f = parse_map("interval 0 1\n" + "".join(
        f"piece {F(i, 22)} {F(i + 1, 22)} : slope 1/2 "
        f"intercept {F(i % 2, 2)}\n" for i in range(22)))
    with pytest.raises(VariantLimitError,
                       match="^21 jump points exceed the 20-bit limit$"):
        variants(f)


def test_structure_cap_truncation(maps):
    st = structure(maps["shift"], F(1, 2), cap=2)
    assert not st.closed and st.truncated
    with pytest.raises(ValueError, match="cap must be >= 1"):
        structure(maps["shift"], F(1, 2), cap=0)


def _ref_structure(f, x, cap):
    """The breadth-first expansion on Fractions that `structure` replaced,
    the reference for its pair arithmetic."""
    jumps = set(f.special_points().discontinuities)
    nodes = {x}
    edges = []
    frontier = [x]
    truncated = False
    while frontier:
        nxt = []
        for p in frontier:
            if p in jumps:
                succ = [(MINUS, f.lateral(p, MINUS)), (PLUS, f.lateral(p, PLUS))]
            else:
                succ = [(None, f.value(p))]
            for side, q in succ:
                edges.append((p, side, q))
                if q in nodes:
                    continue
                if len(nodes) >= cap or \
                        q.denominator.bit_length() > DENOM_BIT_CAP:
                    truncated = True
                    continue
                nodes.add(q)
                nxt.append(q)
        frontier = nxt
    return StructureGraph(x, tuple(sorted(nodes)), tuple(edges),
                          closed=not truncated, truncated=truncated)


def test_structure_matches_the_fraction_reference(maps):
    """`structure` against the Fraction expansion it replaced, from a, b,
    every breakpoint and special point, periodic points, random rationals
    and a point whose denominator is just under DENOM_BIT_CAP bits, on the
    pinned and 100 generated maps: at the sweep cap, at caps small enough
    to truncate, and at the default cap where the sweep closes; the point
    near the bit cap is stopped by it."""
    rng = random.Random(13)
    cfg = GeneratorConfig(seed=5)
    corpus = [*maps.values(), *(random_map(cfg.sub("structure", i))
                                for i in range(100))]
    caps = (SWEEP_NODE_CAP, 1, 2, 5, 40)
    deep = F(1, 3**2580)  # 4090 denominator bits
    seen = set()
    for f in corpus:
        roots = {f.a, f.b, *f.breakpoints, *f.special_points().points,
                 *(o.representative for o in periodic_points(f, 2))}
        roots |= {f.a + (f.b - f.a) * F(rng.randrange(1, 89), 89)
                  for _ in range(3)}
        roots.add(f.a + (f.b - f.a) * deep)
        for x in sorted(roots):
            for cap in caps:
                got = structure(f, x, cap)
                assert got == _ref_structure(f, x, cap), (f.to_text(), x, cap)
                seen.add("closed" if got.closed else
                         "node cap" if len(got.nodes) == cap else "bit cap")
                if cap == caps[0] and got.closed:
                    assert structure(f, x) == got
        for x in (f.a - 1, f.b + F(1, 3)):
            with pytest.raises(ValueError) as want:
                _ref_structure(f, x, 10)
            with pytest.raises(ValueError) as err:
                structure(f, x)
            assert str(err.value) == str(want.value)
    assert seen == {"closed", "node cap", "bit cap"}
    tent = maps["tent"]
    assert structure(tent, F(1, 3)) == \
        _ref_structure(tent, F(1, 3), 10**4)


def test_orbit_bit_cap():
    f = parse_map("interval 0 1\npiece 0 1 : slope 2/3 intercept 1/4\n")
    res = orbit(f, F(1, 7), variants(f)[0], cap=5000)
    assert res.truncated and res.cap == DENOM_BIT_CAP
    assert res.steps_used == 2582



def test_walk_stop_reasons():
    flip = parse_map("interval 0 1\npiece 0 1 : slope -1 intercept 1\n")
    shift = parse_map("interval 0 1\npiece 0 1/2 : slope 2 intercept 0\n"
                      "piece 1/2 1 : slope 2 intercept -1\n")
    w = walk(flip, F(1, 3), 10)
    assert (w.trail, w.start, w.reason) == ([F(1, 3), F(2, 3)], 0, "repeat")
    w = walk(flip, F(1, 3), 1)
    assert (w.trail, w.reason) == ([F(1, 3)], "cap")
    w = walk(shift, F(1, 4), 10)
    assert (w.trail, w.reason) == ([F(1, 4), F(1, 2)], "jump")
    w = walk(flip, F(1, 3), 10, points={F(2, 3): "hit"})
    assert (w.trail, w.reason, w.found) == ([F(1, 3)], "stop", "hit")
    huge = F(1, 2**(DENOM_BIT_CAP + 1))
    w = walk(flip, huge, 10)
    assert (w.trail, w.reason) == ([], "bit_cap")
    # a listed point ends the walk with its label, whatever the label
    for label in ("hit", False, None, 0):
        w = walk(flip, F(1, 3), 10, points={F(2, 3): label})
        assert (w.trail, w.reason, w.found) == ([F(1, 3)], "stop", label)
    # the checks run in order: repeat, bit cap, listed points, then balls;
    # the probe ball holds no point and records each point tested on it
    tested = []

    class Probe(int):
        def __eq__(self, p):
            tested.append(p)
            return False

    probe = (1, 1, 0, 1, Probe(-1), 1, "probe")  # an empty interval
    assert walk(flip, F(1, 3), 10, balls=(probe,)).reason == "repeat"
    assert tested == [1, 2]  # 1/3 and 2/3, but not 1/3 again
    tested.clear()
    assert walk(flip, huge, 10, points={huge: "hit"},
                balls=(probe,)).reason == "bit_cap"
    assert tested == []
    w = walk(flip, F(1, 3), 10, points={F(2, 3): None}, balls=(probe,))
    assert (w.reason, tested) == ("stop", [1])
    with pytest.raises(ValueError, match="cap must be >= 1"):
        walk(flip, F(1, 3), 0)


def test_walk_ball_stops():
    """A ball holds its open interval and its centre; the first ball that
    holds a point ends the walk with its label, whatever the label, and a
    listed point is never tested on balls."""
    flip = parse_map("interval 0 1\npiece 0 1 : slope -1 intercept 1\n")
    right = ball_stops([(F(1, 2), F(3, 4), F(3, 4), "right")])
    for balls, reason, found in (
            (right, "stop", "right"),
            (ball_stops([(F(1, 2), F(1), F(3, 4), None)]) + right, "stop",
             None),
            (ball_stops([(F(1, 3), F(2, 3), F(1, 2), "x")]), "repeat", None),
            (ball_stops([(F(0), F(1, 3), F(1, 3), "c")]), "stop", "c")):
        w = walk(flip, F(1, 3), 10, balls=balls)
        assert (w.reason, w.found) == (reason, found)
    w = walk(flip, F(1, 3), 10, points={F(2, 3): None}, balls=right)
    assert (w.trail, w.reason, w.found) == ([F(1, 3)], "stop", None)


def _mirror(f):
    """The conjugate x -> a + b - f(a + b - x)."""
    m = f.a + f.b
    return PiecewiseMap(f.a, f.b, [
        AffinePiece(m - p.right, m - p.left, p.slope,
                    m * (1 - p.slope) - p.intercept)
        for p in reversed(f.pieces)])


def _pair(x):
    return None if x is None else (x.numerator, x.denominator)


def _germ_record(f, g, cap):
    """The walk record of the germ g at a cap, which `germ_orbit` reads at
    GERM_CAP."""
    return orbits._germ_walk(f, orbits._germ_key(f, g), cap)


def _outcome(call, *args, **kwargs):
    """The call's result, or its error as "Type: message"."""
    try:
        return call(*args, **kwargs)
    except (PwdynError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# -- the Fraction lookups the integer step replaced, the reference -------------


def _ref_piece_right_of(f, p):
    if not f.a <= p < f.b:
        raise ValueError(f"no right-hand branch at {p}")
    return f.pieces[bisect_right([piece.left for piece in f.pieces], p) - 1]


def _ref_piece_left_of(f, p):
    if not f.a < p <= f.b:
        raise ValueError(f"no left-hand branch at {p}")
    return f.pieces[bisect_left([piece.left for piece in f.pieces], p) - 1]


def _ref_lateral(f, p, side):
    ref = _ref_piece_right_of if side == PLUS else _ref_piece_left_of
    return ref(f, p).value_at(p)


def _ref_value(f, x):
    """f(x), None at a jump; each breakpoint value is evaluated on the
    pieces, not read off the map's end-value table."""
    if x < f.a or x > f.b:
        raise ValueError(f"{x} outside [{f.a}, {f.b}]")
    if x == f.a:
        return f.pieces[0].value_at(x)
    if x == f.b:
        return f.pieces[-1].value_at(x)
    i = bisect_right([piece.left for piece in f.pieces], x) - 1
    piece = f.pieces[i]
    if x > piece.left:
        return piece.value_at(x)
    v_left, v_right = f.pieces[i - 1].value_at(x), piece.value_at(x)
    return v_left if v_left == v_right else None


def _ref_variant_step(f, x, sel):
    v = _ref_value(f, x)
    return v if v is not None else _ref_lateral(f, x, sel.side_at(x))


def test_integer_step_matches_value(maps):
    """The integer step `_image` and the side locator `_branch`, through
    `value`, `variant_step`, `piece_right_of`, `piece_left_of` and
    `lateral`, against the Fraction references above, errors included: at
    a, b and every breakpoint, on both sides of each cut, at random
    rationals and at denominators over 1000 bits, outside the domain, on
    the pinned and generated maps, their mirrors and their 2nd powers."""
    rng = random.Random(29)
    cfg = GeneratorConfig(seed=5)
    bases = [*maps.values(), *(random_map(cfg.sub("step", i))
                               for i in range(100))]
    checked = jumps_checked = 0
    for base in bases:
        for f in (base, _mirror(base), base.power(2), _mirror(base).power(2)):
            table = _table(f)
            bounds = (f.a, *f.breakpoints, f.b)
            points = set(bounds)
            for lo, hi in zip(bounds, bounds[1:]):
                eps = (hi - lo) / 10**9
                points |= {lo + eps, hi - eps, (lo + hi) / 2}
            for _ in range(8):
                d = rng.getrandbits(1100) | 1 << 1099 | 1
                points.add(f.a + (f.b - f.a) * F(rng.randrange(1, d), d))
                points.add(f.a + (f.b - f.a) * F(rng.randrange(0, 10**4),
                                                 10**4))
            assert sum(x.denominator.bit_length() > 1000 for x in points) >= 8
            jumps = f.special_points().discontinuities
            sel = VariantSelector(tuple((w, rng.choice((MINUS, PLUS)))
                                        for w in jumps))
            for x in sorted(points):
                p, q = _pair(x)
                want = _ref_value(f, x)
                assert _image(table, p, q, None) == _pair(want)
                assert f.value(x) == want
                want = _ref_variant_step(f, x, sel)
                assert _image(table, p, q, sel) == _pair(want)
                assert variant_step(f, x, sel) == want
                checked += 1
            for w in jumps:
                assert _image(table, *_pair(w), None) is None
                jumps_checked += 1
            outside = (f.a - 1, f.b + F(1, 3))
            for x in outside:
                want = _outcome(_ref_value, f, x)
                assert want.startswith("ValueError")
                assert _outcome(_image, table, *_pair(x), None) == want
                assert _outcome(f.value, x) == want
                assert _outcome(variant_step, f, x, sel) == want
            for x in (*sorted(points), *outside):
                assert _outcome(f.piece_right_of, x) == \
                    _outcome(_ref_piece_right_of, f, x)
                assert _outcome(f.piece_left_of, x) == \
                    _outcome(_ref_piece_left_of, f, x)
                for side in (MINUS, PLUS):
                    assert _outcome(f.lateral, x, side) == \
                        _outcome(_ref_lateral, f, x, side)
    assert checked > 10000 and jumps_checked > 100


def test_walkers_reject_points_outside_the_domain(maps):
    h = maps["hat"]
    sel = variants(h)[0]
    orb = periodic_points(h, 2)[0]
    calls = (lambda x: orbit(h, x, sel), lambda x: avoids_special_forever(h, x),
             lambda x: codes(h, x), lambda x: attracted(h, x, orb))
    for x in (F(2), F(-1, 3)):
        for call in calls:
            with pytest.raises(ValueError) as err:
                call(x)
            assert str(err.value) == f"{x} outside [0, 1]"
    # the denominator budget is checked before the first step
    huge = 2 + F(1, 2**(DENOM_BIT_CAP + 1))
    res = orbit(h, huge, sel)
    assert res.truncated and res.cap == DENOM_BIT_CAP and res.prefix == ()
    assert avoids_special_forever(h, huge) == \
        Trivalent(UNKNOWN, DENOM_BIT_CAP)
    assert codes(h, huge) == (Code((), None),)
    assert attracted(h, huge, orb) == UNKNOWN


WALKER_DIGEST = "a7bc33e82b134888"


def _attracted(f, x, orb, cap):
    """`attracted` with its one walk cut at `cap` steps instead of 10**4."""
    real = taxonomy.walk
    taxonomy.walk = lambda f, y, _, **stops: real(f, y, cap, **stops)
    try:
        return attracted(f, x, orb)
    finally:
        taxonomy.walk = real


def _walker_calls():
    """(line head, call) for each answer of the four public point walkers,
    on new (cold) pinned maps and a few generated ones, at a long and a
    short cap."""
    corpus = list(pinned_maps().items()) + [
        (f"codes/{i}", f) for i, f in enumerate(
            _corpus(GeneratorConfig(seed=7), "codes", 4, max_pieces=3))]
    for name, f in corpus:
        sel = variants(f)[0]
        targets = periodic_points(f, 2)[:2]
        points = [F(0), F(1, 3), F(5, 11), *f.special_points().points]
        for x in points:
            for cap in (2000, 7):
                calls = [partial(orbit, f, x, sel, cap),
                         partial(avoids_special_forever, f, x, cap),
                         partial(codes, f, x, cap)]
                calls += [partial(_attracted, f, x, orb, cap)
                          for orb in targets]
                for call in calls:
                    yield f"{name} {x} {cap}", call


def _answer_line(head, call):
    try:
        answer = repr(call())
    except PwdynError as exc:
        answer = f"{type(exc).__name__}: {exc}"
    return f"{head} {answer}\n"


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()[:16]


def test_walker_answers_keep_their_digest():
    assert _digest(_answer_line(*c) for c in _walker_calls()) == WALKER_DIGEST


def test_walker_answers_do_not_depend_on_call_order():
    """The same calls on cold maps in a seeded shuffled order, so each
    memoized table (integer step, atlas, certifier, ball data) is first
    built by a different walker, give the same lines."""
    calls = list(_walker_calls())
    order = list(range(len(calls)))
    random.Random(11).shuffle(order)
    lines = [None] * len(calls)
    for i in order:
        lines[i] = _answer_line(*calls[i])
    assert _digest(lines) == WALKER_DIGEST


def _memo_calls():
    """(line head, call) on new (cold) maps: structures and oracle verdicts,
    and the point walks, window sweeps, germ orbits, powers and
    compositions that fill the same map memos, among them the integer
    table."""
    cfg = GeneratorConfig(seed=9)
    texts = [(name, pinned_text(name)) for name in PINNED_NAMES]
    texts += [(f"gen/{i}", random_map(cfg.sub("order", i)).to_text())
              for i in range(6)]
    for name, text in texts:
        f = parse_map(text)
        sel = variants(f)[0]
        for x in sorted({F(1, 3), F(1, 2), f.a, f.b,
                         *f.special_points().points}):
            head = f"{name} {x}"
            yield f"{head} structure", partial(structure, f, x, 200)
            yield f"{head} sweep", partial(structure, f, x, SWEEP_NODE_CAP)
            yield f"{head} oracle", partial(oracle_classify, f, x)
            yield f"{head} oracle/3", partial(oracle_classify, f, x, stride=3)
            yield f"{head} orbit", partial(orbit, f, x, sel, 60)
            yield f"{head} window", partial(window_sweep, f, x, 3)
            for side in (MINUS, PLUS):
                if (x, side) not in ((f.a, MINUS), (f.b, PLUS)):
                    yield (f"{head} germ {side}",
                           partial(_germ_record, f, Germ(x, side), 60))
        for n, check in ((2, False), (3, False), (3, True)):
            yield (f"{name} power {n} {check}",
                   lambda f=f, n=n, check=check: f.power(n, check=check)
                   .to_text())
        yield f"{name} compose", lambda f=f: compose(f, f).to_text()


def test_oracle_and_structures_do_not_depend_on_call_order():
    """The same calls on cold maps, once in order and once in a seeded
    shuffled order, so that walks, window sweeps and germ orbits sometimes
    fill the map memos before a structure, an oracle verdict, a power or
    a composition is asked for: the lines, put back in order, are the
    same.  In order, every power and composition comes after the map's
    walks; shuffled, some come before the first of them."""
    canonical = [_answer_line(*c) for c in _memo_calls()]
    calls = list(_memo_calls())
    order = list(range(len(calls)))
    random.Random(23).shuffle(order)
    lines = [None] * len(calls)
    for i in order:
        lines[i] = _answer_line(*calls[i])
    rank = {calls[i][0]: k for k, i in enumerate(order)}
    walked = {}
    for head, _ in calls:
        if head.endswith((" orbit", " window")):
            name = head.split()[0]
            walked[name] = min(walked.get(name, len(calls)), rank[head])
    early = [rank[head] < walked[head.split()[0]] for head, _ in calls
             if " power " in head or head.endswith(" compose")]
    assert any(early) and not all(early)
    assert len(lines) > 300
    assert _digest(lines) == _digest(canonical)


def _memo_kinds():
    """The kind, the first item, of every `_memo` key in `src/pwdyn`, read
    off the call or off the last tuple assigned before it, in the same
    function, to the name it passes; "?" for a key neither way gives."""
    kinds = set()
    for path in sorted((Path(orbits.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_memo"):
                continue
            key = node.args[0]
            if isinstance(key, ast.Name):
                scope = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=tree)
                assigned = max((a for a in ast.walk(scope)
                                if isinstance(a, ast.Assign)
                                and a.lineno < node.lineno
                                and any(isinstance(t, ast.Name)
                                        and t.id == key.id
                                        for t in a.targets)),
                               key=lambda a: a.lineno, default=None)
                key = assigned and assigned.value
            first = key.elts[0] if isinstance(key, ast.Tuple) else None
            kinds.add(first.value if isinstance(first, ast.Constant)
                      else "?")
    return kinds


def _every_memo_calls():
    """(line head, call) on new (cold) maps for every memo kind: germ
    cycles (lateral and full classes, propagation reports' landing
    indices), with germ walks at two caps, which are not kept; periodic
    orbits, trap decisions by `is_trapped` and `taxonomy`, attraction
    (atlas and its balls), codes (certifier) and regularity certificates,
    preimage sets, checked powers with their Fraction pieces, which
    `to_text` does not build, and the walks that fill the integer table."""
    cfg = GeneratorConfig(seed=17)
    texts = [(name, pinned_text(name)) for name in PINNED_NAMES]
    texts += [(f"gen/{i}", random_map(cfg.sub("memo", i)).to_text())
              for i in range(4)]
    for name, text in texts:
        f = parse_map(text)
        yield f"{name} periodic", partial(periodic_points, f, 2)
        yield f"{name} msets", partial(f.special_preimage_set, 3)
        yield (f"{name} power", lambda f=f: f.power(3).to_text())
        yield (f"{name} pieces", lambda f=f: f.power(3).pieces)
        probe = parse_map(text)  # picks the points, leaves f cold
        for orb in periodic_points(probe, 2):
            for ask in (taxonomy.is_trapped, taxonomy.taxonomy):
                yield (f"{name} {orb.points} {ask.__name__}",
                       partial(ask, f, orb))
        for x in sorted({F(1, 3), f.a, f.b, *f.special_points().points}):
            head = f"{name} {x}"
            if structure(probe, x, 200).closed:
                yield f"{head} classify", partial(classify_point, f, x)
            yield (f"{head} report", lambda f=f, x=x:
                   stability_propagation_report(f, structure(f, x, 200)))
            yield f"{head} codes", partial(codes, f, x, 50)
            if x in probe.special_points().points:
                yield (f"{head} certificate",
                       partial(regularity_certificate, f, x, 50))
            yield (f"{head} attracted", lambda f=f, x=x: [
                _attracted(f, x, orb, 50) for orb in periodic_points(f, 2)])
            for side in (MINUS, PLUS):
                if (x, side) not in ((f.a, MINUS), (f.b, PLUS)):
                    for cap in (7, 60):
                        yield (f"{head} germ {side} {cap}",
                               partial(_germ_record, f, Germ(x, side), cap))


def test_every_memo_kind_is_built_in_a_shuffled_order(monkeypatch):
    """Each kind of memo key in `src/pwdyn`, found by the AST, is one of
    the fourteen named here and is built on cold maps by a seeded shuffled
    run of calls whose answers, put back in order, equal those of the run
    in order: a new kind of memo fails here until it is named and such a
    run exercises it.  The map's own caches are memo kinds too: its
    Fraction pieces, its special points, each power and each power's
    check.  The power memo is read both ways: on some maps
    `periodic_points` leaves powers as segments before the checked power
    is asked for, on others it reads the built maps."""
    kinds = _memo_kinds()
    assert kinds == {"atlas", "atlas_balls", "certificate", "certifier",
                     "germ_cycle", "int_step", "msets", "partition",
                     "periodic_points", "pieces", "power", "power_check",
                     "special", "trap"}
    canonical = [_answer_line(*c) for c in _every_memo_calls()]
    built = set()
    real = PiecewiseMap._memo

    def recording(self, key, build):
        if key not in self._cache:
            built.add(key[0])
        return real(self, key, build)

    monkeypatch.setattr(PiecewiseMap, "_memo", recording)
    calls = list(_every_memo_calls())
    order = list(range(len(calls)))
    random.Random(37).shuffle(order)
    lines = [None] * len(calls)
    for i in order:
        lines[i] = _answer_line(*calls[i])
    assert sorted(kinds - built) == []
    assert _digest(lines) == _digest(canonical)
    rank = {calls[i][0]: k for k, i in enumerate(order)}
    names = {head.split()[0] for head, _ in calls}
    periodic_first = {rank[f"{name} periodic"] < rank[f"{name} power"]
                      for name in names}
    assert periodic_first == {True, False}
