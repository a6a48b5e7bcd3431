import hashlib
from fractions import Fraction as F

import pytest

from pwdyn.codes import avoids_special_forever, codes
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import PwdynError, parse_map
from pwdyn.orbits import (DENOM_BIT_CAP, Germ, HALF_POINT, INTERVAL_FAMILY,
                          VariantLimitError, germ_orbit, germ_step, orbit,
                          periodic_points, structure, variants, walk)
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import attracted


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


def test_germ_cycle_bound(maps):
    # inside a closed structure the germ orbit cycles within twice the nodes
    f = maps["shift"]
    st = structure(f, F(1, 2))
    for p in st.nodes:
        for side in ("minus", "plus"):
            go = germ_orbit(f, Germ(p, side), cap=2 * len(st.nodes) + 2)
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


def test_variant_bit_limit(maps):
    with pytest.raises(VariantLimitError):
        variants(maps["shift"], bit_limit=0)


def test_structure_cap_truncation(maps):
    st = structure(maps["shift"], F(1, 2), cap=2)
    assert not st.closed and st.truncated


def test_orbit_bit_cap():
    f = parse_map("interval 0 1\npiece 0 1 : slope 2/3 intercept 1/4\n")
    res = orbit(f, F(1, 7), variants(f)[0], cap=5000)
    assert res.truncated and res.cap == DENOM_BIT_CAP
    assert res.steps_used == 2582



def test_walk_stop_reasons():
    flip = parse_map("interval 0 1\npiece 0 1 : slope -1 intercept 1\n")
    shift = parse_map("interval 0 1\npiece 0 1/2 : slope 2 intercept 0\n"
                      "piece 1/2 1 : slope 2 intercept -1\n")
    w = walk(F(1, 3), flip.value, 10)
    assert (w.trail, w.start, w.reason) == ([F(1, 3), F(2, 3)], 0, "repeat")
    w = walk(F(1, 3), flip.value, 1)
    assert (w.trail, w.reason) == ([F(1, 3)], "cap")
    w = walk(F(1, 4), shift.value, 10)
    assert (w.trail, w.reason) == ([F(1, 4), F(1, 2)], "jump")
    w = walk(F(1, 3), flip.value, 10, stop=lambda p: p == F(2, 3) and "hit")
    assert (w.trail, w.reason, w.found) == ([F(1, 3)], "stop", "hit")
    huge = F(1, 2**(DENOM_BIT_CAP + 1))
    w = walk(huge, flip.value, 10)
    assert (w.trail, w.reason) == ([], "bit_cap")
    # the checks run in order: repeat, bit cap, then the stop test
    visits = []
    w = walk(F(1, 3), flip.value, 10,
             stop=lambda p: visits.append(p) or len(visits) > 2)
    assert w.reason == "repeat" and visits == [F(1, 3), F(2, 3)]
    assert walk(huge, flip.value, 10, stop=lambda p: True).reason == "bit_cap"
    # only a truthy stop result ends the walk
    for stop in (set().__contains__, lambda p: None):
        w = walk(F(1, 3), flip.value, 10, stop=stop)
        assert (w.trail, w.reason) == ([F(1, 3), F(2, 3)], "repeat")
    with pytest.raises(ValueError, match="cap must be >= 1"):
        walk(F(1, 3), flip.value, 0)


def _walker_answers():
    """One line per answer of the four public point walkers, on the pinned
    maps and a few generated ones, at a long and a short cap."""
    corpus = list(pinned_maps().items()) + [
        (f"codes/{i}", f) for i, f in enumerate(
            _corpus(GeneratorConfig(seed=7), "codes", 4, max_pieces=3))]
    for name, f in corpus:
        sel = variants(f)[0]
        targets = periodic_points(f, 2)[:2]
        points = [F(0), F(1, 3), F(5, 11), *f.special_points().points]
        for x in points:
            for cap in (2000, 7):
                calls = [lambda: orbit(f, x, sel, cap),
                         lambda: avoids_special_forever(f, x, cap),
                         lambda: codes(f, x, cap)]
                calls += [lambda orb=orb: attracted(f, x, orb, cap)
                          for orb in targets]
                for call in calls:
                    try:
                        answer = repr(call())
                    except PwdynError as exc:
                        answer = f"{type(exc).__name__}: {exc}"
                    yield f"{name} {x} {cap} {answer}\n"


def test_walker_answers_keep_their_digest():
    digest = hashlib.sha256()
    for line in _walker_answers():
        digest.update(line.encode())
    assert digest.hexdigest()[:16] == "303fef4bc5a7fc19"
