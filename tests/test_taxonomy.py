import random
from fractions import Fraction as F
from functools import partial

import pytest

from pwdyn import taxonomy as taxonomy_module
from pwdyn.codes import regular_attractor
from pwdyn.harness import GeneratorConfig, _corpus, random_map
from pwdyn.maps import MINUS, PLUS, parse_map
from pwdyn.orbits import (HALF_POINT, INTERVAL_FAMILY, PeriodicOrbit,
                          periodic_points, special_gaps)
from pwdyn.pinned import PINNED_NAMES, pinned_text
from pwdyn.taxonomy import (BOUNDARY_FIXED, DegenerateWindowError,
                            PreconditionError, _map_atlas, _trap,
                            attraction_atlas, attracted,
                            basin_adjacent_special, count_bound,
                            exceptional_census, is_trapped, monotone_window,
                            restrict_power, taxonomy, window_sweep)
from test_orbits import _answer_line, _digest


def orbit_at(f, point, horizon=2):
    for orb in periodic_points(f, horizon, max_power=2 * horizon):
        if point in orb.points:
            return orb
    raise AssertionError(f"no orbit through {point}")


def test_monotone_window(maps):
    assert monotone_window(maps["tent"], F(3, 5), 2) == (F(1, 2), F(2, 3))
    assert monotone_window(maps["contraction"], F(1, 2), 2) == (F(0), F(1))
    assert monotone_window(maps["shift"], F(7, 16), 4) == (F(3, 8), F(1, 2))


def test_monotone_window_degenerate(maps):
    with pytest.raises(DegenerateWindowError):
        monotone_window(maps["tent"], F(1, 2), 1)
    with pytest.raises(DegenerateWindowError):
        monotone_window(maps["shift"], F(3, 8), 2)  # orbit hits the jump


def test_window_rejects_bad_inputs(maps):
    """A depth below 1 or a point outside [a, b] is refused before any
    step, even where the first step would land on a special point."""
    hat = maps["hat"]
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            monotone_window(hat, F(2), depth)
    for x in (F(-1, 3), F(3, 2)):
        with pytest.raises(ValueError, match=f"{x} outside \\[0, 1\\]"):
            window_sweep(hat, x, 2)
    with pytest.raises(ValueError, match="2 outside"):
        monotone_window(maps["tent"], 2, 1)
    assert monotone_window(hat, F(0), 1) == (F(0), F(1, 2))


def test_restrict_power(maps):
    segs = restrict_power(maps["tent"], F(1, 2), F(2, 3), 2)
    assert len(segs) == 1
    assert segs[0].slope == F(9, 4) and segs[0].intercept == F(-3, 4)


def test_trapped_tent(maps):
    res = is_trapped(maps["tent"], orbit_at(maps["tent"], F(3, 5), 1))
    assert res.trapped
    y, z, delta = res.witness
    assert (y, z) == (F(23, 40), F(5, 8))
    assert delta > 0


def test_trapped_contraction(maps):
    assert not is_trapped(maps["contraction"],
                          orbit_at(maps["contraction"], F(1, 2), 1)).trapped


def test_trapped_shift_family_equalities(maps):
    fam = [o for o in periodic_points(maps["shift"], 2)
           if o.kind == INTERVAL_FAMILY][0]
    res = is_trapped(maps["shift"], fam)
    assert res.trapped
    y, z, _ = res.witness
    segs = restrict_power(maps["shift"], *monotone_window(
        maps["shift"], fam.representative, 4), 4)
    gap = {t: next(s.value_at(t) - t for s in segs if s.left <= t <= s.right)
           for t in (y, z)}
    assert gap[y] == 0 and gap[z] == 0  # equality witnesses


def test_trapped_at_each_orbit_point():
    """`_trap` at every point of every non-critical interior continuous
    orbit of a seeded corpus, as `taxonomy` calls it: the flags agree
    along the orbit, and the first point's witness is the one `taxonomy`
    reports."""
    seen = {True: 0, False: 0}
    for f in _corpus(GeneratorConfig(seed=89, max_pieces=3), "points", 120):
        turns = set(f.special_points().turning)
        for orb in periodic_points(f, 4, max_power=8):
            if (not orb.continuous or turns & set(orb.points)
                    or {f.a, f.b} & set(orb.points)):
                continue
            results = [_trap(f, p, orb.period,
                             special_gaps(f, p, 2 * orb.period))
                       for p in orb.points]
            assert len({r.trapped for r in results}) == 1, \
                (f.to_text(), orb.points)
            tax = taxonomy(f, orb)
            assert (tax.trapped, tax.trap_witness) == \
                (results[0].trapped, results[0].witness), \
                (f.to_text(), orb.points)
            seen[tax.trapped] += 1
    assert min(seen.values()) > 50, seen


def test_taxonomy_pinned(maps):
    tent_tax = taxonomy(maps["tent"], orbit_at(maps["tent"], F(3, 5), 1))
    assert (tent_tax.critical, tent_tax.trapped, tent_tax.free) == \
        (False, True, False)
    c_tax = taxonomy(maps["contraction"],
                     orbit_at(maps["contraction"], F(1, 2), 1))
    assert c_tax.free and c_tax.exceptional == frozenset({"a", "b"})
    h_tax = taxonomy(maps["hat"], orbit_at(maps["hat"], F(7, 12), 1))
    assert h_tax.free and not h_tax.exceptional
    zero_tax = taxonomy(maps["tent"], orbit_at(maps["tent"], F(0), 1))
    assert zero_tax.boundary_case == BOUNDARY_FIXED
    assert not zero_tax.free


def test_exceptional_type_c(maps):
    d2 = maps["decreasing2"]
    orb = orbit_at(d2, F(1, 4), 2)
    tax = taxonomy(d2, orb)
    assert tax.free and tax.exceptional == frozenset({"c"})
    census = exceptional_census(d2, periodic_points(d2, 4, max_power=8))
    assert [o.points for o in census["c"]] == [orb.points]
    assert not census["a"] and not census["b"]


def test_taxonomy_preconditions(maps):
    halves = [o for o in periodic_points(maps["shift"], 2)
              if o.kind == "half_point"]
    with pytest.raises(PreconditionError):
        taxonomy(maps["shift"], halves[0])
    critical_free_guard = orbit_at(maps["tent"], F(3, 5), 1)
    with pytest.raises(PreconditionError):
        # basin construction rejects trapped orbits
        basin_adjacent_special(maps["tent"], critical_free_guard)
    with pytest.raises(PreconditionError):
        basin_adjacent_special(maps["contraction"],
                               orbit_at(maps["contraction"], F(1, 2), 1))


def test_basin_hat(maps):
    h = maps["hat"]
    orb = orbit_at(h, F(7, 12), 1)
    wits = basin_adjacent_special(h, orb)
    assert wits
    wit = wits[0]
    assert wit.w == F(1, 2) and wit.side == "both"
    assert wit.delta <= F(1, 8)
    assert wit.w_attracted


def test_attracted(maps):
    h = maps["hat"]
    orb = orbit_at(h, F(7, 12), 1)
    assert attracted(h, F(5, 8), orb) == "yes"
    t = maps["tent"]
    assert attracted(t, F(3, 5), orbit_at(t, F(0), 1)) == "no"
    f = maps["shift"]
    half = [o for o in periodic_points(f, 2) if o.kind == "half_point"][0]
    assert attracted(f, F(1, 3), half) == "no"
    # hitting the jump point means no limit exists
    assert attracted(f, F(1, 4), half) == "no"


def test_attracted_unknown_budget(maps):
    """The slope-3/2 tent expands everywhere, so the orbit of 1/7 settles
    nowhere: it runs out of the denominator budget first."""
    t = maps["tent"]
    orb = orbit_at(t, F(3, 5), 1)
    assert attracted(t, F(1, 7), orb) == "unknown"


def test_count_bound_pinned(maps):
    rep = count_bound(maps["hat"])
    assert (rep.count_found, rep.n_t, rep.n_d, rep.bound, rep.holds) == \
        (1, 1, 0, 3, True)
    rep = count_bound(maps["shift"])
    assert (rep.count_found, rep.n_t, rep.n_d, rep.bound, rep.holds) == \
        (0, 0, 1, 4, True)
    rep = count_bound(maps["tent"])
    assert (rep.count_found, rep.bound, rep.holds) == (0, 3, True)
    with pytest.raises(PreconditionError):
        count_bound(maps["contraction"])


def test_ball_atlas(maps):
    h = maps["hat"]
    atlas = attraction_atlas(h, periodic_points(h, 2))
    balls = next(iter(atlas.values()))
    assert balls[0].center == F(7, 12)
    assert balls[0].radius == F(1, 12)
    assert abs(balls[0].slope) < 1


def _taxonomy_calls():
    """(line head, call) on new (cold) maps: the periodic orbits at two
    argument sets, the attractor of every special point, taxonomy and
    trapping at every orbit point, the count bound, the atlas and the
    basin witnesses.  The orbits are listed on a separate copy, so no map
    memo is warm."""
    cfg = GeneratorConfig(seed=13)
    texts = [(name, pinned_text(name)) for name in PINNED_NAMES]
    texts += [(f"gen/{i}", random_map(cfg.sub("taxonomy", i)).to_text())
              for i in range(6)]
    for name, text in texts:
        f = parse_map(text)
        found = [o for o in periodic_points(parse_map(text), 4, max_power=8)
                 if o.continuous and o.kind != HALF_POINT]
        yield f"{name} periodic 4", partial(periodic_points, f, 4,
                                            max_power=8)
        yield f"{name} periodic 8", partial(periodic_points, f, 8,
                                            max_power=16)
        for w in f.special_points().points:
            yield f"{name} attractor {w}", partial(regular_attractor, f, w)
        yield f"{name} bound", partial(count_bound, f)
        yield f"{name} atlas", partial(_map_atlas, f)
        for orb in found:
            head = f"{name} {orb.points}"
            yield f"{head} taxonomy", partial(taxonomy, f, orb)
            yield f"{head} basin", partial(basin_adjacent_special, f, orb)
            for p in orb.points:
                yield (f"{head} trapped {p}", lambda f=f, p=p, n=orb.period:
                       _trap(f, p, n, special_gaps(f, p, 2 * n)))


def test_taxonomy_answers_do_not_depend_on_call_order():
    """The same calls on cold maps, once in order and once in a seeded
    shuffled order, so that the periodic orbits, the atlas and the integer
    table are first built by different callers: the lines, put back in
    order, are the same.  In order, each attractor is asked for before the
    atlas call, so it builds the atlas; shuffled, some come after it."""
    canonical = [_answer_line(*c) for c in _taxonomy_calls()]
    calls = list(_taxonomy_calls())
    order = list(range(len(calls)))
    random.Random(29).shuffle(order)
    lines = [None] * len(calls)
    for i in order:
        lines[i] = _answer_line(*calls[i])
    rank = {calls[i][0]: k for k, i in enumerate(order)}
    late = [head for (head, _), line in zip(calls, canonical)
            if "RegularAttractorResult" in line
            and rank[head] > rank[head.split(" attractor ")[0] + " atlas"]]
    assert late, "no attractor asked for after its atlas"
    assert len(lines) > 150
    assert sum("Error" in line for line in lines) > 10
    assert sum("TrapResult(trapped=True" in line for line in lines) > 5
    assert sum("BasinWitness" in line for line in lines) > 2
    assert _digest(lines) == _digest(canonical)


def _ref_make_witness(f, orb, w, inner, turns, n, iterates):
    """`taxonomy._make_witness` as it was when the fold clip read the two
    side pieces at w as Fraction pieces; the reference."""
    side = MINUS if inner < w else PLUS
    delta = abs(w - inner)
    w_attr = taxonomy_module._lateral_power(f, w, side, 2 * n) != w
    if w in turns:
        if side == PLUS:
            here, far = f.piece_right_of(w), f.piece_left_of(w)
            far_room = w - far.left
        else:
            here, far = f.piece_left_of(w), f.piece_right_of(w)
            far_room = far.right - w
        delta = min(delta, delta * abs(here.slope) / abs(far.slope), far_room)
        return taxonomy_module.BasinWitness(w, "both", delta, orb, w_attr,
                                            iterates)
    return taxonomy_module.BasinWitness(w, side, delta, orb, w_attr,
                                        iterates)


def test_fold_clip_matches_the_fraction_reference():
    """A basin witness at a turn, its width clipped by the two side
    pieces read off the int segments, equals the one the Fraction side
    pieces gave, on both sides of every turn of 200 seeded maps; both
    clips, the slope ratio and the far branch's room, bind."""
    binds = {"ratio": 0, "room": 0}
    for f in _corpus(GeneratorConfig(seed=7), "fold", 200):
        turns = set(f.special_points().turning)
        for w in turns:
            orb = PeriodicOrbit((w,), 1, None)
            for d in (F(1, 50), F(1, 7), F(1, 3)):
                for inner in (w - d, w + d):
                    if not f.a <= inner <= f.b:
                        continue
                    want = _ref_make_witness(f, orb, w, inner, turns, 1, 0)
                    got = taxonomy_module._make_witness(f, orb, w, inner,
                                                        turns, 1, 0)
                    assert got == want, (f.to_text(), w, inner)
                    plus = inner > w
                    room = (w - f.piece_left_of(w).left if plus
                            else f.piece_right_of(w).right - w)
                    if got.delta < d:
                        binds["room" if got.delta == room else "ratio"] += 1
    assert min(binds.values()) > 20, binds
