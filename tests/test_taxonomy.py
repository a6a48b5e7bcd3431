import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction as F
from functools import partial
from math import prod

import pytest

from pwdyn import harness, orbits, stability, taxonomy as taxonomy_module
from pwdyn.codes import regular_attractor
from pwdyn.harness import GeneratorConfig, _corpus, random_map
from pwdyn.maps import MINUS, PLUS, _table, parse_map
from pwdyn.orbits import (HALF_POINT, INTERVAL_FAMILY, Germ, PeriodicOrbit,
                          germ_step, periodic_points, special_gaps)
from pwdyn.pinned import PINNED_NAMES, pinned_maps, pinned_text
from pwdyn.taxonomy import (BOUNDARY_FIXED, DegenerateWindowError,
                            PreconditionError, TaxonomyViolation,
                            _map_atlas, _trap,
                            attraction_atlas, attracted,
                            basin_adjacent_special, count_bound,
                            exceptional_census, is_trapped, monotone_window,
                            restrict_power, taxonomy, window_sweep)
from test_orbits import _answer_line, _digest, _mirror, _outcome


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


def _one_sided_slopes(f, x, m):
    """The slope magnitude of f^m just left and just right of x, each with
    the side its germ ends on, by public germ steps in Fractions."""
    out = []
    for side in (MINUS, PLUS):
        g, s = Germ(x, side), F(1)
        for _ in range(m):
            step = germ_step(f, g)
            g, s = step.next, s * step.slope_magnitude
        out.append((s, g.side))
    return out


# Trapped with a contracting side: f^2 has slope 1/4 left of the fixed
# point 1/2 of the first map, yet crosses the diagonal at 5/16 in its
# window; the second map's f^2 is the first on [0, 1/2], scaled, so its
# orbit {1/4, 3/4} is the same case at period 2, through a plain
# breakpoint at 3/4.
_CONTRACTING_SIDE = (
    "interval 0 1\n"
    "piece 0 1/4 : slope -1/2 intercept 5/16\n"
    "piece 1/4 3/8 : slope 2 intercept -5/16\n"
    "piece 3/8 1/2 : slope 1/2 intercept 1/4\n"
    "piece 1/2 5/8 : slope 2 intercept -1/2\n"
    "piece 5/8 1 : slope -1 intercept 11/8\n",
    "interval 0 1\n"
    "piece 0 1/2 : slope 1 intercept 1/2\n"
    "piece 1/2 5/8 : slope -1/2 intercept 13/32\n"
    "piece 5/8 11/16 : slope 2 intercept -37/32\n"
    "piece 11/16 3/4 : slope 1/2 intercept -1/8\n"
    "piece 3/4 13/16 : slope 2 intercept -5/4\n"
    "piece 13/16 1 : slope -1 intercept 19/16\n")


def _shortcut_corpus():
    """The pinned maps, 100 census-style maps, six continuous maps with an
    orbit of period 2 or 4 through a plain breakpoint (no turn, no jump),
    four of them trapped, and the two maps above, with their mirrors."""
    plain = GeneratorConfig(seed=89, max_pieces=4, discontinuity_bias=0.0)
    maps = list(pinned_maps().values())
    maps += _corpus(GeneratorConfig(seed=89, max_pieces=3), "shortcut", 100)
    maps += [random_map(plain.sub("plain", i))
             for i in (1, 8, 388, 435, 1143, 1228)]
    maps += map(parse_map, _CONTRACTING_SIDE)
    return maps + [_mirror(f) for f in maps]


def test_one_window_per_trapped_orbit(monkeypatch):
    """`taxonomy` against `_trap` at every point, the reference, on every
    non-critical interior continuous orbit to period 8, listed in each
    rotation: the flags agree and the first point's witness is reported.
    `taxonomy` reads the decision at the first point alone, so it never
    steps an orbit's gaps (`_orbit_gaps`).  The corpus holds trapped
    orbits with a contracting side of f^{2n} at the first point, read off
    public germ steps, and trapped orbits with both sides expanding
    through plain breakpoints, that f^n reverses or with an identity-slope
    side."""
    swept = []
    real = taxonomy_module._orbit_gaps
    monkeypatch.setattr(taxonomy_module, "_orbit_gaps",
                        lambda f, orb: swept.append(orb) or real(f, orb))
    seen = Counter()
    for f in _shortcut_corpus():
        turns = set(f.special_points().turning)
        plain = set(f.breakpoints) - set(f.special_points().points)
        for orb in periodic_points(f, 8, max_power=16):
            if (not orb.continuous or turns & set(orb.points)
                    or {f.a, f.b} & set(orb.points)):
                continue
            n = orb.period
            results = [_outcome(_trap, f, p, n, special_gaps(f, p, 2 * n))
                       for p in orb.points]
            for k in range(n):
                points = orb.points[k:] + orb.points[:k]
                listed = dataclasses.replace(orb, points=points)
                tax = _outcome(taxonomy, f, listed)
                first = results[k]
                if isinstance(first, str):
                    assert tax == first, (f.to_text(), points)
                    seen["errors"] += 1
                    continue
                assert {r.trapped for r in results} == {tax.trapped}, \
                    (f.to_text(), points)
                assert tax.trap_witness == first.witness, (f.to_text(), points)
                (left, _), (right, _) = _one_sided_slopes(f, points[0], 2 * n)
                expanding = first.trapped and left >= 1 and right >= 1
                seen["expanding" if expanding else "other"] += 1
                seen["trapped, a contracting side"] += (first.trapped
                                                        and not expanding)
                if expanding and n > 1:
                    seen["plain"] += bool(plain & set(points))
                    seen["reversing"] += _one_sided_slopes(
                        f, points[0], n)[0][1] == PLUS
                    seen["identity"] += 1 in (left, right)
    assert swept == []
    assert seen["expanding"] > 50 and seen["other"] > 50, seen
    assert seen["trapped, a contracting side"] >= 6, seen
    assert min(seen[k] for k in ("plain", "reversing", "identity")) > 5, \
        seen


# -- the per-point check `taxonomy` once made, the reference ----------------


def _ref_orbit_trap(f, orb):
    """`taxonomy`'s trap as it was when each listed point's slopes were read
    off its own germ walks (`_ref_expanding`), and every point's window was
    swept where they did not decide it; the reference."""
    n, x = orb.period, orb.representative
    first = _trap(f, x, n, special_gaps(f, x, 2 * n))
    if first.trapped and _ref_expanding(f, x, n):
        for p in orb.points[1:]:
            if not _ref_expanding(f, p, n):
                raise TaxonomyViolation(f"f^{2 * n} contracts at {p}")
        return first
    rest = zip(orb.points[1:], taxonomy_module._orbit_gaps(f, orb)[1:])
    if any(_trap(f, p, n, g).trapped != first.trapped for p, g in rest):
        raise TaxonomyViolation(
            f"trapped flag not uniform along orbit {orb.points}")
    return first


def _ref_expanding(f, x, n):
    """Both one-sided slopes of f^{2n} at the period-n point x are at least
    1: |A| against D over the cycle of each germ of x, whose germ walk of
    2n + 1 germs must close at that germ within a divisor of 2n steps."""
    coefs, out = _table(f).coefs, True
    for plus in (False, True):
        _, steps, start = orbits._germ_walk(
            f, (x.numerator, x.denominator, plus), 2 * n + 1)
        if start != 0 or 2 * n % len(steps):
            raise TaxonomyViolation(f"germ at {x} not back in {2 * n} steps")
        out = out and (prod(abs(coefs[i][0]) for i in steps)
                       >= prod(coefs[i][2] for i in steps))
    return out


def test_the_representative_decides_as_the_per_point_walks_do(monkeypatch):
    """`taxonomy` against itself with the reference trap, which walks both
    germs of every listed point and sweeps every point those walks leave
    undecided, on every continuous orbit to period 8 of the shortcut
    corpus (with its mirrors and 100 census-style maps), listed in each
    rotation: the same flags and trap witness, or the same error; the
    reference raises nothing here, so no orbit disagrees with itself."""
    seen = Counter()
    for f in _shortcut_corpus():
        for orb in periodic_points(f, 8, max_power=16):
            if not orb.continuous:
                continue
            for k in range(orb.period):
                listed = dataclasses.replace(
                    orb, points=orb.points[k:] + orb.points[:k])
                got = _outcome(taxonomy, f, listed)
                with monkeypatch.context() as m:
                    m.setattr(taxonomy_module, "is_trapped", _ref_orbit_trap)
                    want = _outcome(taxonomy, f, listed)
                assert got == want, (f.to_text(), listed.points)
                if isinstance(got, str):
                    seen["errors"] += 1
                else:
                    seen[(got.trapped, orb.period > 1)] += 1
    assert min(seen[trapped, cycle] for trapped in (False, True)
               for cycle in (False, True)) > 50, seen


def test_each_germ_is_walked_once_per_map(monkeypatch):
    """A spy on every module's germ walk, over `taxonomy` on each
    continuous orbit and `count_bound`, in either order, on the shortcut
    corpus: no germ is walked twice on one map, and the answers of both
    orders are the same."""
    walks = Counter()
    real = orbits._germ_walk

    def spy(f, key, cap):
        walks[key] += 1
        return real(f, key, cap)

    for module in (orbits, stability, harness, taxonomy_module):
        if hasattr(module, "_germ_walk"):
            monkeypatch.setattr(module, "_germ_walk", spy)
    seen = Counter()
    for text in [f.to_text() for f in _shortcut_corpus()]:
        answers = []
        for bound_first in (True, False):
            f = parse_map(text)
            found = [o for o in periodic_points(f, 8, max_power=16)
                     if o.continuous and o.kind != HALF_POINT]
            periodic_points(f, 8)  # `count_bound`'s own listing
            walks.clear()
            if bound_first:
                bound = _outcome(count_bound, f)
            classes = [_outcome(taxonomy, f, orb) for orb in found]
            if not bound_first:
                bound = _outcome(count_bound, f)
            assert max(walks.values(), default=0) <= 1, (text, walks)
            seen["walks"] += len(walks)
            answers.append((bound, classes))
        assert answers[0] == answers[1], text
    assert seen["walks"] > 1500, seen


def test_taxonomy_after_count_bound_sweeps_only_undecided_orbits(
        monkeypatch):
    """A spy on `_window_on`, over `taxonomy` on every continuous orbit of
    `periodic_points(f, 8)` and `count_bound(f, 8)`, in either order, on
    the shortcut corpus: `count_bound` after `taxonomy` sweeps no window;
    `taxonomy` after `count_bound` sweeps none for an orbit whose trap
    `count_bound` decided, and at most one for any other orbit; both
    orders give the same answers."""
    windows, decided = [], set()
    real_window, real_trapped = (taxonomy_module._window_on,
                                 taxonomy_module.is_trapped)

    def trapped(f, orb):
        decided.add(orb)
        return real_trapped(f, orb)

    monkeypatch.setattr(taxonomy_module, "_window_on",
                        lambda *args: windows.append(args)
                        or real_window(*args))
    monkeypatch.setattr(taxonomy_module, "is_trapped", trapped)
    seen = Counter()
    for text in [f.to_text() for f in _shortcut_corpus()]:
        answers = []
        for bound_first in (False, True):
            f = parse_map(text)
            found = [o for o in periodic_points(f, 8) if o.continuous]
            decided.clear()
            bound = _outcome(count_bound, f, 8) if bound_first else None
            by_bound = set(decided)
            classes = []
            for orb in found:
                windows.clear()
                classes.append(_outcome(taxonomy, f, orb))
                if bound_first:
                    assert len(windows) <= (orb not in by_bound), \
                        (text, orb.points, len(windows))
                    seen["decided" if orb in by_bound
                         else "swept" if windows else "no window"] += 1
            if not bound_first:
                windows.clear()
                bound = _outcome(count_bound, f, 8)
                assert windows == [], text
            answers.append((bound, classes))
        assert answers[0] == answers[1], text
    assert min(seen["decided"], seen["swept"]) > 50, seen


def test_count_bound_reads_the_trap_taxonomy_made(monkeypatch):
    """The representative's trap is memoized on the map per (x, n) and
    shared by `taxonomy` and `is_trapped`: on the pinned maps and 100
    census-style maps, `count_bound` before or after `taxonomy` gives the
    same report and classes, and after `taxonomy` it sweeps no window."""
    windows = []
    real = taxonomy_module._window_on
    monkeypatch.setattr(taxonomy_module, "_window_on",
                        lambda *args: windows.append(args) or real(*args))
    texts = [pinned_text(name) for name in PINNED_NAMES]
    texts += [f.to_text() for f in _corpus(
        GeneratorConfig(seed=89, max_pieces=3), "bound", 100)]
    seen = Counter()
    for text in texts:
        answers = []
        for bound_first in (False, True):
            f = parse_map(text)
            found = [o for o in periodic_points(f, 8, max_power=16)
                     if o.continuous and o.kind != HALF_POINT]
            windows.clear()
            bound = _outcome(count_bound, f) if bound_first else None
            seen["cold windows"] += len(windows)
            classes = [_outcome(taxonomy, f, orb) for orb in found]
            if not bound_first:
                windows.clear()
                bound = _outcome(count_bound, f)
                assert windows == [], text
            answers.append((bound, classes))
        assert answers[0] == answers[1], text
        seen["counted"] += getattr(answers[0][0], "count_found", 0)
        seen["trapped"] += sum(getattr(c, "trapped", False)
                               for c in answers[0][1])
    assert seen["cold windows"] > 40 and seen["counted"] > 40, seen
    assert seen["trapped"] > 200, seen


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
                    got = taxonomy_module._make_witness(f, orb, w, inner, 0)
                    assert got == want, (f.to_text(), w, inner)
                    plus = inner > w
                    room = (w - f.piece_left_of(w).left if plus
                            else f.piece_right_of(w).right - w)
                    if got.delta < d:
                        binds["room" if got.delta == room else "ratio"] += 1
    assert min(binds.values()) > 20, binds
