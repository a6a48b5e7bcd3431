"""The cycle lock of `orbits.walk`, checked against an independent oracle.

A lock claims that the orbit of a trail point y converges to the cycle of
c without ever meeting a cut: J = [c - r, c + r], r = |y - c|, and its
images stay strictly inside single pieces, and the p-th image lies
strictly inside J.  The oracle re-checks each claim pointwise: it walks
the ends of J through the inward lateral limits of f, scans every cut
against each image, and asks `fixed_cycle` for the cycle of c.  The locks
come from the walks of `avoids_special_forever` and from walks whose only
stop data are the atlas points as balls of radius 0, on seeded
contracting-rich maps and their mirrors.
"""

import random
from functools import cache
from fractions import Fraction as F
from itertools import islice

from pwdyn.codes import Certifier, avoids_special_forever, codes, is_regular
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import MINUS, PLUS, _locate, _pair, _table, parse_map
from pwdyn.orbits import (PeriodicOrbit, _lock, ball_stops, fixed_cycle,
                          orbit, variants, walk)
from pwdyn.taxonomy import _map_atlas, attracted
from test_orbits import _answer_line, _digest, _mirror

# the map whose jump at 1/8 locks onto a period-9 cycle beyond the atlas
EIGHTH = ("interval 0 1\n"
          "piece 0 1/8 : slope -1/2 intercept 2311/4096\n"
          "piece 1/8 1 : slope 1 intercept -55/1024\n")


def _rotations(count):
    """Seeded contracted rotations, the family of the 1/8 map: a
    contracting piece on [0, w] and the shift x - d on [w, 1].  Their
    attracting cycles often have periods far beyond the atlas horizon."""
    rng = random.Random(26)
    slopes = [F(s, d) for s in (1, -1, 2, -2, 3, -3) for d in (2, 3, 4)
              if abs(s) < d]
    out = []
    while len(out) < count:
        w, d = F(rng.randint(1, 15), 16), F(rng.randint(1, 16), 256)
        s = rng.choice(slopes)
        lo, hi = max(F(0), -s * w), min(F(1), 1 - s * w)
        b = lo + (hi - lo) * F(rng.randint(0, 64), 64)
        if d <= w:
            out.append(parse_map(f"interval 0 1\npiece 0 {w} : slope {s} "
                                 f"intercept {b}\npiece {w} 1 : slope 1 "
                                 f"intercept {-d}\n"))
    return out


@cache
def _maps():
    """200 seeded contracting-rich maps and 60 contracted rotations, with
    their mirrors."""
    maps = list(_corpus(GeneratorConfig(seed=11, max_pieces=3,
                                        slope_palette="contracting-rich"),
                        "locks", 200)) + _rotations(60)
    return tuple(maps + [_mirror(f) for f in maps])


def _starts(f):
    """Three seeded points and the images of every special point, both
    one-sided limits at a jump."""
    out = [F(13, 97), F(50, 97), F(81, 97)]
    for w in f.special_points().points:
        v = f.value(w)
        out += [v] if v is not None else [f.lateral(w, MINUS),
                                          f.lateral(w, PLUS)]
    return out


def _centres(f):
    """Each atlas point as a ball of radius 0, which holds only its centre
    and keeps the lock off its cycle: a walk that lands on it stops there,
    where it would end in a repeat anyway."""
    return ball_stops((p, p, p, None) for orb in _map_atlas(f)
                      for p in orb.points)


def _locks(f):
    """(start, walk) for every walk from `_starts(f)` that ends on a lock:
    the walk of `avoids_special_forever`, to 2100 points, and a walk of
    130 points that tries the lock at 64 and 128, with no special point to
    end it and no ball but the atlas points."""
    balls = Certifier.of(f).balls
    marks = dict.fromkeys(f.special_points().points, "special")
    for x in _starts(f):
        for w in (walk(f, x, 2100, points=marks, balls=balls, lock=True),
                  walk(f, x, 130, balls=_centres(f), lock=True)):
            if w.reason == "lock":
                yield x, w


def _check_lock(f, w):
    """The oracle: the lock's cycle is a true p-cycle off the atlas, J and
    its images hold no cut, the trail from y and the cycle run inside
    them, and F(J) lies strictly inside J."""
    cycle, p = w.found, len(w.found)
    c, y = cycle[0], w.trail[w.start]
    assert fixed_cycle(f, c, p) == cycle
    atlas = {q for orb in _map_atlas(f) for q in orb.points}
    assert not atlas & set(cycle)
    r = abs(y - c)
    assert r > 0
    lo, hi = c - r, c + r
    cuts = (f.a, *f.breakpoints, f.b)  # the special points among them
    trail = w.trail[w.start:]
    for k in range(p):
        assert not any(lo <= u <= hi for u in cuts), (k, lo, hi)
        assert lo <= cycle[k] <= hi
        if k < len(trail):
            assert lo <= trail[k] <= hi
        lo, hi = sorted((f.lateral(lo, PLUS), f.lateral(hi, MINUS)))
    assert c - r < lo and hi < c + r


def test_every_lock_holds_under_the_pointwise_oracle():
    found = {"locks": 0, "maps": 0, "periods": set()}
    for f in _maps():
        locks = list(_locks(f))
        found["maps"] += bool(locks)
        for x, w in locks:
            _check_lock(f, w)
            found["locks"] += 1
            found["periods"].add(len(w.found))
            # the lock answers the walkers that read it
            target = PeriodicOrbit(w.found, len(w.found), None)
            assert attracted(f, x, target) == "yes"
    assert found["maps"] >= 20 and found["locks"] >= 100
    assert max(found["periods"]) > 50


def test_a_lock_leaves_atlas_cycles_to_the_balls():
    """Lock walks with no ball settle on atlas cycles; a ball centre on
    the cycle, alone or in the certifier's balls, keeps the lock off."""
    onto_atlas = 0
    for f in _maps()[:120]:
        atlas = {q for orb in _map_atlas(f) for q in orb.points}
        for x in _starts(f):
            w = walk(f, x, 130, lock=True)
            if w.reason == "lock" and w.found[0] in atlas:
                onto_atlas += 1
                assert walk(f, x, 130, balls=_centres(f),
                            lock=True).reason != "lock"
                w = walk(f, x, 130, balls=Certifier.of(f).balls, lock=True)
                assert w.reason != "lock" or not atlas & set(w.found)
    assert onto_atlas >= 20


def test_a_lock_needs_a_strict_contraction():
    """On 1 - x the trail 1/3, 2/3 composes to slope -1, whose J = [1/3,
    2/3] maps onto itself: no lock, though the window is 1-periodic and J
    lies inside the piece.  Slope -1/2 locks onto the fixed point 1/2."""
    for slope, want in ((F(-1), None), (F(-1, 2), (F(1, 2),))):
        f = parse_map(f"interval 0 1\npiece 0 1 : slope {slope} "
                      f"intercept {(1 - slope) / 2}\n")
        t = _table(f)
        tail = [_pair(F(1, 3)), _pair(f.value(F(1, 3)))]
        assert _lock(t, tail, [_locate(t.cuts, *q) for q in tail],
                     ()) == want


def test_a_lock_starts_off_the_cuts():
    """The trail 1/2, 19/32 steps the piece x/4 + 15/32 of [1/2, 1] from
    its left end, towards its fixed point 5/8: J = [1/2, 3/4] holds the
    cut 1/2, so there is no lock.  From 9/16 there is one."""
    f = parse_map("interval 0 1\npiece 0 1/2 : slope 1/2 intercept 11/32\n"
                  "piece 1/2 1 : slope 1/4 intercept 15/32\n")
    t = _table(f)
    for y, want in ((F(1, 2), None), (F(9, 16), (F(5, 8),))):
        tail = [_pair(y), _pair(f.value(y))]
        assert _lock(t, tail, [_locate(t.cuts, *q) for q in tail],
                     ()) == want


def test_a_lock_is_opt_in():
    """`orbit` and `fixed_cycle` pass no lock: on the 1/8 map the walk
    from the jump's left limit runs to its cap or the bit cap, where the
    lock settles it after 64 points."""
    f = parse_map(EIGHTH)
    x = f.lateral(F(1, 8), MINUS)
    assert orbit(f, x, variants(f)[0]).truncated
    assert fixed_cycle(f, x, 200) is None
    assert walk(f, x, 201).reason == "cap"
    locked = walk(f, x, 201, lock=True)
    assert (locked.reason, len(locked.pairs)) == ("lock", 64)
    assert len(locked.found) == 9
    assert avoids_special_forever(f, x).value == "yes"


def _lock_calls():
    """(line head, call) for the walkers on new (cold) maps that hold a
    lock: every start and special point, and the lock cycles as targets."""
    held = (f.to_text() for f in _maps() if next(_locks(f), None))
    texts = [EIGHTH, *islice(held, 6)]
    for i, text in enumerate(texts):
        probe = parse_map(text)
        targets = {w.found for _, w in _locks(probe)}
        f = parse_map(text)
        for x in _starts(f):
            yield (f"{i} {x} good",
                   lambda f=f, x=x: avoids_special_forever(f, x))
            yield f"{i} {x} codes", lambda f=f, x=x: codes(f, x)
            for cycle in sorted(targets):
                orb = PeriodicOrbit(cycle, len(cycle), None)
                yield (f"{i} {x} attracted {cycle[0]}",
                       lambda f=f, x=x, orb=orb: attracted(f, x, orb))
        for w in f.special_points().points:
            yield f"{i} {w} regular", lambda f=f, w=w: is_regular(f, w)


def test_lock_answers_do_not_depend_on_call_order():
    """The walkers' answers on cold maps, in canonical and in a seeded
    shuffled order, so each memo (atlas, certifier, atlas points) is first
    built by a different walker, give the same lines; some are locks."""
    canonical = list(_lock_calls())
    lines = [_answer_line(*c) for c in canonical]
    shuffled = list(_lock_calls())
    order = list(range(len(shuffled)))
    random.Random(26).shuffle(order)
    again = [None] * len(shuffled)
    for i in order:
        again[i] = _answer_line(*shuffled[i])
    assert _digest(again) == _digest(lines)
    assert sum("attracted" in line and line.endswith(" 'yes'\n")
               for line in lines) >= 10
