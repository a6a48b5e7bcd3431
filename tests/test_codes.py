from collections import Counter
from fractions import Fraction as F

import pytest

import pwdyn.codes as codes_module
from pwdyn.codes import (CertificationError, Certifier,
                         CodeUndefinedError, PartitionIntervals,
                         RegularityCertificate, Trivalent,
                         _stabilized_interval, attractor_regular_source, avoids_special_forever,
                         codes, is_regular, regular_attractor,
                         regularity_certificate)
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import MINUS, parse_map
from pwdyn.orbits import (DENOM_BIT_CAP, Germ, ball_stops, germ_orbit,
                          image_chain, periodic_points)
from pwdyn.pinned import pinned_map, pinned_maps
from pwdyn.stability import STABLE
from pwdyn.taxonomy import PreconditionError, _map_atlas, is_trapped
from test_orbits import _mirror


def test_partition(maps):
    part = PartitionIntervals.of(maps["shift"])
    assert part.cuts == (F(0), F(1, 2), F(1))
    assert part.indices_of(F(1, 4)) == (0,)
    assert part.indices_of(F(1, 2)) == (0, 1)
    assert part.indices_of(F(0)) == (0,)
    assert part.indices_of(F(1)) == (1,)
    for x in (F(-1), F(2)):
        with pytest.raises(ValueError, match=fr"^{x} outside \[0, 1\]$"):
            part.indices_of(x)


def test_partition_makes_its_cut_pairs_once(monkeypatch):
    """`indices_of` reads the cut pairs made on its first call; the cached
    pairs change neither equality, hash nor repr of the partition.  The
    map is new, since its partition is memoized on it."""
    calls = []
    real = codes_module._pair
    monkeypatch.setattr(codes_module, "_pair",
                        lambda x: calls.append(x) or real(x))
    part = PartitionIntervals.of(pinned_map("tent"))
    before = (hash(part), repr(part))
    for x in (F(1, 4), F(1, 2), F(1)):
        part.indices_of(x)
    assert len(calls) == len(part.cuts) + 3
    assert part == PartitionIntervals.of(pinned_map("tent"))
    assert (hash(part), repr(part)) == before


def test_a_map_builds_its_partition_once(monkeypatch):
    """`PartitionIntervals.of` is memoized on the map: every `codes`,
    `regularity_certificate`, constraint interval and `regular_attractor`
    call on one map reads the same partition, so its cut pairs are made
    once."""
    f = pinned_map("hat")
    built = []
    real = PartitionIntervals.__init__
    monkeypatch.setattr(PartitionIntervals, "__init__",
                        lambda self, *a: built.append(a) or real(self, *a))
    part = PartitionIntervals.of(f)
    assert PartitionIntervals.of(f) is part
    codes(f, F(1, 3))
    regularity_certificate(f, F(1, 2))
    regular_attractor(f, F(1, 2))
    assert len(built) == 1
    assert PartitionIntervals.of(pinned_map("hat")) is not part


def test_code_shift(maps):
    f = maps["shift"]
    out = codes(f, F(1, 3))
    assert len(out) == 1
    code = out[0]
    assert code.prefix == (0,) and code.cycle == (0, 1)
    assert not code.strictly_periodic
    with pytest.raises(CodeUndefinedError):
        codes(f, F(1, 4))


def test_code_hat_turning_point(maps):
    """The turning point 1/2 of the hat admits both first indices; the
    code behind its certificate is the strictly periodic one, first index
    1 and the fixed point's index after it."""
    code = regularity_certificate(maps["hat"], F(1, 2)).code
    assert code.strictly_periodic and code.period == 1
    assert code.head(3) == (1, 1, 1)


def test_good_set(maps):
    f = maps["shift"]
    assert avoids_special_forever(f, F(1, 4)).value == "no"
    assert avoids_special_forever(f, F(1, 3)).value == "yes"
    assert avoids_special_forever(maps["hat"], F(5, 8)).value == "yes"


def test_good_set_unknown_cap(maps):
    t = maps["tent"]
    verdict = avoids_special_forever(t, F(1, 7), cap=5)
    assert verdict.value == "unknown" and verdict.cap_used == 5


def test_unique_code_for_good_points(maps):
    f = maps["shift"]
    for x in (F(1, 3), F(11, 24), F(7, 12)):
        assert avoids_special_forever(f, x).value == "yes"
        assert len(codes(f, x)) == 1


def test_is_regular(maps):
    assert is_regular(maps["hat"], F(1, 2)).value == "yes"
    assert is_regular(maps["shift"], F(1, 2)).value == "no"
    for side in ("minus", "plus"):
        assert is_regular(maps["shift"], F(1, 2), side=side).value == "no"
    assert is_regular(maps["tent"], F(1, 2)).value == "unknown"
    with pytest.raises(PreconditionError):
        is_regular(maps["hat"], F(1, 3))


def test_regularity_checks_its_point_and_side_before_walking(maps,
                                                             monkeypatch):
    """A point that is not special raises before any walk, also where its
    image is special (hat: f(1/4) = 1/2), and so does a side given at a
    point that is not a jump (the hat's turning point 1/2)."""
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before checking the input")

    monkeypatch.setattr(codes_module, "walk", no_walk)
    hat = maps["hat"]
    for w in (F(1, 4), F(1, 3)):
        for ask in (is_regular, regularity_certificate, regular_attractor):
            with pytest.raises(PreconditionError,
                               match=f"^{w} is not a special point$"):
                ask(hat, w)
    for side in ("minus", "plus"):
        for ask in (is_regular, regularity_certificate):
            with pytest.raises(PreconditionError,
                               match="^1/2 is not a jump point"):
                ask(hat, F(1, 2), side=side)
    monkeypatch.undo()
    cert = regularity_certificate(hat, F(1, 2))
    assert isinstance(cert, RegularityCertificate) and cert.side is None
    assert regularity_certificate(maps["shift"], F(1, 2),
                                  side="plus").value == "no"


def test_jump_with_two_unknown_sides_is_unknown():
    # neither side of the jump at 1/8 settles within 20 steps
    f = parse_map("interval 0 1\n"
                  "piece 0 1/8 : slope -1/2 intercept 2311/4096\n"
                  "piece 1/8 1 : slope 1 intercept -55/1024\n")
    w = F(1, 8)
    for side in ("minus", "plus"):
        assert regularity_certificate(f, w, 20, side=side).value == "unknown"
    assert regularity_certificate(f, w, 20) == Trivalent("unknown", 20)
    assert is_regular(f, w, 20) == Trivalent("unknown", 20)
    # at the default cap both sides lock onto a period-9 cycle, beyond the
    # horizon-8 atlas, and the minus side certifies it as the attractor
    assert is_regular(f, w) == Trivalent("yes")
    res = regular_attractor(f, w)
    assert res.orbit.points == tuple(F(n, 6144) for n in (
        551, 3191, 2861, 2531, 2201, 1871, 1541, 1211, 881))
    assert (res.side, res.code.cycle) == ("minus", (0, 1, 1, 1, 1, 1, 1, 1, 1))
    assert (res.stability, res.attracted_verdict) == (STABLE, "yes")
    # the slope-3/2 tent settles at no cycle: its turning point stays unknown
    with pytest.raises(PreconditionError, match="verdict unknown"):
        regular_attractor(pinned_map("tent"), F(1, 2))


def test_a_jump_keeps_its_unknown_sides_cap_used():
    """With no side given, a jump whose sides are both unknown answers the
    first unknown side's own verdict: on this expanding map both sides of
    1/2 run out of the denominator budget, not of the step cap."""
    f = parse_map("interval 0 1\n"
                  "piece 0 1/2 : slope 3/2 intercept 0\n"
                  "piece 1/2 1 : slope 3/2 intercept -1/2\n")
    w, budget = F(1, 2), Trivalent("unknown", DENOM_BIT_CAP)
    for side in ("minus", "plus"):
        assert regularity_certificate(f, w, side=side) == budget
    assert regularity_certificate(f, w) == budget
    assert is_regular(f, w) == budget


def test_a_certificate_checks_the_point_and_side(maps):
    """`regularity_certificate` reads each side's start through
    `_side_start`: a side at a point that is not a jump raises, as does a
    point that is not special.  A jump needs no side: without one, both
    sides are tried."""
    for side in ("minus", "plus"):
        with pytest.raises(PreconditionError,
                           match="^1/2 is not a jump point, so it has no "
                                 "side$"):
            regularity_certificate(maps["hat"], F(1, 2), side=side)
    with pytest.raises(PreconditionError,
                       match="^1/3 is not a special point$"):
        regularity_certificate(maps["hat"], F(1, 3))
    shift, w = maps["shift"], F(1, 2)
    assert regularity_certificate(shift, w) == Trivalent("no")
    assert [regularity_certificate(shift, w, side=s) for s in
            ("minus", "plus")] == [Trivalent("no")] * 2


def test_a_certificate_walks_once_per_side(monkeypatch):
    """A certified side reads its codes off its good-set walk, so
    `regularity_certificate` walks once per side it tries: once at a
    turning point or at a jump with a side, and at a jump without one
    once when the minus side is certified, else twice.  Cold pinned and
    seeded maps, each certifier built before the walks are counted."""
    walks = []
    real = codes_module.walk
    monkeypatch.setattr(codes_module, "walk",
                        lambda *a, **k: walks.append(a) or real(*a, **k))
    jump = parse_map("interval 0 1\n"
                     "piece 0 1/8 : slope -1/2 intercept 2311/4096\n"
                     "piece 1/8 1 : slope 1 intercept -55/1024\n")
    certified = Counter()
    for f in [*pinned_maps().values(), jump,
              *_corpus(GeneratorConfig(seed=29), "walks", 40)]:
        Certifier.of(f)
        special = f.special_points()
        for w in special.points:
            at_jump = w in special.discontinuities
            for side in (None, "minus", "plus") if at_jump else (None,):
                walks.clear()
                cert = regularity_certificate(f, w, side=side)
                found = isinstance(cert, RegularityCertificate)
                tried = 2 if at_jump and side is None and not (
                    found and cert.side == "minus") else 1
                assert len(walks) == tried, (f.to_text(), w, side)
                certified[at_jump, side is None] += found
    assert min(certified.values()) >= 2, certified


def test_an_attractor_after_its_verdict_walks_no_side_again(monkeypatch):
    """`regular_attractor(f, w)` after `is_regular(f, w)` reads the
    memoized certificate, so it walks no side again, where each side was
    once walked a second time; a rejected point caches nothing and
    raises again.  Cold pinned and seeded maps, and the period-9 jump."""
    walks = []
    real = codes_module.walk
    monkeypatch.setattr(codes_module, "walk",
                        lambda *a, **k: walks.append(a) or real(*a, **k))
    jump = parse_map("interval 0 1\n"
                     "piece 0 1/8 : slope -1/2 intercept 2311/4096\n"
                     "piece 1/8 1 : slope 1 intercept -55/1024\n")
    seen = Counter()
    for f in [*pinned_maps().values(), jump,
              *_corpus(GeneratorConfig(seed=29), "walks", 40)]:
        for w in f.special_points().points:
            walks.clear()
            verdict = is_regular(f, w)
            seen["walked"] += len(walks)
            if verdict.value != "yes":
                continue
            walks.clear()
            try:
                regular_attractor(f, w)
            except CertificationError:
                pass
            assert walks == [], (f.to_text(), w)
            seen["attractors"] += 1
    assert seen["attractors"] > 20 and seen["walked"] > seen["attractors"]
    hat = pinned_map("hat")
    for _ in range(2):
        with pytest.raises(PreconditionError, match="^1/3 is not a special"):
            regularity_certificate(hat, F(1, 3))
    assert not any(key[0] == "certificate" and key[1] == F(1, 3)
                   for key in hat._cache)


def test_regular_not_periodic(maps):
    h = maps["hat"]
    cert = regularity_certificate(h, F(1, 2))
    assert isinstance(cert, RegularityCertificate)
    for side in ("minus", "plus"):
        go = germ_orbit(h, Germ(F(1, 2), side))
        assert go.preperiod > 0 or go.truncated


def test_forward_hat(maps):
    h = maps["hat"]
    res = regular_attractor(h, F(1, 2))
    assert res.orbit.points == (F(7, 12),)
    assert res.stability == STABLE
    assert not is_trapped(h, res.orbit).trapped
    assert res.attracted_verdict == "yes"
    assert res.interval == (F(1, 2), F(3, 4))


# f(3/10) = 3/10, and f^k(11/40) climbs to it geometrically, so the code
# interval of the turning point 1/2 is refined before it maps into itself
REFINED = """interval 0 1
piece 0 1/4 : slope 1 intercept 1/2
piece 1/4 7/20 : slope 2 intercept -3/10
piece 7/20 1/2 : slope 1/4 intercept 5/16
piece 1/2 1 : slope -7/8 intercept 7/8
"""


def test_forward_interval_refined_past_the_first_round(monkeypatch):
    """At the turning point 1/2 the code interval [11/40, 1/2] is not
    forward invariant: `_stabilized_interval` runs a second round, whose
    geometric limit closes the lower end at the fixed point 3/10, and
    J = [3/10, 1/2] maps into itself.  At the jump 1/4, from the minus
    side, J is the code interval itself."""
    rounds = []
    real = codes_module._geometric_limit
    monkeypatch.setattr(codes_module, "_geometric_limit",
                        lambda f, los, his, n: rounds.append(len(los))
                        or real(f, los, his, n))
    f = parse_map(REFINED)
    assert f.special_points().turning == (F(1, 2),)
    assert f.special_points().discontinuities == (F(1, 4),)
    res = regular_attractor(f, F(1, 2))
    assert codes_module._constraint_interval(f, res.code)[:2] == \
        (F(11, 40), F(1, 2))
    assert rounds == [2, 3]
    assert res.interval == (F(3, 10), F(1, 2))
    assert f.value(F(3, 10)) == F(3, 10)
    p, q = image_chain(f, *res.interval, 1)[-1]
    assert F(3, 10) <= p and q <= F(1, 2)
    assert res.orbit.points == (F(5, 12),) and res.stability == STABLE
    assert res.attracted_verdict == "yes"
    rounds.clear()
    res = regular_attractor(f, F(1, 4))
    assert res.side == MINUS and res.code.period == 2
    assert res.interval == codes_module._constraint_interval(f, res.code)[:2] \
        == (F(3, 14), F(1, 4))
    assert res.orbit.points == (F(7, 30), F(11, 15))
    assert res.stability == STABLE and res.attracted_verdict == "yes"
    assert rounds == []


def test_forward_code_interval_invariants(maps):
    h = maps["hat"]
    res = regular_attractor(h, F(1, 2))
    lo, hi = res.interval
    part = PartitionIntervals.of(h)
    sigma = res.code.cycle
    for i in range(1, 8):
        x = lo + (hi - lo) * F(i, 8)
        for code in codes(h, x):
            assert code.head(len(sigma)) == sigma
    # forward invariance of J under the period power
    p, q = h.lateral(lo, "plus"), h.lateral(hi, "minus")
    lo2, hi2 = min(p, q), max(p, q)
    assert lo <= lo2 and hi2 <= hi


def test_forward_guard(maps):
    with pytest.raises(PreconditionError):
        regular_attractor(maps["shift"], F(1, 2))


def test_reverse_hat(maps):
    h = maps["hat"]
    orb = periodic_points(h, 1)[0]
    w, verdict = attractor_regular_source(h, orb)
    assert w == F(1, 2) and verdict.value == "yes"


def test_reverse_guard_trapped(maps):
    t = maps["tent"]
    orb = [o for o in periodic_points(t, 1) if o.points == (F(3, 5),)][0]
    with pytest.raises(PreconditionError):
        attractor_regular_source(t, orb)


def test_nongood_points_in_skeleton(maps):
    f = maps["shift"]
    for x in (F(1, 4), F(3, 8), F(1, 2)):
        verdict = avoids_special_forever(f, x)
        assert verdict.value == "no"
        probe, depth = x, 0
        while probe not in set(f.special_points().points):
            probe = f.value(probe)
            depth += 1
        assert x in set(f.special_preimage_set(depth + 1))


def _duality_calls(f):
    w, x = F(1, 2), F(1, 3)
    return [("is_regular", lambda: is_regular(f, w)),
            ("regular_attractor", lambda: regular_attractor(f, w)),
            ("avoids", lambda: avoids_special_forever(f, x)),
            ("codes", lambda: codes(f, x))]


def test_certifier_built_once_per_map(monkeypatch):
    builds = []
    real = Certifier.__init__
    monkeypatch.setattr(Certifier, "__init__",
                        lambda self, f: builds.append(f) or real(self, f))
    h = pinned_map("hat")
    for _, call in _duality_calls(h):
        call()
    assert builds == [h]


def test_memoized_answers_do_not_depend_on_call_order():
    fresh = {name: call() for name, call in _duality_calls(pinned_map("hat"))}
    warm_map = pinned_map("hat")
    periodic_points(warm_map, 2)
    for _, call in reversed(_duality_calls(warm_map)):
        call()
    warm = {name: call() for name, call in _duality_calls(warm_map)}
    assert warm == fresh


def test_walkers_reject_cap_below_one(maps):
    h = maps["hat"]
    for call in (lambda: avoids_special_forever(h, F(1, 3), 0),
                 lambda: codes(h, F(1, 3), 0),
                 lambda: is_regular(h, F(1, 2), 0)):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            call()


def test_stabilized_interval_passes_over_a_one_point_guess():
    """On the slope-3/2 tent the rounds from [0, 1/3] shrink to
    [0, (2/3)^k / 3], so the geometric guess closes to the single point
    0, which is no interval: the refinement finds none instead of failing
    to step that point's left end."""
    f = parse_map("interval 0 1\n"
                  "piece 0 1/2 : slope 3/2 intercept 0\n"
                  "piece 1/2 1 : slope -3/2 intercept 3/2\n")
    assert _stabilized_interval(f, (F(0), F(1, 3)), 1) is None


def test_regular_attractor_rejects_an_image_past_the_upper_end(monkeypatch):
    """On `hat` the stabilized interval of the regular point 1/2 is
    [1/2, 3/4].  Handed [1/2, 7/12] instead, whose image [7/12, 5/8]
    starts inside it but ends past 7/12, the certificate must fail."""
    h = pinned_map("hat")
    assert regular_attractor(h, F(1, 2)).interval == (F(1, 2), F(3, 4))
    monkeypatch.setattr(codes_module, "_stabilized_interval",
                        lambda f, base, n: (F(1, 2), F(7, 12)))
    with pytest.raises(CertificationError,
                       match="code interval is not forward invariant"):
        regular_attractor(pinned_map("hat"), F(1, 2))


def _ref_certifier_balls(f):
    """The certifier's stop-test data as it was built when the stretch
    read each side's slope off the Fraction pieces; the reference.  Also
    the number of balls the threshold cut."""
    sset = set(f.special_points().points)
    boundaries = sorted({f.a, f.b, *f.breakpoints})
    locks, cut = [], 0
    for orb, balls in _map_atlas(f).items():
        if any(p in sset for p in orb.points):
            continue
        clearance = min(min(abs(c - p) for c in boundaries if c != p)
                        for p in orb.points)
        stretch = worst = F(1)
        for p in orb.points * 2:
            sides = []
            if p > f.a:
                sides.append(abs(f.piece_left_of(p).slope))
            if p < f.b:
                sides.append(abs(f.piece_right_of(p).slope))
            stretch *= max(sides)
            worst = max(worst, stretch)
        threshold = clearance / worst
        cut += sum(b.radius > threshold for b in balls)
        locks += [(*b.span(min(b.radius, threshold)), b.center,
                   (orb, b.center)) for b in balls]
    return ball_stops(locks), cut


def test_certifier_matches_the_fraction_reference():
    """The certifier's balls, their radii cut by a stretch read off the
    int segments, equal the ones the Fraction side pieces gave, over the
    pinned maps and 300 seeded ones, where the cut binds."""
    cut = 0
    for f in [*pinned_maps().values(),
              *_corpus(GeneratorConfig(seed=7), "certifier", 300)]:
        balls, n = _ref_certifier_balls(f)
        assert Certifier(f).balls == balls, f.to_text()
        cut += n
    assert cut > 20, cut


def test_no_certifier_ball_holds_a_special_point():
    """`codes` lists no special point for its walk, and needs none: an
    atlas ball lies in one segment of its centre's monotone window, inside
    the gap between the special points around the centre, and the
    certifier cuts it further to the orbit's clearance from every cut; the
    centre is a point of an orbit that meets no jump or turn.  So no
    special point lies strictly inside a ball's span or on its centre.
    Seeded mixed and contracting-rich maps and their mirrors."""
    maps = []
    for palette in ("mixed", "contracting-rich"):
        maps += _corpus(GeneratorConfig(seed=27, max_pieces=3,
                                        slope_palette=palette),
                        "clear", 400)
    maps += [_mirror(f) for f in maps]
    balls = 0
    for f in maps:
        for ln, ld, hn, hd, cn, cd, _ in Certifier.of(f).balls:
            balls += 1
            for w in f.special_points().points:
                p, q = w.numerator, w.denominator
                assert not (ln * q < p * ld and p * hd < hn * q), f.to_text()
                assert (p, q) != (cn, cd), f.to_text()
    assert balls >= 1500
