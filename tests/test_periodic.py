"""Periodic orbits and the doubled-power fixed points against the Fraction
code they replaced.

`periodic_points` and `regular_attractor` read fixed points off pieces
with `orbits.fixed_points` and check each candidate's cycle with one
`orbits.walk` (`orbits.fixed_cycle`).  The code below is the code they
replaced, kept as the reference: it steps candidates with `f.value` and
solves each piece list on its own.  Every orbit, result and error message
must be the same.
"""

from fractions import Fraction as F

import pytest

from pwdyn import codes as codes_module
from pwdyn import maps as maps_module
from pwdyn import orbits
from pwdyn.codes import (CertificationError, NO, PartitionIntervals,
                         RegularAttractorResult, RegularityCertificate,
                         _constraint_interval, _stabilized_interval,
                         regular_attractor, regularity_certificate)
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import (MINUS, PLUS, PieceLimitError, PowerLimitError,
                        PwdynError, _affine, parse_map)
from pwdyn.orbits import (HALF_POINT, INTERVAL_FAMILY, POINT, PeriodicOrbit,
                          _half_point_cycle, _inside_family, fixed_cycle,
                          fixed_points, image_chain, periodic_points)
from pwdyn.pinned import pinned_maps
from pwdyn.stability import SEMI_STABLE, STABLE, classify_point
from pwdyn.taxonomy import PreconditionError, attracted, taxonomy
from test_oracles import stepwise
from test_orbits import _mirror

# -- the Fraction enumeration, the reference ----------------------------------


def _ref_minimal_period(f, x, n):
    chain = stepwise(f, x, n)
    if chain is None or chain[-1] != x:
        return None
    for d in range(1, n):
        if n % d == 0 and chain[d] == x:
            return d
    return n


def _ref_endpoint_fixed(f, e, n):
    chain = stepwise(f, e, n)
    return chain is not None and chain[-1] == e


def _ref_collect_families(f, n, left, right, add):
    cuts = {x for x in f.special_preimage_set(n) if left < x < right}
    blocked = []
    for d in range(1, n):
        if n % d != 0:
            continue
        fd = f.power(d, check=False)
        for piece in fd.pieces:
            if piece.right <= left or piece.left >= right:
                continue
            if piece.slope == 1 and piece.intercept == 0:
                blocked.append((max(left, piece.left), min(right, piece.right)))
            elif piece.slope != 1:
                x = piece.intercept / (1 - piece.slope)
                if piece.left < x < piece.right and left < x < right:
                    cuts.add(x)
        for w in (fd.a, fd.b, *fd.breakpoints):
            if left < w < right and fd.value(w) == w:
                cuts.add(w)
    bounds = sorted({left, right} | cuts
                    | {e for pair in blocked for e in pair if left < e < right})
    for lo, hi in zip(bounds, bounds[1:]):
        if lo >= hi:
            continue
        mid = (lo + hi) / 2
        if any(blo <= mid <= bhi for blo, bhi in blocked):
            continue
        if _ref_minimal_period(f, mid, n) != n:
            continue
        intervals = image_chain(f, lo, hi, n - 1)
        canon = min(intervals)
        rep = (canon[0] + canon[1]) / 2
        chain = stepwise(f, rep, n)
        closed = (_ref_endpoint_fixed(f, canon[0], n),
                  _ref_endpoint_fixed(f, canon[1], n))
        add(PeriodicOrbit(tuple(chain[:n]), n, None, INTERVAL_FAMILY,
                          tuple(sorted(set(intervals))), closed))


def _ref_periodic_points(f, max_period):
    jumps = set(f.special_points().discontinuities)
    found = {}

    def add(orb):
        found.setdefault(orb.key(), orb)

    for n in range(1, max_period + 1):
        fn = f.power(n, check=False)
        n_families = []
        collect = lambda orb: (n_families.append(orb), add(orb))  # noqa: E731
        candidates = set()
        for piece in fn.pieces:
            if piece.slope == 1:
                if piece.intercept == 0:
                    _ref_collect_families(f, n, piece.left, piece.right,
                                          collect)
                continue
            x = piece.intercept / (1 - piece.slope)
            if piece.left < x < piece.right:
                candidates.add(x)
        for w in (fn.a, fn.b, *fn.breakpoints):
            if fn.value(w) == w:
                candidates.add(w)
        for x in sorted(candidates):
            if _ref_minimal_period(f, x, n) != n:
                continue
            if _inside_family(x, n_families, f):
                continue
            cycle = tuple(stepwise(f, x, n)[:n])
            # a point cycle is continuous: `stepwise` stops at a jump
            assert not any(p in jumps for p in cycle), (f.to_text(), cycle)
            add(PeriodicOrbit(cycle, n, None, POINT))

    for w in sorted(jumps):
        for side in (MINUS, PLUS):
            orb = _half_point_cycle(f, w, side, max_period)
            if orb is not None:
                add(orb)
    return sorted(found.values(),
                  key=lambda o: (o.period, o.kind, o.points[0], o.points))


# -- the Fraction doubled-power fixed points, the reference --------------------


def _ref_fixed_points_of_segments(segs):
    out = set()
    for seg in segs:
        if seg.slope == 1:
            if seg.intercept == 0:
                out.add(seg.left)
                out.add(seg.right)
            continue
        t = seg.intercept / (1 - seg.slope)
        if seg.left <= t <= seg.right:
            out.add(t)
    return sorted(out)


def _ref_conforms(f, t, code, part):
    sigma = code.cycle
    chain = stepwise(f, t, 2 * len(sigma))
    if chain is None:
        return False
    for m, current in enumerate(chain[:-1]):
        lo, hi = part.interval(sigma[m % len(sigma)])
        if not lo <= current <= hi:
            return False
    return True


def _ref_regular_attractor(f, w):
    w = F(w)
    cert = regularity_certificate(f, w)
    if not isinstance(cert, RegularityCertificate):
        raise PreconditionError(
            f"{w} is not certified regular (verdict {cert.value})")
    code = cert.code
    n = code.period
    lo, hi, segs = _constraint_interval(f, code)
    base = (lo, hi)
    if not base[0] <= w <= base[1]:
        raise CertificationError("regular point left its own code interval")
    part = PartitionIntervals.of(f)
    fixed = [t for t in _ref_fixed_points_of_segments(_affine(segs))
             if _ref_conforms(f, t, code, part)]
    if w == base[1]:
        below = [t for t in fixed if t < w]
        if not below:
            raise CertificationError("no fixed point of the doubled power "
                                     "below the regular point")
        x_star = max(below)
    elif w == base[0]:
        above = [t for t in fixed if t > w]
        if not above:
            raise CertificationError("no fixed point of the doubled power "
                                     "above the regular point")
        x_star = min(above)
    else:
        raise CertificationError("regular point is not an endpoint of its "
                                 "code interval")
    chain = stepwise(f, x_star, 2 * n)
    if chain is None:
        raise CertificationError("attracting orbit hit a jump")
    period = next(d for d in range(1, 2 * n + 1)
                  if chain[d] == x_star and (2 * n) % d == 0)
    orb = PeriodicOrbit(tuple(chain[:period]), period, None)
    interval = _stabilized_interval(f, base, n)
    if interval is None:
        partner = chain[n]
        interval = (min(x_star, partner), w) if w == base[1] \
            else (w, max(x_star, partner))
    p, q = image_chain(f, *interval, n)[-1]
    if not interval[0] <= p and q <= interval[1]:
        raise CertificationError("code interval is not forward invariant")
    stability = classify_point(f, x_star)
    if stability not in (STABLE, SEMI_STABLE):
        raise CertificationError(f"attracting orbit classified {stability}")
    tax = taxonomy(f, orb)
    if tax.trapped:
        raise CertificationError("attracting orbit is trapped")
    start = f.value(w)
    if start is None:
        start = f.lateral(w, cert.side)
    verdict = attracted(f, start, orb)
    if verdict == NO:
        raise CertificationError("regular point not attracted to the orbit")
    return RegularAttractorResult(w, cert.side, code, interval, orb,
                                  stability, verdict)


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except PwdynError as exc:
        return f"{type(exc).__name__}: {exc}"


# -- the comparisons -----------------------------------------------------------


def _census_corpus(count):
    """Census-style maps (at most three pieces), a family-rich draw of
    neutral slopes, and their mirrors."""
    cfg = GeneratorConfig(seed=61, max_pieces=3)
    maps = list(_corpus(cfg, "periodic", count))
    maps += list(_corpus(cfg, "families", count // 2,
                         slope_palette="neutral-rich",
                         discontinuity_bias=0.8))
    return maps + [_mirror(f) for f in maps]


@pytest.mark.parametrize("max_period, limit, count",
                         [(4, 8, 150), (8, 16, 40)])
def test_periodic_points_match_the_fraction_reference(max_period, limit,
                                                      count):
    """Every orbit, in order and with every field, or the same error, on
    the pinned maps and a seeded census-style corpus."""
    maps = list(pinned_maps().values()) + _census_corpus(count)
    kinds = {POINT: 0, INTERVAL_FAMILY: 0, HALF_POINT: 0, "closed": 0}
    for f in maps:
        want = _outcome(_ref_periodic_points, f, max_period)
        got = _outcome(periodic_points, f, max_period, max_power=limit)
        assert got == want, f.to_text()
        for orb in () if isinstance(want, str) else want:
            kinds[orb.kind] += 1
            kinds["closed"] += any(orb.interval_closed)
    assert min(kinds.values()) > 0, kinds
    assert kinds[POINT] > 4 * count, kinds


def test_regular_attractor_matches_the_fraction_reference():
    """The result or the error at every special point (each side of a
    jump answers through the certified side) of the pinned maps and of a
    duality-style corpus and its mirrors."""
    cfg = GeneratorConfig(seed=43, slope_palette="contracting-rich",
                          max_pieces=3)
    maps = list(pinned_maps().values())
    drawn = [f for f in _corpus(cfg, "duality", 40)
             if f.special_points().points]
    maps += drawn + [_mirror(f) for f in drawn]
    seen = {"result": 0, "precondition": 0}
    for f in maps:
        for w in f.special_points().points:
            want = _outcome(_ref_regular_attractor, f, w)
            assert _outcome(regular_attractor, f, w) == want, (f.to_text(), w)
            if isinstance(want, RegularAttractorResult):
                seen["result"] += 1
            else:
                seen["precondition"] += want.startswith("Precondition")
    assert min(seen.values()) > 0, seen
    assert seen["result"] > 20, seen


# Drawn duality-style maps whose regular point w has two conforming fixed
# points of the doubled power past it in its code interval, two of a
# 2-cycle: the pick decides which one the orbit is listed from.
TWO_PAST = [
    ("interval 0 1\npiece 0 1/16 : slope -3 intercept 465/1024\n"
     "piece 1/16 5/8 : slope -1 intercept 3449/4096\n"
     "piece 5/8 1 : slope -1/2 intercept 2169/4096\n", F(1, 16)),
    ("interval 0 1\npiece 0 1/4 : slope 3 intercept 1/128\n"
     "piece 1/4 3/4 : slope -1 intercept 281/256\n"
     "piece 3/4 1 : slope -1/2 intercept 185/256\n", F(1, 4)),
    ("interval 0 1\npiece 0 1/2 : slope -1 intercept 467/512\n"
     "piece 1/2 3/4 : slope -3/4 intercept 403/512\n"
     "piece 3/4 1 : slope -2/3 intercept 1289/1536\n", F(3, 4)),
    ("interval 0 1\npiece 0 11/16 : slope -1 intercept 467/512\n"
     "piece 11/16 7/8 : slope -1/2 intercept 291/512\n"
     "piece 7/8 1 : slope -2 intercept 2081/1024\n", F(7, 8)),
]


def test_the_endpoint_pick_takes_the_fixed_point_next_to_w():
    """Where two conforming fixed points lie past w, at the lower end of
    its code interval and at the upper, the result is the reference's:
    its orbit is listed from the fixed point nearest w."""
    ends = set()
    for text, w in TWO_PAST:
        f = parse_map(text)
        code = regularity_certificate(f, w).code
        lo, hi, segs = _constraint_interval(f, code)
        part = PartitionIntervals.of(f)
        fixed = [t for t in _ref_fixed_points_of_segments(_affine(segs))
                 if _ref_conforms(f, t, code, part)]
        past = [t for t in fixed if (t < w if w == hi else t > w)]
        assert len(past) == 2, (text, past)
        ends.add(w == hi)
        want = _ref_regular_attractor(f, w)
        assert regular_attractor(f, w) == want, text
        assert want.orbit.points[0] == (max if w == hi else min)(past)
    assert ends == {False, True}


def test_the_endpoint_pick_fails_as_the_reference_does(monkeypatch):
    """`regular_attractor` against the reference where the code interval
    is planted, its segments kept: moved past a certified w at its upper
    end, so that w is the lower end with every fixed point below it;
    moved the other way from a w at its lower end; and widened around w.
    Each raises the reference's CertificationError, a branch that no
    drawn map reaches."""
    real = codes_module._constraint_interval
    cfg = GeneratorConfig(seed=43, slope_palette="contracting-rich",
                          max_pieces=3)
    drawn = [f for f in _corpus(cfg, "duality", 40)
             if f.special_points().points]
    found = {}
    for f in [*pinned_maps().values(), *drawn, *map(_mirror, drawn)]:
        for w in f.special_points().points:
            if isinstance(_outcome(regular_attractor, f, w),
                          RegularAttractorResult):
                lo, hi, _ = real(f, regularity_certificate(f, w).code)
                found.setdefault(w == hi, (f, w, lo, hi))
    assert set(found) == {False, True}, found
    message = "CertificationError: no fixed point of the doubled power {} " \
              "the regular point"
    cases = []
    for upper, (f, w, lo, hi) in found.items():
        width = hi - lo
        moved = (w, w + width) if upper else (w - width, w)
        cases.append((f, w, moved,
                      message.format("above" if upper else "below")))
        cases.append((f, w, (lo - width, hi + width),
                      "CertificationError: regular point is not an endpoint "
                      "of its code interval"))
    for f, w, (lo, hi), want in cases:
        def planted(g, code, lo=lo, hi=hi):
            return lo, hi, real(g, code)[2]

        monkeypatch.setattr(codes_module, "_constraint_interval", planted)
        monkeypatch.setitem(globals(), "_constraint_interval", planted)
        assert _outcome(_ref_regular_attractor, f, w) == want, (f.to_text(), w)
        assert _outcome(regular_attractor, f, w) == want, (f.to_text(), w)


# -- the two primitives --------------------------------------------------------


def test_fixed_cycle_needs_a_cycle_through_x():
    tent = pinned_maps()["tent"]
    assert fixed_cycle(tent, F(6, 13), 2) == (F(6, 13), F(9, 13))
    assert fixed_cycle(tent, F(6, 13), 4) == (F(6, 13), F(9, 13))
    assert fixed_cycle(tent, F(3, 5), 2) == (F(3, 5),)
    assert fixed_cycle(tent, F(6, 13), 3) is None  # period 2 does not divide 3
    assert fixed_cycle(tent, F(6, 13), 1) is None
    assert fixed_cycle(tent, F(1), 1) is None  # 1 -> 0 -> 0: preperiodic
    assert fixed_cycle(tent, F(1), 2) is None  # f^2(1) = 0 = f(0)
    shift = pinned_maps()["shift"]
    assert fixed_cycle(shift, F(1, 2), 1) is None  # a jump
    assert fixed_cycle(shift, F(1, 4), 2) is None  # 1/4 -> 1/2, a jump
    assert fixed_cycle(shift, F(11, 24), 2) == (F(11, 24), F(7, 12))
    assert fixed_cycle(shift, F(1, 3), 2) is None  # 1/3 -> 11/24: preperiodic


def test_fixed_cycle_past_the_denominator_budget_raises():
    """A cycle the walk cannot confirm within DENOM_BIT_CAP bits is not
    passed over: periodic_points raises rather than drop it."""
    f = parse_map("interval 0 1\n"
                  f"piece 0 1 : slope 1/2 intercept 1/{2**4100}\n")
    x = F(2, 2**4100)
    assert fixed_points(f._segs) == ([x], [])
    with pytest.raises(PowerLimitError, match="over 4096 denominator bits"):
        fixed_cycle(f, x, 1)
    with pytest.raises(PowerLimitError):
        periodic_points(f, 1, max_power=2)


def test_fixed_points_of_pieces():
    # an identity piece [0, 1/4] whose right end its neighbour fixes too,
    # as a root at its own end; a root at 1/2 on the far side of a jump,
    # which the near side does not fix; and a root at the domain end 1
    f = parse_map("interval 0 1\n"
                  "piece 0 1/4 : slope 1 intercept 0\n"
                  "piece 1/4 1/2 : slope 2 intercept -1/4\n"
                  "piece 1/2 3/4 : slope -1 intercept 1\n"
                  "piece 3/4 1 : slope 2 intercept -1\n")
    assert fixed_points(f._segs) == ([F(0), F(1, 4), F(1)],
                                      [(F(0), F(1, 4))])
    hat = pinned_maps()["hat"]
    assert fixed_points(hat._segs) == ([F(7, 12)], [])


def test_periodic_orbits_are_memoized_whatever_the_power_limit(monkeypatch):
    """`max_power` only bounds `max_period`: a second call with another
    power limit builds nothing new and returns equal orbits, and a period
    past the limit is still rejected.  The one piece budget, MAX_PIECES,
    holds for every call: past a lowered budget a fresh map's orbits
    raise and cache nothing, and at the real one they are the same."""
    built = []
    real = orbits._periodic_orbits
    monkeypatch.setattr(orbits, "_periodic_orbits",
                        lambda *args: built.append(args) or real(*args))
    for f in pinned_maps().values():
        first = periodic_points(f, 4, max_power=8)
        assert periodic_points(f, 4, max_power=16) == first
        assert periodic_points(f, 4) == first
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            periodic_points(f, 4, max_power=6)
    assert len(built) == len(pinned_maps())
    tent = parse_map(pinned_maps()["tent"].to_text())
    with monkeypatch.context() as m:
        m.setattr(maps_module, "MAX_PIECES", 3)
        with pytest.raises(PieceLimitError):
            periodic_points(tent, 4)
    assert ("periodic_points", 4) not in tent._cache
    assert periodic_points(tent, 4) == \
        periodic_points(pinned_maps()["tent"], 4)
