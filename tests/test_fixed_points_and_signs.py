"""Fixed points and diagonal signs read off int segments, against the
Fraction code they replaced.

`orbits.fixed_points` reads a power's fixed points off the merged int
segments of the power cache, and `taxonomy` decides the sign of
f^{2n}(t) - t by cross-multiplication on the window sweep's int segments,
reading each diagonal crossing off `fixed_points`.  The Fraction solver
and sign tests below are the code they replaced, kept as the reference:
the periodic orbits at every key the property suite asks for, trapping
with its witnesses at every orbit point, the exceptional types, the basin
witnesses and the regular attractors must all be the same, errors
included.
"""

import itertools
from fractions import Fraction as F

from pwdyn.codes import RegularAttractorResult, regular_attractor
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import MINUS, PLUS, PiecewiseMap, PwdynError, _affine
from pwdyn.orbits import (INTERVAL_FAMILY, POINT, PeriodicOrbit,
                          _half_point_cycle, _inside_family, fixed_cycle,
                          fixed_points, image_chain, periodic_points,
                          special_gaps)
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import (PreconditionError, TaxonomyViolation, TrapResult,
                            _monotone_on, _pick_witness, _push_edge,
                            _strict_gap_on, _trap, _window,
                            basin_adjacent_special, exceptional_types,
                            is_trapped, restrict_power, window_sweep)
from test_periodic import _ref_regular_attractor

# The max_period keys `pwdyn suite` asks `periodic_points` for.
SUITE_KEYS = [3, 4, 8]

# -- the Fraction fixed points, the reference ---------------------------------


def _ref_fixed_points(pieces):
    points = set()
    identities = []
    fixes_end = True  # the pieces before this one fix its left end
    for piece in pieces:
        if piece.slope != 1:
            x = piece.intercept / (1 - piece.slope)
            if piece.left < x < piece.right:
                points.add(x)
            fixed = (x,)
        else:
            fixed = (piece.left, piece.right) if piece.intercept == 0 else ()
            if fixed:
                identities.append(fixed)
        if fixes_end and piece.left in fixed:
            points.add(piece.left)
        fixes_end = piece.right in fixed
    if fixes_end:
        points.add(pieces[-1].right)
    return sorted(points), identities


def _ref_collect_families(f, n, left, right):
    cuts = {x for x in f.special_preimage_set(n) if left < x < right}
    blocked = []
    for d in range(1, n):
        if n % d != 0:
            continue
        points, identities = _ref_fixed_points(
            f.power(d, check=False).pieces)
        cuts.update(x for x in points if left < x < right)
        blocked += [(max(left, lo), min(right, hi)) for lo, hi in identities
                    if lo < right and hi > left]
    bounds = sorted({left, right, *cuts, *itertools.chain(*blocked)})
    for lo, hi in zip(bounds, bounds[1:]):
        mid = (lo + hi) / 2
        if any(blo <= mid <= bhi for blo, bhi in blocked):
            continue
        cycle = fixed_cycle(f, mid, n)
        if cycle is None or len(cycle) != n:
            continue
        intervals = image_chain(f, lo, hi, n - 1)
        canon = min(intervals)
        rep = (canon[0] + canon[1]) / 2
        closed = tuple(fixed_cycle(f, e, n) is not None for e in canon)
        yield PeriodicOrbit(fixed_cycle(f, rep, n), n, None, INTERVAL_FAMILY,
                            tuple(sorted(set(intervals))), closed)


def _ref_periodic_points(f, max_period):
    jumps = set(f.special_points().discontinuities)
    found = {}
    for n in range(1, max_period + 1):
        fn = f.power(n, check=False)
        points, identities = _ref_fixed_points(fn.pieces)
        families = [orb for piece in identities
                    for orb in _ref_collect_families(f, n, *piece)]
        for orb in families:
            found.setdefault(orb.key(), orb)
        for x in points:
            cycle = fixed_cycle(f, x, n)
            if cycle is None or len(cycle) != n \
                    or _inside_family(x, families, f):
                continue
            orb = PeriodicOrbit(cycle, n, None, POINT)
            found.setdefault(orb.key(), orb)
    for w in sorted(jumps):
        for side in (MINUS, PLUS):
            orb = _half_point_cycle(f, w, side, max_period)
            if orb is not None:
                found.setdefault(orb.key(), orb)
    return sorted(found.values(),
                  key=lambda o: (o.period, o.kind, o.points[0], o.points))


# -- the Fraction diagonal signs, the reference --------------------------------


def _ref_diagonal_gap(seg):
    return seg.slope - 1, seg.intercept


def _ref_segment_solution(seg, lo, hi, want_le):
    p, q = max(seg.left, lo), min(seg.right, hi)
    if p >= q:
        return None
    s, c = _ref_diagonal_gap(seg)
    if s == 0:
        ok = (c <= 0) if want_le else (c >= 0)
        return (p, q) if ok else None
    root = -c / s
    rising = s > 0
    if want_le:
        sol = (p, min(q, root)) if rising else (max(p, root), q)
    else:
        sol = (max(p, root), q) if rising else (p, min(q, root))
    lo2, hi2 = max(sol[0], p), min(sol[1], q)
    if lo2 > hi2:
        return None
    return (lo2, hi2)


def _ref_gap_at(segs, t):
    for seg in segs:
        if seg.left <= t <= seg.right:
            return seg.value_at(t) - t
    raise PwdynError(f"{t} outside the restricted window")


def _ref_pick_witness(segs, lo, hi, want_le, preferred):
    def ok(t):
        if not lo < t < hi:
            return False
        g = _ref_gap_at(segs, t)
        return g <= 0 if want_le else g >= 0

    for cand in preferred:
        if ok(cand):
            return cand
    best = None
    for seg in segs:
        sol = _ref_segment_solution(seg, lo, hi, want_le)
        if sol is None:
            continue
        a, b = sol
        mid = (a + b) / 2
        for t in (mid, a, b):
            if ok(t) and (best is None or abs(t - (lo + hi) / 2)
                          < abs(best - (lo + hi) / 2)):
                best = t
                break
    return best


def _ref_strict_gap_on(segs, lo, hi, negative):
    nodes = sorted({s.left for s in segs} | {s.right for s in segs})
    for t in nodes:
        if lo < t < hi:
            g = _ref_gap_at(segs, t)
            if not (g < 0 if negative else g > 0):
                return False
    for seg in segs:
        p, q = max(seg.left, lo), min(seg.right, hi)
        if p >= q:
            continue
        s, c = _ref_diagonal_gap(seg)
        gp, gq = s * p + c, s * q + c
        if negative:
            if gp > 0 or gq > 0 or (gp == 0 and gq == 0):
                return False
        else:
            if gp < 0 or gq < 0 or (gp == 0 and gq == 0):
                return False
    return True


def _trap_at(f, orb, p):
    """The trap verdict at a point p of a continuous orbit: the error
    `is_trapped` raises on a critical or end orbit, else the `_trap` call
    `taxonomy` makes at p."""
    if {f.a, f.b, *f.special_points().turning} & set(orb.points):
        return is_trapped(f, orb)
    return _trap(f, p, orb.period, special_gaps(f, p, 2 * orb.period))


def _ref_is_trapped(f, orb, at_point):
    """`is_trapped` at a point of a continuous orbit, on the window's
    Fraction segments."""
    turns = set(f.special_points().turning)
    if any(p in turns for p in orb.points):
        raise PreconditionError("trapped is defined for non-critical orbits")
    if any(p in (f.a, f.b) for p in orb.points):
        raise PreconditionError("trapped needs an interior orbit")
    x, n = at_point, orb.period
    u, v, segs = window_sweep(f, x, 2 * n)
    y = _ref_pick_witness(segs, u, x, True, [(u + 3 * x) / 4])
    if y is None:
        return TrapResult(False)
    z = _ref_pick_witness(segs, x, v, False, [2 * x - y, (v + 3 * x) / 4])
    if z is None:
        return TrapResult(False)
    return TrapResult(True, (y, z, min(y - u, v - z) / 2))


def _ref_exceptional_types(f, orb):
    """`exceptional_types` on f's Fraction pieces, with the library's
    `_monotone_on`."""
    out = set()
    if orb.period == 1:
        x = orb.points[0]
        if f.a < x < f.b:
            if (_monotone_on(f, x, f.b, True)
                    and _ref_strict_gap_on(f.pieces, x, f.b, True)):
                out.add("a")
            if (_monotone_on(f, f.a, x, True)
                    and _ref_strict_gap_on(f.pieces, f.a, x, False)):
                out.add("b")
    if orb.period == 2:
        x, fx = min(orb.points), max(orb.points)
        if (f.a < x and fx < f.b and _monotone_on(f, f.a, x, False)
                and _monotone_on(f, fx, f.b, False)):
            if _ref_strict_gap_on(restrict_power(f, f.a, x, 2), f.a, x,
                                  False):
                out.add("c")
    return frozenset(out)


def _ref_basin(f, orb, free, exceptional):
    """`basin_adjacent_special` after its taxonomy checks, given the
    reference's free flag and exceptional types."""
    if not f.special_points().points:
        raise PreconditionError("needs at least one special point")
    if not free:
        raise PreconditionError("basin construction needs a free orbit")
    if exceptional:
        raise PreconditionError("orbit is exceptional")
    witnesses = []
    for xk in orb.points:
        u, v, segs = window_sweep(f, xk, 2 * orb.period)
        if u != f.a and _ref_strict_gap_on(segs, u, xk, False):
            wit = _push_edge(f, orb, xk, u)
            if wit:
                witnesses.append(wit)
        if v != f.b and _ref_strict_gap_on(segs, xk, v, True):
            wit = _push_edge(f, orb, xk, v)
            if wit:
                witnesses.append(wit)
    if not witnesses:
        raise TaxonomyViolation(
            f"no one-sided basin edge found for free orbit {orb.points}")
    return witnesses


# -----------------------------------------------------------------------------


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (PwdynError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cold(f):
    return PiecewiseMap(f.a, f.b, f.pieces)


def _corpus_maps():
    """The pinned maps and 150 census-style and 150 duality-style seeded
    maps, drawn with the benchmark's generator settings."""
    maps = list(pinned_maps().values())
    maps += _corpus(GeneratorConfig(seed=71, max_pieces=3), "census", 150)
    maps += _corpus(GeneratorConfig(seed=73, max_pieces=3,
                                    slope_palette="contracting-rich"),
                    "duality", 150)
    return maps


def test_fixed_points_match_the_fraction_solver():
    """Powers 1..8 of the corpus, read off the unchecked power memo
    and off the validated map's segments, against the solver on the
    power's Fraction pieces."""
    families = roots = 0
    for f in _corpus_maps()[::3]:
        f, g = _cold(f), _cold(f)
        for n in range(1, 9):
            want = _ref_fixed_points(f.power(n, check=False).pieces)
            assert fixed_points(g._power(n)._segs) == want, \
                (f.to_text(), n)
            assert fixed_points(f.power(n)._segs) == want
            families += len(want[1])
            roots += len(want[0])
    assert families > 50 and roots > 1000, (families, roots)


def test_an_identity_run_is_one_family():
    """Unmerged identity segments, as a segment sweep leaves them, give
    one identity stretch and no point inside it."""
    segs = [((0, 1), (1, 4), (0, 1), (1, 4), (1, 0, 1)),
            ((1, 4), (1, 2), (1, 4), (1, 2), (1, 0, 1)),
            ((1, 2), (1, 1), (1, 2), (1, 4), (-1, 1, 2))]
    assert fixed_points(segs) == ([F(0), F(1, 2)], [(F(0), F(1, 2))])


def _marks(segs, u, v):
    """The points of [u, v] a sign test can turn on: the segment ends, the
    segments' fixed points, and a point between each two neighbours."""
    ends = {F(*x) for seg in segs for x in seg[:2]}
    fixed = {x for seg in segs for x in fixed_points([seg])[0]}
    fixed |= {x for seg in segs for run in fixed_points([seg])[1] for x in run}
    marks = sorted(x for x in ends | fixed | {u, v} if u <= x <= v)
    return sorted({*marks, *((x + y) / 2 for x, y in zip(marks, marks[1:]))})


def test_signs_match_the_fraction_reference_on_every_clip():
    """`_pick_witness` and `_strict_gap_on` against their Fraction
    references on the window segments of every continuous orbit point of
    the corpus, and on the maps' own pieces, across every interval between
    their ends, fixed points and the points between them, with no
    preferred candidate, so every witness comes from the segments."""
    seen = dict.fromkeys(["witness", "none", "strict", "not strict"], 0)
    for f in _corpus_maps()[::2]:
        cases = [(f._segs, f.a, f.b)]
        for orb in periodic_points(f, 4, max_power=8):
            if orb.continuous:
                for p in orb.points:
                    try:
                        u, v, segs = _window(f, p, 2 * orb.period)
                    except PwdynError:
                        continue
                    cases.append((segs, u, v))
        for segs, u, v in cases:
            pieces = _affine(segs)
            marks = _marks(segs, u, v)
            for lo, hi in itertools.combinations(marks[::max(1, len(marks) // 12)], 2):
                for flag in (True, False):
                    want = _ref_strict_gap_on(pieces, lo, hi, flag)
                    assert _strict_gap_on(segs, lo, hi, flag) == want, \
                        (f.to_text(), lo, hi, flag)
                    seen["strict" if want else "not strict"] += 1
                    if segs is cases[0][0]:
                        continue
                    want = _ref_pick_witness(pieces, lo, hi, flag, [])
                    assert _pick_witness(segs, lo, hi, flag, []) == want, \
                        (f.to_text(), lo, hi, flag)
                    seen["witness" if want is not None else "none"] += 1
    assert min(seen.values()) > 500, seen


def test_orbits_and_trapping_match_the_fraction_reference():
    """On the corpus: `periodic_points` at every suite key, on a cold map
    beside a cold copy for the reference; trapping at every point of every
    continuous orbit, witnesses and errors included; `exceptional_types`
    of every free orbit and `basin_adjacent_special` of every continuous
    one; and `regular_attractor` at every special point."""
    seen = dict.fromkeys(["orbits", "points", "trapped", "free",
                          "exceptional", "basin", "regular"], 0)
    maps = _corpus_maps()
    assert len(maps) >= 309
    for f in maps:
        ref = _cold(f)
        for max_period in SUITE_KEYS:
            want = _outcome(_ref_periodic_points, ref, max_period)
            got = _outcome(periodic_points, f, max_period)
            assert got == want, (f.to_text(), max_period)
            seen["orbits"] += len(want) if isinstance(want, list) else 0
        for orb in periodic_points(f, 8, max_power=16):
            if not orb.continuous:
                continue
            results = [_outcome(_ref_is_trapped, f, orb, p)
                       for p in orb.points]
            for p, want in zip(orb.points, results):
                assert _outcome(_trap_at, f, orb, p) == want, \
                    (f.to_text(), orb, p)
            flags = {getattr(r, "trapped", None) for r in results}
            seen["points"] += None not in flags and len(results)
            seen["trapped"] += flags == {True}
            if len(flags) > 1:
                continue  # `taxonomy` raises TaxonomyViolation
            free = flags == {False}
            exceptional = _ref_exceptional_types(f, orb) if free \
                else frozenset()
            if free:
                assert exceptional_types(f, orb) == exceptional, f.to_text()
                seen["free"] += 1
                seen["exceptional"] += bool(exceptional)
            want = _outcome(_ref_basin, f, orb, free, exceptional)
            assert _outcome(basin_adjacent_special, f, orb) == want, \
                (f.to_text(), orb)
            seen["basin"] += isinstance(want, list)
        for w in f.special_points().points:
            want = _outcome(_ref_regular_attractor, f, w)
            assert _outcome(regular_attractor, f, w) == want, (f.to_text(), w)
            seen["regular"] += isinstance(want, RegularAttractorResult)
    assert min(seen.values()) > 0, seen
    assert seen["points"] > 1000 and seen["regular"] > 50, seen
