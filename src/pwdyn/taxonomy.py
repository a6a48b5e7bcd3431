"""Taxonomy of continuous periodic orbits: critical, trapped, free,
exceptional; basins near special points; and the orbit-count bound.

The workhorse is the monotone window of a point: the largest interval around
it on which every iterate up to a given depth stays continuous and monotone.
It is computed locally, in one forward sweep (`orbits._sweep`) that carries
the affine segments of the current iterate on the current window: each step
reads the iterate's image off its two end segments, clips it to the gap
between the special points around the point's own iterate, pulls each clip
back by one affine solve, and pushes the segments once through the map, so
no global high power is ever materialized; where the gaps repeat from
halfway, as at depth 2n at a point of period n, the half sweep is squared
through its own integer table.  Trapped and free belong to a whole
orbit, so the trap decision is made once, at the representative, and
memoized on the map (`is_trapped`); the suite's `taxonomy_rules` checks
that every other point agrees.  The atlas and the basin witnesses step an
orbit's gaps once and rotate them from point to point (`_orbit_gaps`).
Segments are int tuples, gaps int pairs, and they become
Fractions only where `window_sweep`, `restrict_power` and the trap
witnesses return them.  Trapped / free / basin questions reduce to the
sign of f^m(t) - t on the segments, read off their coefficients by
cross-multiplication; where it changes sign, the root is the segment's
fixed point from `orbits.fixed_points`.  The attraction atlas, the
direction tests and the basin fold clip read int segments too, a map's
side piece through `PiecewiseMap._side`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .maps import (MINUS, PLUS, AffinePiece, BudgetError, BugError, Pair,
                   PiecewiseMap, PwdynError, RationalLike, Segment, _affine,
                   _image, _locate, _magnitude, _pair, _table, _table_of,
                   as_fraction)
from .orbits import (Germ, INTERVAL_FAMILY, PeriodicOrbit, _germ_key,
                     _germ_successor, _sweep, ball_stops, fixed_points,
                     periodic_points, segment_sweep, special_gaps, walk)
from .stability import SEMI_STABLE, STABLE, classify_point

# Period horizon of the attraction atlas that certifies convergence.
ATLAS_HORIZON = 8

BOUNDARY_NONE = "none"
BOUNDARY_FIXED = "fixed_endpoint"
BOUNDARY_SWAP = "two_cycle_endpoints"


class DegenerateWindowError(PwdynError):
    """The base point itself obstructs every monotone window."""


class PreconditionError(PwdynError):
    """An operation was called outside its stated preconditions."""


class TaxonomyViolation(BugError):
    """A structural fact that should hold for every map failed; this always
    indicates an implementation bug and is surfaced loudly."""


# Errors meaning only that a query does not apply to its input, or that a
# fixed budget ran out (any BudgetError); callers that sweep a corpus skip
# on these, and any other error, a BugError above all, propagates.
NOT_APPLICABLE = (PreconditionError, DegenerateWindowError, BudgetError)


def monotone_window(f: PiecewiseMap, x: RationalLike, depth: int
                    ) -> tuple[Fraction, Fraction]:
    """Largest [u, v] around x on which every iterate up to `depth` is
    continuous and monotone.

    The endpoints are special points of some iterate (equivalently, points
    whose orbit reaches the special set within `depth` steps) or the domain
    endpoints.  This is the window of `window_sweep`, without its segments.
    """
    return _window(f, as_fraction(x), depth)[:2]


def window_sweep(f: PiecewiseMap, x: RationalLike, depth: int
                 ) -> tuple[Fraction, Fraction, list[AffinePiece]]:
    """The monotone window [u, v] of x together with the affine segments of
    the `depth`-th iterate on it, equal to `restrict_power(f, u, v, depth)`.

    One sweep from [a, b], the image of the j-th iterate clipped to the
    gap between the special points around the j-th iterate of x, squared
    from halfway where those gaps repeat.  Raises ValueError for a depth
    below 1 or an x outside [a, b], and DegenerateWindowError when an
    iterate before the `depth`-th lands on a special point.
    """
    u, v, segs = _window(f, as_fraction(x), depth)
    return u, v, _affine(segs)


def _window(f: PiecewiseMap, x: Fraction, depth: int
            ) -> tuple[Fraction, Fraction, list[Segment]]:
    """`window_sweep` with int segments: `_window_on` at x's special gaps."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not f.a <= x <= f.b:
        raise ValueError(f"{x} outside [{f.a}, {f.b}]")
    return _window_on(f, x, special_gaps(f, x, depth), depth)


def _window_on(f: PiecewiseMap, x: Fraction, gaps: list[tuple[Pair, Pair]],
               depth: int) -> tuple[Fraction, Fraction, list[Segment]]:
    """`_window` from x's gaps.  When gaps[h:] == gaps[:h], h = depth // 2,
    the window is the y in the depth-h window W with f^h(y) in W, and its
    segments R after R, R those of f^h on W."""
    if len(gaps) < depth:
        raise DegenerateWindowError(
            f"iterate {len(gaps)} of {x} lands on a special point")
    t, h, ab = _table(f), depth // 2, (_pair(f.a), _pair(f.b))
    run = _sweep(t, [(*ab, *ab, (1, 0, 1))], [*gaps[:h], None])
    if gaps[h:] == gaps[:h]:  # R's table splits where f's would
        segs = _sweep(_table_of(run), run, [(run[0][0], run[-1][1]), None])
    else:
        segs = _sweep(t, run, [*gaps[h:], None])
    return Fraction(*segs[0][0]), Fraction(*segs[-1][1]), segs


def _orbit_gaps(f: PiecewiseMap, orb: PeriodicOrbit
                ) -> list[list[tuple[Pair, Pair]]]:
    """`special_gaps(f, p, 2n)` at each listed point p of a period-n orbit:
    the first point's, stepped once and rotated, where f takes each to the
    next."""
    n, t, keys = orb.period, _table(f), [_pair(p) for p in orb.points]
    gaps = special_gaps(f, orb.points[0], 2 * n)
    if len(gaps) == 2 * len(keys) == 2 * n and keys[1:] + keys[:1] == [
            _image(t, *k, None) for k in keys]:
        return [gaps[k:] + gaps[:k] for k in range(n)]
    return [gaps, *(special_gaps(f, p, 2 * n) for p in orb.points[1:])]


def restrict_power(f: PiecewiseMap, lo: Fraction, hi: Fraction, m: int
                   ) -> list[AffinePiece]:
    """Affine segments of the m-th iterate on (lo, hi), in order.

    Pushes the identity on (lo, hi) through f m times with the kernel that
    also builds compositions: a `segment_sweep` without clips.  Raises
    ValueError unless a <= lo < hi <= b.  On a monotone window the images
    only ever cross removable breakpoints, so the segments stay few.
    """
    if not f.a <= lo < hi <= f.b:
        raise ValueError(f"[{lo}, {hi}] is not an interval in [{f.a}, {f.b}]")
    return _affine(segment_sweep(f, lo, hi, [None] * (m + 1))[2])


def _diagonal_gap(seg: Segment, t: Pair) -> int:
    """An int with the sign of value(t) - t on the segment's line at t =
    p/q: ((A - D) p + B q) / (D q), where D and q are positive."""
    a, b, d = seg[4]
    return (a - d) * t[0] + b * t[1]


def _clip(seg: Segment, lo: Pair, hi: Pair) -> Optional[tuple[Pair, Pair]]:
    """The segment cut to [lo, hi] as (p, q), or None unless p < q."""
    (n0, d0), (n1, d1) = seg[0], seg[1]
    p = seg[0] if n0 * lo[1] > lo[0] * d0 else lo
    q = seg[1] if n1 * hi[1] < hi[0] * d1 else hi
    return (p, q) if p[0] * q[1] < q[0] * p[1] else None


def _pick_witness(segs: list[Segment], lo: Fraction, hi: Fraction,
                  want_le: bool, preferred: list[Pair]
                  ) -> Optional[Fraction]:
    """A point of the open interval (lo, hi) where the diagonal gap has the
    requested sign (equality allowed): the first preferred candidate (an
    int pair) that has it, else the point nearest the centre among the
    middle and ends of each segment's part of (lo, hi) with that sign."""
    (ln, ld), (hn, hd) = lo_hi = _pair(lo), _pair(hi)
    sign = 1 if want_le else -1

    def ok(t):
        p, q = t
        if not (ln * q < p * ld and p * hd < hn * q):
            return False
        # the gap on the first segment ending at or past t, which holds it
        seg = next(s for s in segs if p * s[1][1] <= s[1][0] * q)
        return sign * _diagonal_gap(seg, t) <= 0

    for cand in preferred:
        if ok(cand):
            return Fraction(*cand)
    best = None
    c = (lo + hi) / 2  # the centre
    for seg in segs:
        clip = _clip(seg, *lo_hi)
        if clip is None:
            continue
        p, q = clip
        gp, gq = sign * _diagonal_gap(seg, p), sign * _diagonal_gap(seg, q)
        if gp > 0 and gq > 0:
            continue
        # the gap is affine: where its signs at the two ends differ, the
        # part ends at the segment's fixed point
        a = fixed_points([seg])[0][0] if gp > 0 else Fraction(*p)
        b = fixed_points([seg])[0][0] if gq > 0 else Fraction(*q)
        for t in ((a + b) / 2, a, b):
            if ok(_pair(t)) and (best is None or abs(t - c) < abs(best - c)):
                best = t
                break
    return best


@dataclass(frozen=True)
class TrapResult:
    trapped: bool
    witness: Optional[tuple[Fraction, Fraction, Fraction]] = None


def is_trapped(f: PiecewiseMap, orb: PeriodicOrbit) -> TrapResult:
    """Decide trappedness at the orbit's representative by exact sign
    analysis of the 2n-th iterate against the diagonal in its window.

    A trapped orbit is bracketed by y < x < z strictly inside the window
    with the 2n-th iterate at most y at y and at least z at z (equalities
    allowed, so identity stretches count).  Returns exact witnesses and a
    margin delta when trapped.  The decision is memoized on f per
    (representative, period), so `taxonomy` and `count_bound` share it.
    """
    if not orb.continuous:
        raise PreconditionError("trapped is defined for continuous orbits")
    turns = set(f.special_points().turning)
    if any(p in turns for p in orb.points):
        raise PreconditionError("trapped is defined for non-critical orbits")
    if any(p in (f.a, f.b) for p in orb.points):
        raise PreconditionError("trapped needs an interior orbit")
    x, n = orb.representative, orb.period
    return f._memo(("trap", x, n),
                   lambda: _trap(f, x, n, special_gaps(f, x, 2 * n)))


def _trap(f: PiecewiseMap, x: Fraction, n: int,
          gaps: list[tuple[Pair, Pair]]) -> TrapResult:
    """`is_trapped` at x, on a period-n orbit the caller has checked, from
    x's 2n gaps; the candidates (u + 3x)/4, 2x - y, (v + 3x)/4 and the
    margin min(y - u, v - z)/2 are int pairs until a result is made."""
    u, v, segs = _window_on(f, x, gaps, 2 * n)
    (un, ud), (vn, vd), (xn, xd) = _pair(u), _pair(v), _pair(x)
    y = _pick_witness(segs, u, x, True,
                      [(un * xd + 3 * xn * ud, 4 * ud * xd)])
    if y is None:
        return TrapResult(False)
    yn, yd = _pair(y)
    z = _pick_witness(segs, x, v, False,
                      [(2 * xn * yd - yn * xd, xd * yd),
                       (vn * xd + 3 * xn * vd, 4 * vd * xd)])
    if z is None:
        return TrapResult(False)
    zn, zd = _pair(z)
    m = min((yn * ud - un * yd) * vd * zd, (vn * zd - zn * vd) * yd * ud)
    return TrapResult(True, (y, z, Fraction(m, 2 * yd * ud * vd * zd)))


@dataclass(frozen=True)
class OrbitTaxonomy:
    orbit: PeriodicOrbit
    critical: bool
    trapped: bool
    free: bool
    exceptional: frozenset[str]
    boundary_case: str
    trap_witness: Optional[tuple[Fraction, Fraction, Fraction]] = None


def taxonomy(f: PiecewiseMap, orb: PeriodicOrbit) -> OrbitTaxonomy:
    """Full classification of a continuous periodic orbit.

    Trapped / free is read at the representative (`is_trapped`); that it
    agrees at every orbit point is checked by the suite's `taxonomy_rules`,
    not here.  A periodic endpoint that is neither fixed, critical, nor
    half of the endpoint swap raises TaxonomyViolation.
    """
    if not orb.continuous:
        raise PreconditionError("taxonomy is defined for continuous orbits")
    turns = set(f.special_points().turning)
    critical = any(p in turns for p in orb.points)
    boundary = [p for p in orb.points if p in (f.a, f.b)]
    boundary_case = BOUNDARY_NONE
    if boundary:
        if orb.period == 1:
            boundary_case = BOUNDARY_FIXED
        elif (orb.period == 2 and set(orb.points) == {f.a, f.b}):
            boundary_case = BOUNDARY_SWAP
        elif not critical:
            raise TaxonomyViolation(
                f"periodic endpoint orbit {orb.points} is neither fixed, "
                "critical, nor the endpoint swap")
    trap = TrapResult(False) if critical or boundary else is_trapped(f, orb)
    free = not critical and not trap.trapped and not boundary
    exceptional = exceptional_types(f, orb) if free else frozenset()
    return OrbitTaxonomy(orb, critical, trap.trapped, free, exceptional,
                         boundary_case, trap.witness)


def _monotone_on(f: PiecewiseMap, lo: Fraction, hi: Fraction,
                 increasing: bool) -> bool:
    """Continuous and strictly monotone on [lo, hi] in the given sense."""
    if any(lo < s < hi for s in f.special_points().points):
        return False
    # no turn inside, so the piece right of lo sets the direction
    return (f._segs[f._side(lo, True)][4][0] > 0) == increasing


def _strict_gap_on(segs: Sequence[Segment], lo: Fraction, hi: Fraction,
                   negative: bool) -> bool:
    """gap(t) < 0 (or > 0) for every t in the open interval (lo, hi), which
    the abutting segments cover, read at the two ends of each segment's
    part of it: a part may touch the diagonal at one end, where that end is
    lo, hi or the far side of a jump."""
    lo, hi = _pair(lo), _pair(hi)
    sign = -1 if negative else 1
    for seg in segs:
        clip = _clip(seg, lo, hi)
        if clip is None:
            continue
        p, q = clip
        gp, gq = sign * _diagonal_gap(seg, p), sign * _diagonal_gap(seg, q)
        if gp < 0 or gq < 0 or gp == gq == 0 or gq == 0 and q != hi:
            return False
    return True


def exceptional_types(f: PiecewiseMap, orb: PeriodicOrbit) -> frozenset[str]:
    """Which of the three boundary-monotone configurations the orbit
    realizes: increasing toward the right endpoint above the orbit (a), the
    mirror at the left endpoint (b), or the decreasing two-cycle hugging
    both endpoints (c)."""
    out = set()
    x, fx = min(orb.points), max(orb.points)
    if orb.period == 1 and f.a < x < f.b:
        for t, lo, hi, negative in (("a", x, f.b, True), ("b", f.a, x, False)):
            if (_monotone_on(f, lo, hi, True)
                    and _strict_gap_on(f._segs, lo, hi, negative)):
                out.add(t)
    if (orb.period == 2 and f.a < x and fx < f.b
            and _monotone_on(f, f.a, x, False)
            and _monotone_on(f, fx, f.b, False) and _strict_gap_on(
                segment_sweep(f, f.a, x, [None] * 3)[2], f.a, x, False)):
        out.add("c")
    return frozenset(out)


def exceptional_census(f: PiecewiseMap, orbits: list[PeriodicOrbit]
                       ) -> dict[str, list[PeriodicOrbit]]:
    """Exceptional orbits per type, with the global exclusion facts
    enforced: at most one orbit per type, and type c rules out a and b."""
    census: dict[str, list[PeriodicOrbit]] = {"a": [], "b": [], "c": []}
    for orb in orbits:
        if orb.continuous:  # only a free orbit has exceptional types
            for t in taxonomy(f, orb).exceptional:
                census[t].append(orb)
    for t, lst in census.items():
        if len(lst) > 1:
            raise TaxonomyViolation(f"two orbits of exceptional type {t}")
    if census["c"] and (census["a"] or census["b"]):
        raise TaxonomyViolation("type c coexists with type a or b")
    return census


# -- basins -----------------------------------------------------------------------

@dataclass(frozen=True)
class AttractionBall:
    """Certified contraction zone around a periodic point.

    side None: a symmetric interval on which the doubled power is affine
    with slope magnitude below one, so images nest around the centre.
    side minus / plus: a one-sided interval with slope in (0, 1); the
    doubled power is increasing on a monotone window, so the interval maps
    into itself and its points converge to the centre from that side.
    """

    center: Fraction
    radius: Fraction
    period: int
    slope: Fraction
    side: Optional[str] = None

    def span(self, r: Fraction) -> tuple[Fraction, Fraction]:
        """The open interval of the ball cut to radius r; the ball is that
        interval and its centre."""
        c = self.center
        return (c if self.side == PLUS else c - r,
                c if self.side == MINUS else c + r)


def attraction_atlas(f: PiecewiseMap, orbits: list[PeriodicOrbit]
                     ) -> dict[PeriodicOrbit, list[AttractionBall]]:
    """Certified contraction zones around orbit points of the given orbits."""
    atlas: dict[PeriodicOrbit, list[AttractionBall]] = {}
    turns = set(f.special_points().turning)
    for orb in orbits:
        if not orb.continuous or any(p in turns for p in orb.points):
            continue
        balls, depth = [], 2 * orb.period
        for p, gaps in zip(orb.points, _orbit_gaps(f, orb)):
            u, v, segs = _window_on(f, p, gaps, depth)
            t = _pair(p)
            cuts = (*(s[0] for s in segs), segs[-1][1])
            i = _locate(cuts, *t)  # segment i - 1 holds p or ends there
            if cuts[i - 1] != t:
                (x0, x1, *_, (a, _, d)) = seg = segs[i - 1]
                if abs(a) < d and _diagonal_gap(seg, t) == 0:
                    r = min(p - Fraction(*x0), Fraction(*x1) - p)
                    balls.append(AttractionBall(p, r, orb.period,
                                                Fraction(a, d)))
                continue
            for k, side in ((i - 2, MINUS), (i - 1, PLUS)):
                if not 0 <= k < len(segs):
                    continue
                (x0, x1, *_, (a, _, d)) = seg = segs[k]
                if 0 < a < d and _diagonal_gap(seg, t) == 0:
                    r = (p - Fraction(*x0) if side == MINUS
                         else Fraction(*x1) - p)
                    balls.append(AttractionBall(p, r, orb.period,
                                                Fraction(a, d), side))
        if balls:
            atlas[orb] = balls
    return atlas


def _map_atlas(f: PiecewiseMap) -> dict[PeriodicOrbit, list[AttractionBall]]:
    """The attraction atlas of f's periodic orbits up to ATLAS_HORIZON,
    memoized on f: the one atlas behind `attracted` and code certification.
    """
    return f._memo(("atlas", ATLAS_HORIZON), lambda: attraction_atlas(
        f, periodic_points(f, ATLAS_HORIZON)))


def attracted(f: PiecewiseMap, y: RationalLike, orb: PeriodicOrbit) -> str:
    """Whether the orbit of y converges to the given periodic orbit.

    Yes once the orbit enters a certified contraction ball of the target (or
    lands exactly on it) in the map's horizon-8 atlas, or the cycle lock
    of `walk` settles on it; no when it hits a jump, lands exactly on, or
    enters a certified ball of or locks onto, a different orbit; unknown
    when 10**4 steps or the DENOM_BIT_CAP denominator budget run out first.
    """
    y = as_fraction(y)
    target = set(orb.points)
    balls = f._memo(("atlas_balls", ATLAS_HORIZON), lambda: ball_stops(
        (*ball.span(ball.radius), ball.center, other)
        for other, ring in _map_atlas(f).items() for ball in ring))
    w = walk(f, y, 10**4, balls=balls, lock=True)
    if w.reason in ("repeat", "lock"):  # a lock found its cycle
        return "yes" if set(w.found or w.trail[w.start:]) == target else "no"
    if w.reason == "stop":
        return "yes" if set(w.found.points) == target else "no"
    return "no" if w.reason == "jump" else "unknown"


@dataclass(frozen=True)
class BasinWitness:
    w: Fraction
    side: str
    delta: Fraction
    target: PeriodicOrbit
    w_attracted: bool
    iterates: int


def basin_adjacent_special(f: PiecewiseMap, orb: PeriodicOrbit
                           ) -> list[BasinWitness]:
    """Constructive one-sided basin intervals at a special point, for a
    free, non-exceptional orbit.

    Pushes a window edge where the 2n-th iterate stays on one side of the
    diagonal forward until it lands on a special point w; the image of the
    pushed interval is then a one-sided neighbourhood of w inside the basin.
    The w endpoint itself is attracted exactly when it is not a lateral
    fixed point of the 2n-th iterate.
    """
    if not f.special_points().points:
        raise PreconditionError("needs at least one special point")
    tax = taxonomy(f, orb)
    if not tax.free:
        raise PreconditionError("basin construction needs a free orbit")
    if tax.exceptional:
        raise PreconditionError("orbit is exceptional")
    depth = 2 * orb.period
    witnesses = []
    for xk, gaps in zip(orb.points, _orbit_gaps(f, orb)):
        u, v, segs = _window_on(f, xk, gaps, depth)
        for edge, end, lo, hi, negative in ((u, f.a, u, xk, False),
                                            (v, f.b, xk, v, True)):
            if edge != end and _strict_gap_on(segs, lo, hi, negative) and (
                    wit := _push_edge(f, orb, xk, edge)):
                witnesses.append(wit)
    if not witnesses:
        raise TaxonomyViolation(
            f"no one-sided basin edge found for free orbit {orb.points}")
    return witnesses


def _push_edge(f, orb, inner, current) -> Optional[BasinWitness]:
    specials = set(f.special_points().points)
    for j in range(2 * orb.period + 1):
        if current in specials:
            return _make_witness(f, orb, current, inner, j)
        # current is not special, so no jump: its value is defined
        current, inner = f.value(current), f.value(inner)
        lo, hi = (inner, current) if inner <= current else (current, inner)
        hit = [s for s in specials if lo < s < hi]
        if hit:
            # the pushed interval already covers a special point; shrink to it
            w = min(hit, key=lambda s: abs(s - current))
            return _make_witness(f, orb, w, inner, j + 1)
    return None


def _make_witness(f, orb, w, inner, iterates) -> BasinWitness:
    side = MINUS if inner < w else PLUS
    delta = abs(w - inner)
    w_attr = _lateral_power(f, w, side, 2 * orb.period) != w
    if w in f.special_points().turning:
        # the far side folds onto the constructed side; its image must nest
        # inside the constructed basin interval, and the fold formula only
        # holds within the branch adjacent to w, so clip to that branch
        plus = side == PLUS
        here, far = (f._segs[f._side(w, s)] for s in (plus, not plus))
        far_room = abs(w - Fraction(*far[0 if plus else 1]))
        delta = min(delta, delta * _magnitude(here[4]) / _magnitude(far[4]),
                    far_room)
        return BasinWitness(w, "both", delta, orb, w_attr, iterates)
    return BasinWitness(w, side, delta, orb, w_attr, iterates)


def _lateral_power(f: PiecewiseMap, w: Fraction, side: str, m: int) -> Fraction:
    """One-sided limit of the m-th iterate at w, by germ transport through
    the one germ step on f's integer table."""
    t = _table(f)
    key = _germ_key(f, Germ(w, side))
    for _ in range(m):
        key = _germ_successor(t, key)[0]
    return Fraction(key[0], key[1])


# -- counting bound -----------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    count_found: int
    horizon: int
    n_t: int
    n_d: int
    bound: int
    holds: bool
    orbits: tuple[PeriodicOrbit, ...]

    def to_dict(self) -> dict:
        return {"count": self.count_found, "horizon": self.horizon,
                "N_T": self.n_t, "N_D": self.n_d, "bound": self.bound,
                "holds": self.holds,
                "orbits": [[str(p) for p in o.points] for o in self.orbits]}


def count_bound(f: PiecewiseMap, horizon: int = 8) -> BoundReport:
    """Count continuous periodic orbits that are stable or semi-stable and
    not trapped, up to the period horizon, against N_T + 2 N_D + 2.

    The orbits are `periodic_points(f, horizon)`, shared with every other
    caller through the map's memo.  The search horizon can only
    under-count, so a violated bound is a genuine counterexample.
    """
    special = f.special_points()
    if not special.points:
        raise PreconditionError("bound needs a nonempty special set")
    orbits = periodic_points(f, horizon)
    turns = set(special.turning)
    counted = []
    for orb in orbits:
        if not orb.continuous:
            continue
        cls = classify_point(f, orb.representative, require_confined=False)
        if cls not in (STABLE, SEMI_STABLE) or orb.kind == INTERVAL_FAMILY:
            continue
        if not any(p in turns or p in (f.a, f.b) for p in orb.points) \
                and is_trapped(f, orb).trapped:
            continue
        counted.append(orb)
    n_t, n_d = len(special.turning), len(special.discontinuities)
    bound = n_t + 2 * n_d + 2
    return BoundReport(len(counted), horizon, n_t, n_d, bound,
                       len(counted) <= bound, tuple(counted))
