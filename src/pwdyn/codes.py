"""Itinerary codes over the special-point partition.

The interval is cut at its special points; a code records which closed cut
interval each iterate lands in, in one form per itinerary (`_finish_code`:
least cycle, shortest prefix).  Orbits that avoid the special set forever
have a unique code; an iterate sitting exactly on a turning point (or shared
cut) admits both neighbouring indices, and each such orbit position is
expanded into a separate code.  Exactness matters twice: eventual periodicity
is detected by literal point repetition, and convergent but never-repeating
orbits are closed out through certified contraction balls whose images
provably keep a fixed itinerary; each map has one such `Certifier`, built on
first use and memoized on the map, so no function here takes one.  A special
point is regular when its image orbit avoids the special set forever and one
of its codes repeats from position zero; its orbit starts by one rule,
`_side_start`, and a certificate reads its codes off the walk that proved
that orbit good.  Such points sit on the boundary of the basin of a stable or
semi-stable non-trapped orbit, and both directions of that correspondence
are constructed and certified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .maps import (MINUS, PLUS, BugError, Pair, PiecewiseMap, PwdynError,
                   RationalLike, Segment, Side, _locate, _magnitude, _pair,
                   as_fraction)
from .orbits import (DENOM_BIT_CAP, ClipError, PeriodicOrbit, Walk,
                     ball_stops, fixed_cycle, fixed_points, image_chain,
                     periodic_points, segment_sweep, walk)
from .stability import SEMI_STABLE, STABLE, classify_point
from .taxonomy import (PreconditionError, _map_atlas, attracted,
                       basin_adjacent_special, taxonomy)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

DEFAULT_CAP = 10**4


class CodeUndefinedError(PwdynError):
    """The orbit reaches a jump point, so no code exists."""


class CertificationError(BugError):
    """An exact certification that should follow from the theory failed;
    this is surfaced loudly as a counterexample."""


@dataclass(frozen=True)
class Trivalent:
    value: str
    cap_used: Optional[int] = None

    def __bool__(self):  # pragma: no cover - guard against misuse
        raise TypeError("trivalent verdicts do not collapse to bool")


@dataclass(frozen=True)
class PartitionIntervals:
    """The cuts a = w_0 < ... < w_{N+1} = b at special points."""

    cuts: tuple[Fraction, ...]

    @classmethod
    def of(cls, f: PiecewiseMap) -> "PartitionIntervals":
        """The partition of f, built once and memoized on f."""
        return f._memo(("partition",), lambda: cls(
            (f.a, *f.special_points().points, f.b)))

    @property
    def count(self) -> int:
        return len(self.cuts) - 1

    @cached_property
    def _pairs(self) -> tuple[Pair, ...]:
        return tuple(map(_pair, self.cuts))

    def indices_of(self, x: Fraction) -> tuple[int, ...]:
        """Indices of the closed cut intervals containing x (one or two)."""
        cuts, at = self._pairs, _pair(x)
        i = _locate(cuts, *at)
        on = i > 0 and cuts[i - 1] == at
        if i == 0 or i == len(cuts) and not on:
            raise ValueError(f"{x} outside [{self.cuts[0]}, {self.cuts[-1]}]")
        return tuple(k for k in ((i - 2, i - 1) if on else (i - 1,))
                     if 0 <= k < self.count)

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        return self.cuts[k], self.cuts[k + 1]


@dataclass(frozen=True)
class Code:
    """An itinerary: prefix indices, then a repeating cycle (None when
    truncated), in the one form `_finish_code` builds, so two codes are
    equal exactly when their index sequences are.  strictly_periodic
    means the whole sequence repeats from position zero (no prefix);
    period is the cycle's length then, else None."""

    prefix: tuple[int, ...]
    cycle: Optional[tuple[int, ...]]

    @property
    def truncated(self) -> bool:
        return self.cycle is None

    @property
    def strictly_periodic(self) -> bool:
        return self.cycle is not None and not self.prefix

    @property
    def period(self) -> Optional[int]:
        return len(self.cycle) if self.strictly_periodic else None

    def head(self, count: int) -> tuple[int, ...]:
        out = list(self.prefix[:count])
        i = 0
        while self.cycle and len(out) < count:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out[:count])


def _finish_code(prefix: tuple[int, ...],
                 cycle: Optional[tuple[int, ...]]) -> Code:
    """The one constructor of a `Code`, in canonical form: the cycle cut
    to its least period (the least rotation that fixes it), then the
    prefix shortened while its last index is the cycle's last, the cycle
    rotated back one step each time.  A truncated code keeps its prefix."""
    if cycle is not None:
        r = next(r for r in range(1, len(cycle) + 1)
                 if cycle[r:] + cycle[:r] == cycle)
        cycle = cycle[:r]
        while prefix and prefix[-1] == cycle[-1]:
            prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
    return Code(prefix, cycle)


# -- certified tails: the lock test that ends the codes walks early ------------

class Certifier:
    """Entry test for certified convergence with a locked itinerary.

    A point inside a contraction ball of an enumerated orbit, and closer to
    its centre than the orbit's clearance from every cut and branch boundary
    divided by the worst intermediate stretch, keeps the exact cut interval
    of the matching orbit point at every future step.  The balls are those
    of the map's horizon-8 attraction atlas, shared with `attracted`, cut
    to that distance once, here: `balls` is the walk's stop-test data,
    each ball labelled (orbit, centre); the centres keep the cycle lock of
    `walk` off the atlas cycles.  A certifier holds no reference to its
    map, so memoizing it on the map makes no reference cycle.
    """

    def __init__(self, f: PiecewiseMap):
        boundaries = sorted({f.a, f.b, *f.breakpoints})  # specials among them
        locks = []
        for orb, balls in _map_atlas(f).items():
            clearance = min(min(abs(c - p) for c in boundaries if c != p)
                            for p in orb.points)
            stretch = worst = Fraction(1)
            for p in orb.points * 2:
                stretch *= max(_magnitude(f._segs[f._side(p, plus)][4])
                               for plus, room in ((False, p > f.a),
                                                  (True, p < f.b)) if room)
                worst = max(worst, stretch)
            threshold = clearance / worst
            locks += [(*b.span(min(b.radius, threshold)), b.center,
                       (orb, b.center)) for b in balls]
        self.balls = ball_stops(locks)

    @classmethod
    def of(cls, f: PiecewiseMap) -> "Certifier":
        """The certifier of f, built on first use and memoized on f."""
        return f._memo(("certifier",), lambda: cls(f))


MAX_CODES = 16


def codes(f: PiecewiseMap, x: RationalLike, cap: int = DEFAULT_CAP
          ) -> tuple[Code, ...]:
    """All codes of x, expanded per orbit position with a two-sided index.

    Raises CodeUndefinedError when the orbit hits a jump; returns truncated
    codes when no exact repetition, certified ball of `Certifier.of(f)` or
    cycle lock (its cycle phased at y after the trail before y) ends the
    walk within `cap` steps and the DENOM_BIT_CAP denominator budget.
    """
    return _walk_codes(f, _codes_walk(f, as_fraction(x), cap), None)


def _codes_walk(f: PiecewiseMap, x: Fraction, cap: int) -> Walk:
    return walk(f, x, cap, balls=Certifier.of(f).balls, lock=True)


def _walk_codes(f: PiecewiseMap, w: Walk,
                firsts: Optional[tuple[int, ...]]) -> tuple[Code, ...]:
    """The codes of a codes or good-set walk, each put behind every index
    in `firsts` (a special point's own) unless that is None; the two walks
    end alike wherever the good-set walk meets no special point."""
    if w.reason == "jump":
        raise CodeUndefinedError(
            f"iterate {len(w.pairs) - 1} of {w.trail[0]} is a jump point")
    part = PartitionIntervals.of(f)
    prefix, cycle = w.trail, None
    if w.reason in ("repeat", "lock"):  # a lock found its cycle
        prefix, cycle = prefix[:w.start], w.found or prefix[w.start:]
    elif w.reason == "stop":
        orb, center = w.found
        k = orb.points.index(center)
        cycle = orb.points[k:] + orb.points[:k]
    cycles = [None] if cycle is None else _expand(
        [part.indices_of(p) for p in cycle])
    out = {_finish_code(pre, cyc)
           for pre in _expand([part.indices_of(p) for p in prefix])
           for cyc in cycles}
    if firsts is not None:  # tail codes first, then each first index
        out = {_finish_code((k, *t.prefix), t.cycle)
               for k in firsts for t in out}
    return tuple(sorted(out, key=lambda c: (c.prefix, c.cycle or ())))


def _expand(choices: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    outs: list[tuple[int, ...]] = [()]
    for options in choices:
        outs = [prev + (o,) for prev in outs for o in options][:MAX_CODES]
    return outs


def avoids_special_forever(f: PiecewiseMap, x: RationalLike,
                           cap: int = DEFAULT_CAP) -> Trivalent:
    """Whether the whole forward orbit of x provably misses the special set.

    Yes through an exact cycle off the special set, a certified ball of a
    clear orbit (from the map's `Certifier.of(f)`) or a cycle lock; no as
    soon as an iterate is special; unknown when `cap` or the
    DENOM_BIT_CAP denominator budget gives out first: the codes walk with
    every special point as a stop.
    """
    return _good_walk(f, as_fraction(x), cap)[0]


def _good_walk(f: PiecewiseMap, x: Fraction, cap: int
               ) -> tuple[Trivalent, Walk]:
    """`avoids_special_forever` with the walk behind its verdict."""
    w = walk(f, x, cap, points=dict.fromkeys(f.special_points().points, NO),
             balls=Certifier.of(f).balls, lock=True)
    if w.reason == "stop":
        return Trivalent(NO if w.found == NO else YES), w
    if w.reason in ("repeat", "lock"):
        return Trivalent(YES), w
    return Trivalent(UNKNOWN, DENOM_BIT_CAP if w.reason == "bit_cap"
                     else cap), w


# -- regular special points -----------------------------------------------------

@dataclass(frozen=True)
class RegularityCertificate:
    w: Fraction
    side: Optional[Side]
    code: Code


def _side_start(f: PiecewiseMap, w: Fraction, side: Optional[Side]
                ) -> tuple[Fraction, tuple[int, ...]]:
    """Where a special point's orbit starts, and its first indices: a
    turning point's value and both neighbouring indices, or a jump side's
    one-sided limit and that side's own index, as nearby points have."""
    special = f.special_points()
    if w not in special.points:
        raise PreconditionError(f"{w} is not a special point")
    k = PartitionIntervals.of(f).indices_of(w)
    if w not in special.discontinuities:
        if side is not None:
            raise PreconditionError(
                f"{w} is not a jump point, so it has no side")
        return f.value(w), k
    return f.lateral(w, side), (k[0],) if side == MINUS else (k[-1],)


def is_regular(f: PiecewiseMap, w: RationalLike, cap: int = DEFAULT_CAP, *,
               side: Optional[Side] = None) -> Trivalent:
    """Regularity of a special point: its image orbit stays off the special
    set forever and some code of it repeats from position zero.  For a jump
    the verdict is per side; with no side given, the best side answers."""
    cert = regularity_certificate(f, w, cap, side=side)
    return cert if isinstance(cert, Trivalent) else Trivalent(YES)


def regularity_certificate(f: PiecewiseMap, w: RationalLike,
                           cap: int = DEFAULT_CAP, *,
                           side: Optional[Side] = None):
    """The strictly periodic code behind a yes verdict, or the Trivalent
    no / unknown explaining its absence.  At a jump with no side given the
    first certified side answers, else the first unknown side, else no.
    w must be special, and a side is given only at a jump.  Each side
    walks once: its codes are read off its good-set walk, which on a yes
    met no special point and so stops as the codes walk would.  Memoized
    on f per (w, side, cap); a rejected point or side caches nothing."""
    w = as_fraction(w)

    def build():
        at_jump = w in f.special_points().discontinuities
        verdicts = []
        for s in (MINUS, PLUS) if side is None and at_jump else (side,):
            start, firsts = _side_start(f, w, s)
            good, path = _good_walk(f, start, cap)
            if good.value == YES:
                periodic = [c for c in _walk_codes(f, path, firsts)
                            if c.strictly_periodic]
                if periodic:
                    return RegularityCertificate(w, s, periodic[0])
            verdicts.append(good)
        return next((v for v in verdicts if v.value == UNKNOWN),
                    Trivalent(NO))

    return f._memo(("certificate", w, side, cap), build)


# -- the regular point / attractor correspondence --------------------------------

@dataclass(frozen=True)
class RegularAttractorResult:
    w: Fraction
    side: Optional[Side]
    code: Code
    interval: tuple[Fraction, Fraction]
    orbit: PeriodicOrbit
    stability: str
    attracted_verdict: str


def _constraint_interval(f: PiecewiseMap, code: Code
                         ) -> tuple[Fraction, Fraction, list[Segment]]:
    """Closed interval of points satisfying the code constraints over two
    periods (which keeps the doubled power inside monotone territory), and
    the doubled power's int segments on it, from one forward sweep."""
    part = PartitionIntervals.of(f)
    sigma = code.cycle
    n = len(sigma)
    clips = [None, *(part.interval(sigma[m % n]) for m in range(1, 2 * n)),
             None]
    try:
        return segment_sweep(f, *part.interval(sigma[0]), clips)
    except ClipError as e:
        raise CertificationError(
            "code constraints "
            + ("pin a single point" if e.point else "empty")
            + f" at position {e.step}") from None


def _stabilized_interval(f: PiecewiseMap, base: tuple[Fraction, Fraction],
                         n: int) -> Optional[tuple[Fraction, Fraction]]:
    """Refine the one-period constraint interval until the n-th power maps
    it into itself, each round cutting it to the points the n-th power
    maps into it; geometric endpoint tails are closed out exactly."""
    lo, hi = base
    los, his = [lo], [hi]
    for _ in range(64):
        try:
            u, v, _ = segment_sweep(f, lo, hi, [None] * n + [(lo, hi)])
        except ClipError:
            return None
        if (u, v) == (lo, hi):
            return lo, hi
        lo, hi = u, v
        los.append(lo)
        his.append(hi)
        guess = _geometric_limit(f, los, his, n)
        if guess is not None:
            return guess
    return None


def _geometric_limit(f, los, his, n) -> Optional[tuple[Fraction, Fraction]]:
    if len(los) < 3:
        return None

    def limit(seq):
        d1, d2 = seq[-2] - seq[-3], seq[-1] - seq[-2]
        if d1 == 0:
            return seq[-1] if d2 == 0 else None
        s = d2 / d1
        if not 0 <= s < 1:
            return None
        return seq[-1] + d2 * s / (1 - s)

    lo, hi = limit(los), limit(his)
    if lo is None or hi is None or lo >= hi:
        return None
    p, q = image_chain(f, lo, hi, n)[-1]
    if lo <= p and q <= hi:
        return lo, hi
    return None


def regular_attractor(f: PiecewiseMap, w: RationalLike
                      ) -> RegularAttractorResult:
    """From a regular special point to the orbit attracting it.

    Builds the closed interval of points sharing the periodic code, finds
    the extreme fixed point of the doubled power next to w inside it, and
    certifies the resulting orbit: stable or semi-stable, not trapped, and
    attracting w.  At a jump the certified side is used.  Certification
    failures raise CertificationError.
    """
    w = as_fraction(w)
    cert = regularity_certificate(f, w)
    if not isinstance(cert, RegularityCertificate):
        raise PreconditionError(
            f"{w} is not certified regular (verdict {cert.value})")
    code = cert.code
    n = code.period
    lo, hi, segs = _constraint_interval(f, code)
    if not lo <= w <= hi:
        raise CertificationError("regular point left its own code interval")
    part = PartitionIntervals.of(f)
    cycles = {t: fixed_cycle(f, t, 2 * n) for t in fixed_points(segs)[0]}
    fixed = [t for t, cycle in cycles.items() if _conforms(cycle, code, part)]
    if w not in (lo, hi):
        raise CertificationError("regular point is not an endpoint of its "
                                 "code interval")
    upper = w == hi  # the fixed points past w are below it
    past = [t for t in fixed if (t < w if upper else t > w)]
    if not past:
        raise CertificationError("no fixed point of the doubled power "
                                 f"{'below' if upper else 'above'} the "
                                 "regular point")
    x_star = (max if upper else min)(past)
    orb = PeriodicOrbit(cycles[x_star], len(cycles[x_star]), None)
    interval = _stabilized_interval(f, (lo, hi), n)
    if interval is None:
        partner = orb.points[n % orb.period]
        interval = (min(x_star, partner), w) if upper \
            else (w, max(x_star, partner))
    p, q = image_chain(f, *interval, n)[-1]
    if not (interval[0] <= p and q <= interval[1]):
        raise CertificationError("code interval is not forward invariant")
    stability = classify_point(f, x_star)
    if stability not in (STABLE, SEMI_STABLE):
        raise CertificationError(f"attracting orbit classified {stability}")
    tax = taxonomy(f, orb)
    if tax.trapped:
        raise CertificationError("attracting orbit is trapped")
    start, _ = _side_start(f, w, cert.side)
    verdict = attracted(f, start, orb)
    if verdict == NO:
        raise CertificationError("regular point not attracted to the orbit")
    return RegularAttractorResult(w, cert.side, code, interval, orb,
                                  stability, verdict)


def _conforms(cycle: Optional[tuple[Fraction, ...]], code: Code,
              part: PartitionIntervals) -> bool:
    """The cycle (None when the point is not periodic) follows the code's
    cycle of cut intervals over two periods."""
    return cycle is not None and all(
        part.cuts[k] <= cycle[m % len(cycle)] <= part.cuts[k + 1]
        for m, k in enumerate(code.cycle * 2))


def attractor_regular_source(f: PiecewiseMap, orb: PeriodicOrbit, *,
                             horizon: int = 8) -> tuple[Fraction, Trivalent]:
    """From a free non-exceptional stable-or-semi-stable orbit back to a
    regular special point inside its basin.

    Requires every enumerated critical orbit of the map to be stable, mirrors
    the basin edge push, and reports the landed special point with its
    regularity verdict (unknown propagates; a certified no raises)."""
    tax = taxonomy(f, orb)
    if not tax.free or tax.exceptional:
        raise PreconditionError("needs a free, non-exceptional orbit")
    cls = classify_point(f, orb.representative, require_confined=False)
    if cls not in (STABLE, SEMI_STABLE):
        raise PreconditionError("orbit is unstable")
    turns = set(f.special_points().turning)
    for other in periodic_points(f, horizon):
        if not other.continuous or not any(p in turns for p in other.points):
            continue
        if classify_point(f, other.representative,
                          require_confined=False) != STABLE:
            raise PreconditionError("a critical orbit is not stable")
    witnesses = basin_adjacent_special(f, orb)
    w = witnesses[0].w
    verdict = is_regular(f, w)
    if verdict.value == NO:
        raise CertificationError(
            f"basin edge landed on a non-regular special point {w}")
    return w, verdict
