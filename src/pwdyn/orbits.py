"""Forward dynamics: variants, orbits, branching structures, germs.

A map is undefined at its jump points, so forward dynamics branch there: a
variant resolves every jump to one side, a structure is the union of all
variant orbits, and a germ (point plus side) transports one-sided
neighbourhoods exactly through the affine branches.  Periodic behaviour
splits into three kinds, all enumerated here: isolated cycles of points,
whole intervals of fixed points of a power (slope-1 pieces), and half-point
cycles anchored at a jump, detected through germ orbits because the map
itself has no value there.

Every point-orbit walk goes through `walk`, which runs on (numerator,
denominator) int pairs from start to stop, stepped by the integer step
that `maps` memoizes on each map and evaluates with `maps._image_at`.
Its stop tests are checked in the same arithmetic: labelled points, such
as the special points, and labelled balls, open intervals that also hold
their centre, each ending the walk with its label whatever it is, and the
cycle lock, which certifies a contracting cycle.
Fractions appear only at the API boundary: callers pass them in and read
them back from `Walk.trail`.  The periodic-orbit enumeration and the
code-conformance test of `codes` check a candidate with one such walk,
`fixed_cycle`, and take their candidates from one solver, `fixed_points`,
which reads them off int segments by cross-multiplication: the powers'
segments in the power cache of `maps`, and a code interval's sweep; the
enumeration skips a candidate on a point orbit it has already added.

The same step drives the other exact iterations: `structure` expands all
variant orbits breadth-first on pairs; `interval_walk` steps a union of
closed intervals held as int quadruples for the stability oracle,
checking its stop rules by cross-multiplication; and `_sweep` clips the
affine segments of an iterate on a shrinking interval and pushes them
through the one piece kernel of `maps`, for the monotone window, and
through `segment_sweep` for the code intervals and restricted powers.

Germs step the same integer table as (numerator, denominator, plus)
triples, their piece found by `maps._branch` as the side pieces of a map
are, each step by the one germ step `_germ_successor`.  A germ's walk to
its first repeat is one int record, `_germ_walk`, not memoized; only a
walk that closes within GERM_CAP germs is kept, once per germ, as the
germ cycle of `stability`.  Germs and slopes are made only for results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from fractions import Fraction
from math import prod
from typing import (Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence)

from .maps import (MINUS, PLUS, BudgetError, Pair, PiecewiseMap,
                   PowerLimitError, PwdynError, RationalLike, Segment, Side,
                   _apply, _branch, _image, _image_at, _locate, _magnitude,
                   _pair, _plus, _push_segments, _solve, _Table, _table,
                   as_fraction)

DENOM_BIT_CAP = 4096
STRUCTURE_CAP = 10**4
LOCK_WINDOW = 768
GERM_CAP = 10**4
VARIANT_BIT_LIMIT = 20


class VariantLimitError(BudgetError):
    """Too many jump points to enumerate all variants."""


@dataclass(frozen=True)
class VariantSelector:
    """A side choice at every jump point, inducing a total map."""

    choice: tuple[tuple[Fraction, Side], ...]

    @classmethod
    def from_dict(cls, mapping: dict[Fraction, Side]) -> "VariantSelector":
        return cls(tuple(sorted(mapping.items())))

    def side_at(self, w: Fraction) -> Side:
        for point, side in self.choice:
            if point == w:
                return side
        raise KeyError(f"{w} is not a jump point of this selector")


def variants(f: PiecewiseMap) -> list[VariantSelector]:
    """All side selectors, ordered lexicographically in (point, side);
    VariantLimitError past VARIANT_BIT_LIMIT jump points."""
    jumps = f.special_points().discontinuities
    if len(jumps) > VARIANT_BIT_LIMIT:
        raise VariantLimitError(f"{len(jumps)} jump points exceed the "
                                f"{VARIANT_BIT_LIMIT}-bit limit")
    out = []
    for sides in itertools.product((MINUS, PLUS), repeat=len(jumps)):
        out.append(VariantSelector(tuple(zip(jumps, sides))))
    return out


def variant_step(f: PiecewiseMap, x: Fraction, sel: VariantSelector) -> Fraction:
    """f(x), or at a jump the lateral limit on the side `sel` picks."""
    return Fraction(*_image(_table(f), *_pair(as_fraction(x)), sel))


Ball = tuple[int, int, int, int, int, int, object]


def ball_stops(balls: Iterable[tuple[Fraction, Fraction, Fraction, object]]
               ) -> tuple[Ball, ...]:
    """Stop-test data for `walk`: each (lo, hi, centre, label) holds the
    points strictly between lo and hi and the centre itself."""
    return tuple((*_pair(lo), *_pair(hi), *_pair(c), label)
                 for lo, hi, c, label in balls)


class Walk(NamedTuple):
    """How a point walk ended: `pairs` holds the points visited before the
    stop as (numerator, denominator), `start` the index where the cycle
    starts on a repeat, and `found` the label of the stop test that ended
    it."""

    pairs: list[Pair]
    start: Optional[int]
    reason: str
    found: object = None

    @property
    def trail(self) -> list[Fraction]:
        """The visited points as Fractions."""
        return [Fraction(p, q) for p, q in self.pairs]


def walk(f: PiecewiseMap, x: Fraction, cap: int, *,
         points: Optional[Mapping[Fraction, object]] = None,
         balls: tuple[Ball, ...] = (), lock: bool = False,
         sel: Optional[VariantSelector] = None) -> Walk:
    """Step x under f until the first literal repetition: the one
    point-orbit walk.

    Each point is checked in a fixed order: a repeat of an earlier point
    (reason "repeat"), a denominator over DENOM_BIT_CAP bits ("bit_cap"),
    then the stop tests, which are data.  A point listed in `points` ends
    the walk with its label ("stop"), whatever the label; any other point
    is tested against `balls` (from `ball_stops`), and the first ball that
    holds it ends the walk with that ball's label.  A point that passes
    joins the trail.  With `lock`, the cycle lock `_lock` runs at trail
    lengths 64, 128, 256, ...; once it proves that the orbit converges to
    a cycle through no ball centre, never meeting a cut, it ends the walk
    ("lock"), `start` the index of the y it starts from and `found` the
    cycle, phased at y.  An unresolved jump ends the walk ("jump"), and
    `cap` points end it ("cap").  A start outside the domain raises
    ValueError when stepped.

    The walk runs on (numerator, denominator) pairs throughout, through
    the integer step memoized on f; Fractions appear only in `Walk.trail`.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    t = _table(f)
    marks = {} if points is None else {
        _pair(p): label for p, label in points.items()}
    seen: dict[Pair, int] = {}
    pairs: list[Pair] = []
    at: list[int] = []  # the bounds at or below each point: its piece
    key, check = _pair(x), 64 if lock else 0  # the next lock's length
    for _ in range(cap):
        start = seen.get(key)
        if start is not None:
            return Walk(pairs, start, "repeat")
        p, q = key
        if q.bit_length() > DENOM_BIT_CAP:
            return Walk(pairs, None, "bit_cap")
        if key in marks:
            return Walk(pairs, None, "stop", marks[key])
        for ln, ld, hn, hd, cn, cd, label in balls:
            if ln * q < p * ld and p * hd < hn * q or p == cn and q == cd:
                return Walk(pairs, None, "stop", label)
        seen[key] = len(pairs)
        pairs.append(key)
        at.append(_locate(t.cuts, p, q))
        if len(pairs) == check:
            check *= 2
            cycle = _lock(t, pairs[-LOCK_WINDOW:], at[-LOCK_WINDOW:], balls)
            if cycle:
                return Walk(pairs, len(pairs) - 1 - len(cycle), "lock", cycle)
        key = _image_at(t, at[-1], p, q, sel)
        if key is None:
            return Walk(pairs, None, "jump")
    return Walk(pairs, None, "cap")


def _lock(t: _Table, tail: list[Pair], at: list[int],
          balls: tuple[Ball, ...]) -> Optional[tuple[Fraction, ...]]:
    """The cycle c, f(c), ... the orbit through `tail` converges to, or
    None: the pieces (`at` - 1) are p-periodic, p <= len/2; from y, p
    points back, they compose to F(t) = alpha*t + beta, |alpha| < 1, fixing
    c; J = [c - r, c + r], r = |y - c|, and its images stay in them."""
    cuts, coefs = t.cuts, t.coefs
    word, n = "".join(map(chr, at)), len(at) // 2  # slices compare in C
    # any period p <= n repeats the first half at p, and the first repeat
    p = word.find(word[:-n], 1)  # of the first half is then the least one
    run = (list(zip(tail[-1 - p:-1], at[-1 - p:-1]))
           if 0 < p <= n and word[p:] == word[:-p] else [])
    an, ad = (prod(coefs[i - 1][k] for _, i in run) for k in (0, 2))
    if abs(an) >= ad or any(cuts[i - 1] == pt for pt, i in run):
        return None  # not contracting, or J would hold a cut
    (yn, yd), (zn, zd) = tail[-1 - p], tail[-1]
    lo, hi = cuts[run[0][1] - 1], cuts[run[0][1]]  # y's piece
    F = (an * yd * zd, zn * ad * yd - an * yn * zd, ad * yd * zd)  # F(y) = z
    root = fixed_points([(lo, hi, _apply(F, *lo), _apply(F, *hi), F)])[0]
    if not root:
        return None
    cn, cd = c = _pair(root[0])
    e = _pair(Fraction(2 * cn * yd - yn * cd, cd * yd))  # J's end 2c - y
    cycle, centres = [], {b[4:6] for b in balls}
    for _, i in run:
        (ln, ld), (hn, hd), (en, ed) = cuts[i - 1], cuts[i], e
        if ln * ed >= en * ld or en * hd >= hn * ed or c in centres:
            return None
        cycle.append(c)
        e, c = _apply(coefs[i - 1], *e), _apply(coefs[i - 1], *c)
    return tuple(Fraction(*c) for c in cycle)


Quad = tuple[int, int, int, int]


def _interval_step(t: _Table, state: tuple[Quad, ...]) -> tuple[Quad, ...]:
    """The image of a union of closed intervals, each (ln, ld, hn, hd) for
    [ln/ld, hn/hd], as sorted disjoint intervals: each is split at the
    cuts inside it, each part goes through its piece, and the images are
    ordered and merged where they overlap or touch."""
    cuts, pieces = t.cuts, t.coefs
    parts = []
    for ln, ld, hn, hd in state:
        # pieces i-1 .. j-1 meet the interval: i bounds lie at or below
        # its low end and j strictly below its high end
        i = _locate(cuts, ln, ld)
        j = _locate(cuts, hn, hd)
        if cuts[j - 1] == (hn, hd):
            j -= 1
        ends = ((ln, ld), *cuts[i:j], (hn, hd))
        for piece, (p0, q0), (p1, q1) in zip(pieces[i - 1:j], ends, ends[1:]):
            v0, v1 = _apply(piece, p0, q0), _apply(piece, p1, q1)
            parts.append((*v0, *v1) if piece[0] > 0 else (*v1, *v0))
    if len(parts) == 1:
        return (parts[0],)
    parts.sort(key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    out = [parts[0]]
    for part in parts[1:]:
        ln, ld, hn, hd = part
        mln, mld, mhn, mhd = out[-1]
        if ln * mhd <= mhn * ld:
            if hn * mhd > mhn * hd:
                out[-1] = (mln, mld, hn, hd)
        else:
            out.append(part)
    return tuple(out)


def _length(state: tuple[Quad, ...]) -> Pair:
    """The total length of the intervals, as a pair with a positive (not
    reduced) denominator."""
    num, den = 0, 1
    for ln, ld, hn, hd in state:
        num, den = num * ld * hd + (hn * ld - ln * hd) * den, den * ld * hd
    return num, den


def interval_walk(f: PiecewiseMap, lo: Fraction, hi: Fraction, *,
                  steps: int, stride: int, thresh: Fraction, floor: Fraction,
                  restart: bool) -> str:
    """Step the closed interval [lo, hi] under f as a union of intervals,
    split exactly at the cuts, and name why the walk stopped.

    After each step the state is checked in a fixed order: more than 256
    intervals ("parts"); with `restart`, more than one interval of total
    length at most `floor` ("restart"); then, on every `stride`-th step
    only, total length below `thresh` ("short"), above `floor` ("long"),
    and an exact repeat of an earlier checked state ("repeat").  After
    `steps` steps it ends "halved" if the length fell below half of
    hi - lo, else "held".

    The intervals are held as int quadruples and stepped through the
    integer table memoized on f, so no Fraction is made while walking.
    """
    if not f.a <= lo < hi <= f.b:
        raise ValueError(f"[{lo}, {hi}] is not an interval in [{f.a}, {f.b}]")
    t = _table(f)
    state = ((*_pair(lo), *_pair(hi)),)
    sn, sd = _length(state)
    tn, td = _pair(thresh)
    fn, fd = _pair(floor)
    seen = set()
    for step in range(1, steps + 1):
        state = _interval_step(t, state)
        if len(state) > 256:
            return "parts"
        n, d = _length(state)
        if restart and len(state) > 1 and n * fd <= fn * d:
            return "restart"
        if step % stride:
            continue
        if n * td < tn * d:
            return "short"
        if n * fd > fn * d:
            return "long"
        if state in seen:
            return "repeat"
        seen.add(state)
    n, d = _length(state)
    return "halved" if 2 * n * sd < sn * d else "held"


class ClipError(PwdynError):
    """A clip of `segment_sweep` left at most one point of the image."""

    def __init__(self, step: int, point: bool):
        super().__init__(f"clip {step} leaves "
                         + ("a single point" if point else "nothing"))
        self.step = step
        self.point = point


def _narrow(segs: list[Segment], rising: bool, t_lo: Pair, t_hi: Pair
            ) -> list[Segment]:
    """Cut a continuous strictly monotone segment list down to the points
    it maps onto [t_lo, t_hi], a part of its image: the segments whose
    ranges hold the two targets each get one solve."""
    if not rising:
        t_lo, t_hi = t_hi, t_lo  # the targets of the left and right ends
    sign = 1 if rising else -1
    (ln, ld), (hn, hd) = t_lo, t_hi
    # segment i is the first to end strictly past t_lo, j the first to end
    # at or past t_hi
    i = next(k for k, (*_, (yn, yd), _) in enumerate(segs)
             if sign * (yn * ld - ln * yd) > 0)
    j = next(k for k, (*_, (yn, yd), _) in enumerate(segs)
             if sign * (yn * hd - hn * yd) >= 0)
    out = segs[i:j + 1]
    _, x1, _, y1, c = out[0]
    out[0] = (_solve(c, *t_lo), x1, t_lo, y1, c)
    x0, _, y0, _, c = out[-1]
    out[-1] = (x0, _solve(c, *t_hi), y0, t_hi, c)
    return out


def segment_sweep(f: PiecewiseMap, lo: Fraction, hi: Fraction,
                  clips: Sequence[Optional[tuple[Fraction, Fraction]]]
                  ) -> tuple[Fraction, Fraction, list[Segment]]:
    """Clip and push the identity on [lo, hi] through f: the iterate m =
    len(clips) - 1 on the points whose iterates keep inside the clips,
    as (u, v, segments) with u, v the ends of that interval.

    `clips[j]` is a closed interval or None.  The image of the j-th
    iterate is read off its two end segments and cut to `clips[j]`, its
    ends pulled back by one solve each on the segments; then, for j < m,
    the segments are pushed once through f.  A clip that leaves one point
    or nothing raises ClipError.  Each iterate must be continuous and
    strictly monotone where it is clipped and pushed, as it is when the
    clips stay between special points.

    The segments are int tuples, each (x0, x1, y0, y1, (A, B, D)) with its
    ends and end values as reduced (numerator, denominator) pairs and its
    value (A*p + B*q) / (D*q) at p/q, pushed by the one piece kernel,
    `maps._push_segments`, through the integer table memoized on f, and
    returned as they are: only u and v are Fractions.  Without clips this
    is the m-th iterate on [lo, hi], `taxonomy.restrict_power`.
    """
    lo, hi = _pair(lo), _pair(hi)
    segs = _sweep(_table(f), [(lo, hi, lo, hi, (1, 0, 1))],
                  [c and (_pair(c[0]), _pair(c[1])) for c in clips])
    return Fraction(*segs[0][0]), Fraction(*segs[-1][1]), segs


def _sweep(t: _Table, segs: list[Segment],
           clips: Sequence[Optional[tuple[Pair, Pair]]]) -> list[Segment]:
    """`segment_sweep` from a monotone run, through step t, on pair clips."""
    last = len(clips) - 1
    for step, clip in enumerate(clips):
        if clip is not None:
            first, end = segs[0][2], segs[-1][3]
            rising = first[0] * end[1] < end[0] * first[1]
            low, high = (first, end) if rising else (end, first)
            c_lo, c_hi = clip
            cut_lo = c_lo[0] * low[1] > low[0] * c_lo[1]
            cut_hi = c_hi[0] * high[1] < high[0] * c_hi[1]
            if cut_lo or cut_hi:
                t_lo = c_lo if cut_lo else low
                t_hi = c_hi if cut_hi else high
                gap = t_hi[0] * t_lo[1] - t_lo[0] * t_hi[1]
                if gap <= 0:
                    raise ClipError(step, gap == 0)
                segs = _narrow(segs, rising, t_lo, t_hi)
        if step < last:
            segs = _push_segments(t, segs)
    return segs


def special_gaps(f: PiecewiseMap, x: Fraction, n: int
                 ) -> list[tuple[Pair, Pair]]:
    """The closed gap between the special points, or the domain ends,
    around each of the first n iterates of x, as two int pairs; the list
    stops before the first iterate that is a special point.  The iterates
    are stepped as pairs through the integer table memoized on f, and once
    one is x again, the gaps found so far repeat."""
    t = _table(f)
    keys = tuple(map(_pair, f.special_points().points))
    bounds = (_pair(f.a), *keys, _pair(f.b))
    p, q = start = _pair(x)
    out = []
    for j in range(n):
        if j:
            p, q = _image(t, p, q, None)
            if (p, q) == start:
                return [out[i % j] for i in range(n)]
        k = _locate(keys, p, q)
        if k and keys[k - 1] == (p, q):
            break
        out.append((bounds[k], bounds[k + 1]))
    return out


@dataclass(frozen=True)
class OrbitResult:
    prefix: tuple[Fraction, ...]
    cycle: Optional[tuple[Fraction, ...]]
    steps_used: int
    truncated: bool
    cap: Optional[int] = None


def orbit(f: PiecewiseMap, x: RationalLike, sel: VariantSelector,
          cap: int = 10**4) -> OrbitResult:
    """Exact forward orbit of one variant, with repetition detection."""
    w = walk(f, as_fraction(x), cap, sel=sel)
    trail = tuple(w.trail)
    if w.reason == "repeat":
        return OrbitResult(trail[:w.start], trail[w.start:], len(trail), False)
    return OrbitResult(trail, None, len(trail), True,
                       DENOM_BIT_CAP if w.reason == "bit_cap" else cap)


@dataclass(frozen=True)
class StructureGraph:
    """The branching forward-orbit set of a point, with jump edges split."""

    root: Fraction
    nodes: tuple[Fraction, ...]
    edges: tuple[tuple[Fraction, Optional[Side], Fraction], ...]
    closed: bool
    truncated: bool

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    def __contains__(self, x) -> bool:
        return as_fraction(x) in self.node_set


def structure(f: PiecewiseMap, x: RationalLike, cap: int = STRUCTURE_CAP
              ) -> StructureGraph:
    """Breadth-first expansion of all variant orbits from x.

    Closed means the expansion terminated with a finite node set; hitting
    the node cap or a denominator over DENOM_BIT_CAP bits reports
    closed=False with the truncated flag set.  The expansion runs on
    (numerator, denominator) pairs through the integer table memoized on
    f, a jump's two successors read off its one-sided limits there; nodes
    and edges become Fractions once, at the end.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    x = as_fraction(x)
    t = _table(f)
    root = _pair(x)
    nodes = {root}
    edges = []
    frontier = [root]
    truncated = False
    while frontier:
        nxt = []
        for p in frontier:
            v = _image(t, *p, None)
            succ = ((None, v),) if v is not None else zip((MINUS, PLUS),
                                                         t.sides[p])
            for side, q in succ:
                edges.append((p, side, q))
                if q in nodes:
                    continue
                if len(nodes) >= cap or q[1].bit_length() > DENOM_BIT_CAP:
                    truncated = True
                    continue
                nodes.add(q)
                nxt.append(q)
        frontier = nxt
    # floor(x * 2**k) orders the nodes exactly: two distinct ones differ
    # by at least 1 / (q1 * q2) > 2**-k, and it takes one division a node
    k = 2 * max(q.bit_length() for _, q in nodes)
    order = sorted(nodes, key=lambda p: (p[0] << k) // p[1])
    fracs = {p: Fraction(*p) for p in nodes.union(q for _, _, q in edges)}
    return StructureGraph(x, tuple(fracs[p] for p in order),
                          tuple((fracs[p], side, fracs[q])
                                for p, side, q in edges),
                          closed=not truncated, truncated=truncated)


# -- germ dynamics -----------------------------------------------------------

@dataclass(frozen=True, order=True)
class Germ:
    """A point with a side: the stand-in for a one-sided neighbourhood."""

    point: Fraction
    side: Side

    def validate(self, f: PiecewiseMap) -> None:
        plus = _plus(self.side)
        if not f.a <= self.point <= f.b:
            raise ValueError(f"{self.point} outside [{f.a}, {f.b}]")
        if self.point == f.a and not plus:
            raise ValueError("no left-hand germ at the left endpoint")
        if self.point == f.b and plus:
            raise ValueError("no right-hand germ at the right endpoint")


@dataclass(frozen=True)
class GermStepResult:
    next: Germ
    slope_magnitude: Fraction


# (p, q, plus): the germ at p/q, on the plus side when plus is true
GermKey = tuple[int, int, bool]


def _germ_key(f: PiecewiseMap, g: Germ) -> GermKey:
    """g, validated on f, as the triple the germ step runs on."""
    g = Germ(as_fraction(g.point), g.side)
    g.validate(f)
    return (*_pair(g.point), g.side == PLUS)


def _germ(key: GermKey) -> Germ:
    p, q, plus = key
    return Germ(Fraction(p, q), PLUS if plus else MINUS)


def _germ_successor(t: _Table, key: GermKey) -> tuple[GermKey, int]:
    """The one germ step: the germ after `key` under the integer step t,
    and the index of the piece that carries it, the one on the germ's
    side (`maps._branch`); the side flips exactly when that piece
    decreases (alpha <= 0)."""
    p, q, plus = key
    i = _branch(t, p, q, plus)
    piece = t.coefs[i]
    return (*_apply(piece, p, q), plus != (piece[0] <= 0)), i


def germ_step(f: PiecewiseMap, g: Germ) -> GermStepResult:
    """Transport a one-sided neighbourhood through its adjacent branch,
    by one `_germ_successor` step on f's integer table.

    The side flips exactly when the branch decreases.
    """
    nxt, i = _germ_successor(_table(f), _germ_key(f, g))
    return GermStepResult(_germ(nxt), _magnitude(_table(f).coefs[i]))


@dataclass(frozen=True)
class GermOrbit:
    """Germ orbit up to (and including) the first repeated germ.

    germs[preperiod + period] == germs[preperiod] when a cycle was found;
    slopes[i] is the branch slope magnitude of the step germs[i] ->
    germs[i+1].
    """

    germs: tuple[Germ, ...]
    slopes: tuple[Fraction, ...]
    preperiod: int
    period: int
    truncated: bool

    @property
    def cycle(self) -> tuple[Germ, ...]:
        return self.germs[self.preperiod:self.preperiod + self.period]

    @property
    def cycle_product(self) -> Fraction:
        return prod(self.slopes[self.preperiod:self.preperiod + self.period])


def _germ_walk(f: PiecewiseMap, key: GermKey, cap: int
               ) -> tuple[dict[GermKey, int], tuple[int, ...], Optional[int]]:
    """The one germ walk, on ints and not memoized (`stability._germ_cycle`
    keeps closed walks): each germ from `key` up to the first repeat with
    the step that reached it, the piece index of each step, and the index
    where the cycle starts: None when DENOM_BIT_CAP or `cap` germs end the
    walk first.  Each germ is stepped by `_germ_successor` on f's table."""
    t = _table(f)
    seen: dict[GermKey, int] = {}
    steps: list[int] = []
    for _ in range(cap):
        start = seen.get(key)
        if start is not None:
            return seen, tuple(steps), start
        if key[1].bit_length() > DENOM_BIT_CAP:
            break
        seen[key] = len(steps)
        key, i = _germ_successor(t, key)
        steps.append(i)
    return seen, tuple(steps), None


def germ_orbit(f: PiecewiseMap, g: Germ) -> GermOrbit:
    """Step the germ g with exact (point, side) cycle detection, until
    GERM_CAP germs or the DENOM_BIT_CAP denominator budget run out.

    Each germ is checked in a fixed order: a repeat of an earlier germ
    closes the cycle, a denominator over DENOM_BIT_CAP bits truncates the
    orbit, and so does the GERM_CAP-th germ's step.  g is validated once;
    the orbit, its Germs and slope magnitudes are read off a `_germ_walk`
    of g made anew on each call, so a truncated walk is not kept."""
    index, steps, start = _germ_walk(f, _germ_key(f, g), GERM_CAP)
    germs = tuple(map(_germ, index))
    magnitudes = {i: _magnitude(_table(f).coefs[i]) for i in set(steps)}
    slopes = tuple(magnitudes[i] for i in steps)
    if start is None:
        return GermOrbit(germs, slopes, len(germs), 0, True)
    return GermOrbit(germs + germs[start:start + 1], slopes, start,
                     len(germs) - start, False)


# -- periodic orbits ---------------------------------------------------------

POINT = "point"
INTERVAL_FAMILY = "interval_family"
HALF_POINT = "half_point"


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit: an isolated cycle, a fixed-interval family of a
    power (represented by the midpoint orbit), or a half-point cycle
    anchored at a jump."""

    points: tuple[Fraction, ...]
    period: int
    selector: Optional[VariantSelector]
    kind: str = POINT
    intervals: tuple[tuple[Fraction, Fraction], ...] = ()
    interval_closed: tuple[bool, bool] = (False, False)
    anchor_side: Optional[Side] = None

    @property
    def representative(self) -> Fraction:
        return self.points[0]

    @property
    def continuous(self) -> bool:
        """Only a half-point cycle passes through a jump."""
        return self.kind != HALF_POINT

    def key(self):
        return (self.kind, frozenset(self.points), frozenset(self.intervals))


def fixed_cycle(f: PiecewiseMap, x: Fraction, n: int
                ) -> Optional[tuple[Fraction, ...]]:
    """x's cycle when the n-th power fixes x, else None: one `walk` of
    n + 1 points that repeats at x after a number of steps dividing n, the
    minimal period.  A walk past DENOM_BIT_CAP raises PowerLimitError."""
    w = walk(f, x, n + 1)
    if w.reason == "bit_cap":
        raise PowerLimitError(f"the orbit of {x} under the {n}-th power "
                              f"needs over {DENOM_BIT_CAP} denominator bits")
    if w.reason != "repeat" or w.start != 0 or n % len(w.pairs):
        return None
    return tuple(w.trail)


def fixed_points(segments: Sequence[Segment]
                 ) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """The fixed points of an ordered run of abutting segments with reduced
    ends: the root strictly inside each segment of slope other than 1,
    where (D - A) p = B q, each end that every segment meeting it fixes
    (its end value there is the end), and each run of identity segments as
    one (left, right), all in increasing order and made Fractions."""
    points: list[Pair] = []
    identities: list[tuple[Pair, Pair]] = []
    fixes_end = True  # the segments before this one fix its left end
    run = False  # the segment before this one is the identity
    for x0, x1, y0, y1, (a, b, d) in segments:
        identity = a == d and b == 0
        if identity and run:
            identities[-1] = (identities[-1][0], x1)
            continue
        if fixes_end and y0 == x0:
            points.append(x0)
        if a != d:
            rn, rd = (b, d - a) if d > a else (-b, a - d)
            if x0[0] * rd < rn * x0[1] and rn * x1[1] < x1[0] * rd:
                points.append((rn, rd))
        elif identity:
            identities.append((x0, x1))
        fixes_end, run = y1 == x1, identity
    if fixes_end:
        points.append(x1)
    return ([Fraction(*x) for x in points],
            [(Fraction(*lo), Fraction(*hi)) for lo, hi in identities])


def image_chain(f: PiecewiseMap, lo: Fraction, hi: Fraction, steps: int
                ) -> list[tuple[Fraction, Fraction]]:
    """[lo, hi] and its images under the next `steps` single steps, each
    read off the inward lateral limits at the ends; exact while every step
    stays monotone and continuous inside the interval."""
    out = [(lo, hi)]
    for _ in range(steps):
        p, q = out[-1]
        v1 = f.lateral(p, PLUS)
        v2 = f.lateral(q, MINUS)
        out.append((v1, v2) if v1 <= v2 else (v2, v1))
    return out


def periodic_points(f: PiecewiseMap, max_period: int, *,
                    max_power: Optional[int] = None) -> list[PeriodicOrbit]:
    """All periodic orbits of period <= max_period.

    Reads the fixed points of each exact power off its merged int segments
    in the power cache with `fixed_points`, without building the power as
    a map: isolated points, kept when `fixed_cycle` finds them at minimal
    period n, and whole fixed intervals where a piece of the power is the
    identity (split at points whose orbits hit a jump); a point of an
    orbit already added is not walked again.  Half-point cycles at jumps
    are found through germ orbits.  Each orbit is reported once, at its
    minimal period.  Every power is held to the one piece budget,
    MAX_PIECES of `maps`.  Memoized on f per max_period: `max_power`, if
    given, only bounds max_period; each call gets a new list.
    """
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if max_power is not None and max_period > max_power // 2:
        raise ValueError(f"max_period must lie in [1, {max_power // 2}] "
                         "(configured power limit)")
    key = ("periodic_points", max_period)
    return list(f._memo(key, lambda: _periodic_orbits(f, max_period)))


def _periodic_orbits(f: PiecewiseMap, max_period: int
                     ) -> tuple[PeriodicOrbit, ...]:
    """The sorted orbits behind `periodic_points`."""
    found: dict = {}
    on_orbit: set[Fraction] = set()  # points of the point orbits added

    def add(orb: PeriodicOrbit) -> None:
        found.setdefault(orb.key(), orb)

    for n in range(1, max_period + 1):
        points, identities = fixed_points(f._power(n)._segs)
        families = [orb for piece in identities
                    for orb in _collect_families(f, n, *piece)]
        for orb in families:
            add(orb)
        for x in points:
            cycle = None if x in on_orbit else fixed_cycle(f, x, n)
            if cycle is None or len(cycle) != n \
                    or _inside_family(x, families, f):
                continue
            add(PeriodicOrbit(cycle, n, None, POINT))
            on_orbit.update(cycle)

    for w in f.special_points().discontinuities:
        for side in (MINUS, PLUS):
            orb = _half_point_cycle(f, w, side, max_period)
            if orb is not None:
                add(orb)

    return tuple(sorted(found.values(),
                        key=lambda o: (o.period, o.kind, o.points[0],
                                       o.points)))


def _inside_family(x: Fraction, families: list[PeriodicOrbit],
                   f: PiecewiseMap) -> bool:
    """True if x is already represented by an interval family: strictly
    inside one of its intervals, or a domain endpoint closing one.  An
    interior family boundary stays a separate orbit because its stability
    can differ from the family's."""
    return any(lo < x < hi or x in (lo, hi) and x in (f.a, f.b)
               for fam in families for lo, hi in fam.intervals)


def _collect_families(f, n, left, right) -> Iterator[PeriodicOrbit]:
    """Split an identity piece of the n-th power into interval families.

    The piece is cut at points whose stepwise orbits hit a special point
    (inside an identity piece that is always a jump: an orbit meeting a turn
    first makes the power two-to-one there) and at the fixed points that
    `fixed_points` lists for each proper divisor power f^d, so every family
    has uniform minimal period n.  An identity run of f^d is not blocked:
    its ends are such points or special points of f^d, and the cycle of a
    mid inside it has a length dividing d, which the period test rejects.
    """
    cuts = {x for x in f.special_preimage_set(n) if left < x < right}
    for d in range(1, n):
        if n % d != 0:
            continue
        points, _ = fixed_points(f._power(d)._segs)
        cuts.update(x for x in points if left < x < right)
    bounds = sorted({left, right, *cuts})
    for lo, hi in zip(bounds, bounds[1:]):
        mid = (lo + hi) / 2
        cycle = fixed_cycle(f, mid, n)
        if cycle is None or len(cycle) != n:
            continue
        intervals = image_chain(f, lo, hi, n - 1)
        canon = min(intervals)
        rep = (canon[0] + canon[1]) / 2
        closed = tuple(fixed_cycle(f, e, n) is not None for e in canon)
        yield PeriodicOrbit(fixed_cycle(f, rep, n), n, None, INTERVAL_FAMILY,
                            tuple(sorted(set(intervals))), closed)


def _half_point_cycle(f, w, side, max_period) -> Optional[PeriodicOrbit]:
    """Half-point cycle at a jump: the germ orbit must return to the same
    germ with no preperiod, within max_period germs, without revisiting
    the anchor point on the opposite side (which would not be a
    single-variant orbit).  It reads the germ's `_germ_walk` of
    max_period + 1 germs, which closes at germ 0 exactly when such a
    cycle exists, and makes Germs only for an accepted cycle."""
    index, _, start = _germ_walk(f, _germ_key(f, Germ(w, side)),
                                 max_period + 1)
    if start != 0:
        return None
    jumps = f.special_points().discontinuities
    marks = set(map(_pair, jumps))
    if [(p, q) for p, q, _ in index].count(_pair(w)) != 1 or any(
            (p, q, not plus) in index for p, q, plus in index
            if (p, q) in marks):
        return None
    cycle = [_germ(key) for key in index]
    sides = dict.fromkeys(jumps, MINUS)
    sides.update((g.point, g.side) for g in cycle if g.point in sides)
    return PeriodicOrbit(tuple(g.point for g in cycle), len(cycle),
                         VariantSelector.from_dict(sides),
                         kind=HALF_POINT, anchor_side=side)
