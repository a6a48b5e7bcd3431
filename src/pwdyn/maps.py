"""Exact piecewise-affine self-maps of a rational interval.

Every answer is an exact `fractions.Fraction`, so evaluation, lateral
limits, preimages, composition, and powers are all exact.  Special points
(jumps and turns) are computed semantically from lateral limits and
monotone directions, never read off the stored breakpoint list: a
breakpoint whose sides agree in value and direction is representation
noise.

The map value at a jump is left undefined (`value` returns None there); at a
turn or a removable breakpoint it is the common lateral limit, and the
endpoint values are the inward limits.

A map stores one form, its segments: per open piece, in order, an int
tuple (x0, x1, y0, y1, (A, B, D)) of its ends and inward limits as
reduced (numerator, denominator) pairs and its value (A*p + B*q) / (D*q)
at p/q, reduced with D > 0.  Collinear neighbours are merged, so maps that
agree as functions have equal segments; `to_text` formats them, and the
Fraction `pieces` are made only for the public side pieces and plots.
Its integer step, memoized on it, reads the segments, and the one piece
kernel, `_push_segments`, pushes segments through a step for
compositions, powers and `orbits` sweeps.  Every point lookup finds its
piece with the one binary search, `_locate`: `value` and
`orbits.variant_step` take the image from `_image`; the germ step and the
one side locator, `PiecewiseMap._side` (so `lateral` and every slope or
direction read), take the segment on a side from `_branch`.  The one
root finder, `PiecewiseMap._roots`,
reads preimages off the step as reduced pairs: `preimage` makes a Fraction
per root, while the preimage levels and their union, the composition
sandwich and the power check stay on pairs.
Every map is merged and checked on one private path, `PiecewiseMap._init`:
the public constructor, `parse_map` and the random generator make each
piece's segment from reduced pairs with `_segment`, and a power or
composition hands over the kernel's.  A map caches all its derived data
(Fraction pieces, special points, the integer step, each power, whose
segments `orbits.periodic_points` reads, and each power's check) in one
memo, `PiecewiseMap._memo`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, NamedTuple, Optional, Sequence, Union

Side = Literal["minus", "plus"]
MINUS: Side = "minus"
PLUS: Side = "plus"

RationalLike = Union[Fraction, int, str]

# Fixed budgets: the one piece budget of every pushed segment list (read
# by `_push_segments` alone), and power's limit.
MAX_PIECES = 10**6
MAX_POWER = 12


class PwdynError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(PwdynError):
    """A fixed budget ran out; the query has no answer within it."""


class BugError(PwdynError):
    """A fact the theory guarantees failed: an implementation bug."""


class MapSyntaxError(PwdynError):
    """Malformed map text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MapInvariantError(BugError):
    """A structural invariant of a map (or of an exact operation) failed."""


class PieceLimitError(BudgetError):
    """A composition, power or sweep grew past MAX_PIECES pieces."""


class PowerLimitError(BudgetError):
    """A power exceeded the configured maximum."""


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _parse_pair(token: str, line: int, column: int) -> Pair:
    """`parse_rational`'s reduced pair; an error names line and column."""
    if not _RATIONAL_RE.fullmatch(token):
        raise MapSyntaxError(f"invalid rational {token!r}", line, column)
    num, _, den = token.partition("/")
    if den and not int(den):
        raise MapSyntaxError("zero denominator", line, column)
    return _reduced(int(num), int(den or 1))


def parse_rational(token: str) -> Fraction:
    """Parse `p`, `-p`, or `p/q` (q > 0) into an exact Fraction."""
    return Fraction(*_parse_pair(token, 0, 0))


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except MapSyntaxError:
            raise ValueError(f"invalid rational {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _plus(side: Side) -> bool:
    if side not in (MINUS, PLUS):
        raise ValueError(f"side must be {MINUS!r} or {PLUS!r}, not {side!r}")
    return side == PLUS


@dataclass(frozen=True)
class AffinePiece:
    """One open affine branch (left, right) -> slope*x + intercept."""

    left: Fraction
    right: Fraction
    slope: Fraction
    intercept: Fraction

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class SpecialPoints:
    """Semantic special points: jumps (discontinuities) and turns."""

    points: tuple[Fraction, ...]
    turning: tuple[Fraction, ...]
    discontinuities: tuple[Fraction, ...]


class PiecewiseMap:
    """An exact piecewise-affine self-map of [a, b].

    Instances are immutable after construction and safe to share; `_cache`
    holds only derived data, through `_memo`.  The one stored form is
    `_segs`, the merged int segments (see the module docstring), from which
    the integer step (`_table`), and so every value at a breakpoint or
    jump, and `preimage` are read.  The public constructor makes each
    piece's segment with `_segment`; a power or composition takes the
    kernel's.  The Fraction `pieces` are made on first use.
    """

    __slots__ = ("a", "b", "_segs", "_cache")

    def __init__(self, a: RationalLike, b: RationalLike,
                 pieces: Iterable[AffinePiece]):
        self._init(as_fraction(a), as_fraction(b), [
            _segment(*(_pair(as_fraction(v)) for v in (
                p.left, p.right, p.slope, p.intercept))) for p in pieces])

    def _init(self, a: Fraction, b: Fraction, segs: list[Segment]) -> None:
        """The one constructor path: merge, check and store the segments,
        each made by `_segment` or read off the kernel."""
        segs = _merge_collinear(segs)
        _validate(a, b, segs)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_segs", tuple(segs))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PiecewiseMap is immutable")

    def __eq__(self, other):
        return (isinstance(other, PiecewiseMap)
                and self.a == other.a and self.b == other.b
                and self._segs == other._segs)

    def __hash__(self):
        return hash((self.a, self.b, self._segs))

    def __repr__(self):
        return f"PiecewiseMap([{self.a}, {self.b}], {len(self._segs)} pieces)"

    @property
    def pieces(self) -> tuple[AffinePiece, ...]:
        """The open affine pieces, left to right, made on first use."""
        return self._memo(("pieces",), lambda: tuple(_affine(self._segs)))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior representation breakpoints, in increasing order."""
        return tuple(Fraction(*s[0]) for s in self._segs[1:])

    # -- lookup ------------------------------------------------------------

    def piece_right_of(self, p: Fraction) -> AffinePiece:
        """The piece covering (p, p + eps).  Requires p < b."""
        return self.pieces[self._side(p, True)]

    def piece_left_of(self, p: Fraction) -> AffinePiece:
        """The piece covering (p - eps, p).  Requires p > a."""
        return self.pieces[self._side(p, False)]

    def _side(self, p: Fraction, plus: bool) -> int:
        """The one side locator: the index in `_segs` of the piece covering
        (p, p + eps), or with plus false (p - eps, p)."""
        if not (self.a <= p < self.b if plus else self.a < p <= self.b):
            raise ValueError(f"no {'right' if plus else 'left'}-hand branch "
                             f"at {p}")
        return _branch(_table(self), *_pair(p), plus)

    # -- core operations ----------------------------------------------------

    def lateral(self, p: RationalLike, side: Side) -> Fraction:
        """Exact one-sided limit at p from the given side."""
        p = as_fraction(p)
        c = self._segs[self._side(p, _plus(side))][4]
        return Fraction(*_apply(c, *_pair(p)))

    def value(self, x: RationalLike) -> Optional[Fraction]:
        """Map value at x, or None at a discontinuity point.

        At a breakpoint with matching lateral limits (turn or removable
        break) the common limit is returned; the endpoints take the inward
        limits.
        """
        v = _image(_table(self), *_pair(as_fraction(x)), None)
        return None if v is None else Fraction(*v)

    def special_points(self) -> SpecialPoints:
        """Jumps and turns, derived from lateral limits (memoized)."""
        def build():
            points, turning, jumps = [], [], []
            for prev, nxt in zip(self._segs, self._segs[1:]):
                jump = prev[3] != nxt[2]  # breakpoints come in order
                if jump or (prev[4][0] > 0) != (nxt[4][0] > 0):
                    points.append(w := Fraction(*prev[1]))
                    (jumps if jump else turning).append(w)
            return SpecialPoints(*map(tuple, (points, turning, jumps)))

        return self._memo(("special",), build)

    def preimage(self, y: RationalLike) -> tuple[Fraction, ...]:
        """All x in [a, b] with a defined value equal to y, sorted.

        Points where the map is undefined (jumps) are never included.
        """
        return tuple(Fraction(*x) for x in self._roots(*_pair(as_fraction(y))))

    def _roots(self, p: int, q: int) -> list[Pair]:
        """`preimage` of p/q (q > 0) as reduced pairs: the bounds where the
        map takes that value, and a root in each piece straddling it."""
        t, found = _table(self), []
        for v, (w, _, v0, v1, c) in zip(t.values, self._segs):
            if v == (p, q):
                found.append(w)
            if (p * v0[1] - v0[0] * q) * (p * v1[1] - v1[0] * q) < 0:
                found.append(_solve(c, p, q))
        if t.values[-1] == (p, q):
            found.append(t.cuts[-1])
        return found

    def power(self, n: int, *, check: bool = True) -> "PiecewiseMap":
        """Exact n-th iterate, n <= MAX_POWER, by composition (memoized).

        Each power k is memoized as the map alone by `_power`, the one
        power helper, which pushes it from the power before; a build past
        MAX_PIECES raises PieceLimitError and caches nothing.  Its
        special-point check is a memo entry of its own, built on the first
        check=True request however the power was made (a check=False call,
        or `orbits.periodic_points` reading `_power(n)` unchecked); a failed
        check caches nothing, so it raises on every later request."""
        if n < 1:
            raise ValueError("power requires n >= 1")
        if n > MAX_POWER:
            raise PowerLimitError(f"power {n} exceeds limit {MAX_POWER}")

        def checked(k):
            power = self._power(k)
            _check_sandwich(self, self._power(k - 1), power)
            if not set(map(_pair, power.special_points().points)) \
                    <= self._special_union(k).keys():
                raise MapInvariantError("special points of a power escaped "
                                        f"the iterated preimage set at n={k}")

        if check:
            for k in range(2, n + 1):
                self._memo(("power_check", k), lambda: checked(k))
        return self._power(n)

    def _power(self, k: int) -> "PiecewiseMap":
        """The k-th power, unchecked: the map itself at k = 1, else pushed
        from the segments of the power before on first use."""
        if k == 1:
            return self
        return self._memo(("power", k), lambda: _from_segments(
            self.a, self.b, _push_segments(_table(self),
                                           self._power(k - 1)._segs)))

    def special_preimage_set(self, n: int) -> tuple[Fraction, ...]:
        """Points whose first n-1 iterates (or the point itself) hit a
        special point: the union of iterated preimages of the special set."""
        return tuple(self._special_union(n).values())

    def _special_union(self, n: int) -> dict[Pair, Fraction]:
        """`special_preimage_set(n)` keyed by reduced pairs, in order."""
        if n < 1:
            raise ValueError("requires n >= 1")
        # step k keeps level k, the pairs whose (k-1)-th iterate is
        # special, and the union of levels 1..k, each point's Fraction made
        # once per map, sorted on p * m // q: distinct points differ by >= 1/m
        union = {_pair(x): x for x in self.special_points().points}
        level = frozenset(union)

        def step():
            pulled = frozenset(x for y in level for x in self._roots(*y))
            pts = pulled.union(union)
            m = max((q for _, q in pts), default=1) ** 2
            return pulled, {x: union[x] if x in union else Fraction(*x)
                            for x in sorted(pts, key=lambda x: x[0] * m // x[1])}

        for k in range(2, n + 1):
            level, union = self._memo(("msets", k), step)
        return union

    def _memo(self, key, build):
        """Derived data of this map, built by `build()` on first use and
        shared by every later caller.  The key names the kind of data and
        every argument, caps included, that can change it, so no answer
        depends on call order; a build that raises caches nothing."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def to_text(self) -> str:
        def text(n, d):  # n/d (d > 0) as its Fraction's `str` writes it
            n, d = _reduced(n, d)
            return str(n) if d == 1 else f"{n}/{d}"

        return "".join([f"interval {self.a} {self.b}\n"] + [
            f"piece {text(*x0)} {text(*x1)} : slope {text(a, d)} intercept "
            f"{text(b, d)}\n" for x0, x1, _, _, (a, b, d) in self._segs])


def _merge_collinear(segments: list[Segment]) -> list[Segment]:
    """Abutting neighbours on one line merged, keeping the outer end
    values."""
    out = segments[:1]
    for s in segments[1:]:
        last = out[-1]
        if last[4] == s[4] and last[1] == s[0]:
            out[-1] = (last[0], s[1], last[2], s[3], s[4])
        else:
            out.append(s)
    return out


def _validate(a: Fraction, b: Fraction, segs: Sequence[Segment]) -> None:
    """Check the map invariants on its int segments."""
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    if an * bd >= bn * ad:
        raise MapInvariantError(f"empty interval: {a} >= {b}")
    if not segs:
        raise MapInvariantError("map needs at least one piece")
    if segs[0][0] != (an, ad) or segs[-1][1] != (bn, bd):
        raise MapInvariantError("pieces do not cover the interval")

    def piece(s):  # a message's Fractions are made only when it is raised
        return f"({Fraction(*s[0])}, {Fraction(*s[1])})"

    for s in segs:
        (ln, ld), (rn, rd), (n0, d0), (n1, d1), c = s
        if ln * rd >= rn * ld:
            raise MapInvariantError(f"empty piece {piece(s)}")
        if c[0] == 0:
            raise MapInvariantError(f"zero slope on {piece(s)}")
        if not (an * d0 <= n0 * ad and n0 * bd <= bn * d0
                and an * d1 <= n1 * ad and n1 * bd <= bn * d1):
            raise MapInvariantError(f"image of {piece(s)} escapes [{a}, {b}]")
    for (_, x, *_), (w, *_) in zip(segs, segs[1:]):
        if x != w:
            raise MapInvariantError(
                f"pieces do not abut at {Fraction(*x)} vs {Fraction(*w)}")


# -- map file format --------------------------------------------------------

def parse_map(text: str) -> PiecewiseMap:
    """Parse the line-oriented map format.

    Format: optional '#' comments; a header `interval <rat> <rat>`; then one
    `piece <rat> <rat> : slope <rat> intercept <rat>` line per piece, listed
    left to right.
    """
    header: Optional[tuple[Pair, Pair]] = None
    segs: list[Segment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        col, end = [], 0  # 1-based token columns, each searched past the last
        for tok in tokens:
            end = line.index(tok, end) + len(tok)
            col.append(end - len(tok) + 1)
        if header is None:
            if tokens[0] != "interval":
                raise MapSyntaxError("expected 'interval' header", lineno,
                                     col[0])
            if len(tokens) != 3:
                raise MapSyntaxError("header needs two rationals", lineno, 1)
            header = (_parse_pair(tokens[1], lineno, col[1]),
                      _parse_pair(tokens[2], lineno, col[2]))
            continue
        if tokens[0] != "piece":
            raise MapSyntaxError(f"expected 'piece', got {tokens[0]!r}",
                                 lineno, col[0])
        if len(tokens) != 8 or tokens[3] != ":" or tokens[4] != "slope" \
                or tokens[6] != "intercept":
            raise MapSyntaxError(
                "expected 'piece <rat> <rat> : slope <rat> intercept <rat>'",
                lineno, 1)
        segs.append(_segment(*(_parse_pair(tokens[i], lineno, col[i])
                               for i in (1, 2, 5, 7))))
    if header is None:
        raise MapSyntaxError("missing 'interval' header", 1, 1)
    if not segs:
        raise MapSyntaxError("no pieces", 1, 1)
    return _from_segments(Fraction(*header[0]), Fraction(*header[1]), segs)


def compose(outer: PiecewiseMap, inner: PiecewiseMap, *,
            check: bool = True) -> PiecewiseMap:
    """Exact outer(inner(x)), normalized, of at most MAX_PIECES pieces.

    A point where `inner` jumps, or lands on a jump of `outer`, stays
    undefined in the result only if the result's own lateral limits differ
    there; otherwise the composition is continuous at that point and takes
    the common limit.
    """
    if (outer.a, outer.b) != (inner.a, inner.b):
        raise ValueError("composition requires maps on the same interval")
    result = _from_segments(outer.a, outer.b, _push_segments(
        _table(outer), inner._segs))
    if check:
        _check_sandwich(outer, inner, result)
    return result


def _sandwich_bounds(outer: PiecewiseMap, inner: PiecewiseMap
                     ) -> tuple[set[Pair], set[Pair]]:
    """Exact bounds (lower, upper) on the pairs of the special points of
    outer(inner(x)): the turns of the inner map plus pullbacks of the outer
    special set below, the full inner special set plus pullbacks above.

    The lower bound is clipped to the open interval: a pulled-back domain
    endpoint marks a one-sided extremum at the boundary, which is not a
    turning point (special points are interior by definition).
    """
    pulled = {x for w in outer.special_points().points
              for x in inner._roots(*_pair(w))}
    special = inner.special_points()
    return (pulled.union(map(_pair, special.turning))
            - {_pair(inner.a), _pair(inner.b)},
            pulled.union(map(_pair, special.points)))


def _check_sandwich(outer: PiecewiseMap, inner: PiecewiseMap,
                    result: PiecewiseMap) -> None:
    """Internal consistency: the special points of a composition lie
    between their exact `_sandwich_bounds`."""
    lower, upper = _sandwich_bounds(outer, inner)
    if not lower <= set(map(_pair, result.special_points().points)) <= upper:
        raise MapInvariantError(
            "special points of the composition escaped their exact bounds")


# -- the integer step and the one piece kernel --------------------------------

Pair = tuple[int, int]
Coef = tuple[int, int, int]
# (x0, x1, y0, y1, (A, B, D)): the value (A*p + B*q) / (D*q) at p/q on the
# open interval (x0, x1), with its inward limits y0, y1 at the two ends
Segment = tuple[Pair, Pair, Pair, Pair, Coef]


def _pair(x: Fraction) -> Pair:
    return x.numerator, x.denominator


def _reduced(n: int, d: int) -> Pair:
    """n/d (d > 0) as a reduced pair."""
    g = gcd(n, d)
    return n // g, d // g


def _segment(x0: Pair, x1: Pair, s: Pair, c: Pair) -> Segment:
    """The segment of s*x + c on (x0, x1), all reduced pairs: its (A, B, D)
    over the least common D > 0, and its end values, c at a zero slope."""
    d = lcm(s[1], c[1])
    coef = (s[0] * (d // s[1]), c[0] * (d // c[1]), d)
    if not s[0]:
        return x0, x1, c, c, coef
    return x0, x1, _apply(coef, *x0), _apply(coef, *x1), coef


class _Table(NamedTuple):
    """A map's integer step: f(p/q) = (alpha*p + beta*q) / (delta*q) on
    each open piece, and the map's values at the bounds between them."""

    cuts: tuple[Pair, ...]             # a, the breakpoints, b
    values: tuple[Optional[Pair], ...]  # f at each bound, None at a jump
    sides: dict[Pair, tuple[Pair, Pair]]  # (f(w-), f(w+)) at each jump w
    coefs: tuple[Coef, ...]            # (alpha, beta, delta) per piece


def _table_of(segs: Sequence[Segment]) -> _Table:
    """The integer step of a run of abutting segments on their span."""
    cuts = (*(s[0] for s in segs), segs[-1][1])
    # the left and right limits at each bound, the inward ones at the ends
    lefts = (segs[0][2], *(s[3] for s in segs))
    rights = (*(s[2] for s in segs), segs[-1][3])
    return _Table(cuts, tuple(v if v == w else None
                              for v, w in zip(lefts, rights)),
                  {x: (v, w) for x, v, w in zip(cuts, lefts, rights)
                   if v != w},
                  tuple(s[4] for s in segs))


def _table(f: PiecewiseMap) -> _Table:
    """The integer step of f, read off its segments on first use and
    memoized on f."""
    return f._memo(("int_step",), lambda: _table_of(f._segs))


def _locate(cuts: tuple[Pair, ...], p: int, q: int) -> int:
    """The number of bounds at or below p/q, by cross-multiplication."""
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        n, d = cuts[mid]
        if p * d < n * q:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _apply(piece: Coef, p: int, q: int) -> Pair:
    """The piece's affine value at the reduced p/q, as a reduced pair."""
    alpha, beta, delta = piece
    num, den = alpha * p + beta * q, delta * q
    # gcd(num, q) = gcd(alpha*p, q) = gcd(alpha, q) since p/q is reduced,
    # so gcd(num, den) divides the small m, and two divisions find it
    m = delta * gcd(alpha, q % alpha)
    g = gcd(m, num % m)
    return (num // g, den // g) if g != 1 else (num, den)


def _image(t: _Table, p: int, q: int, sel) -> Optional[Pair]:
    """f(p/q) as a reduced pair, f given by its integer step t: at a jump
    the side that `sel` (an `orbits.VariantSelector`, or anything with its
    `side_at`) picks there, or None without one."""
    return _image_at(t, _locate(t.cuts, p, q), p, q, sel)


def _image_at(t: _Table, lo: int, p: int, q: int, sel) -> Optional[Pair]:
    """`_image` given lo = _locate(t.cuts, p, q), which `walk` keeps."""
    cuts = t.cuts
    if lo and cuts[lo - 1] == (p, q):
        v = t.values[lo - 1]
        if v is None and sel is not None:
            v = t.sides[p, q][sel.side_at(Fraction(p, q)) == PLUS]
        return v
    if lo == 0 or lo == len(cuts):
        raise ValueError(f"{Fraction(p, q)} outside "
                         f"[{Fraction(*cuts[0])}, {Fraction(*cuts[-1])}]")
    return _apply(t.coefs[lo - 1], p, q)


def _branch(t: _Table, p: int, q: int, plus: bool) -> int:
    """The index of the piece to the right of p/q, or with plus false the
    one to its left, so at a cut the piece ending there."""
    cuts = t.cuts
    i = _locate(cuts, p, q) - 1
    if not plus and cuts[i] == (p, q):
        i -= 1
    return i


def _magnitude(c: Coef) -> Fraction:
    """The slope magnitude |A| / D of the segment (A, B, D)."""
    return Fraction(abs(c[0]), c[2])


def _solve(c: Coef, p: int, q: int) -> Pair:
    """The x where the segment (A, B, D) takes the value p/q (q > 0), as a
    reduced pair."""
    a, b, d = c
    num, den = d * p - b * q, a * q
    g = gcd(num, den) if a > 0 else -gcd(num, den)
    return num // g, den // g


def _push_segments(t: _Table, segments: Iterable[Segment]) -> list[Segment]:
    """The one piece kernel: the segments of f, given by its integer step
    t, after the ordered segments given.  Each is split at the preimages of
    the cuts strictly inside its image, f's limits there read off t, and
    each part is composed with the piece of f covering it.  Each segment
    keeps its own end values, so the list may jump.  Raises PieceLimitError
    right after the segment whose parts pass MAX_PIECES segments, read at
    the call."""
    cuts, values, sides, pieces = t
    out: list[Segment] = []
    for x0, x1, y0, y1, c in segments:
        a, b, d = c
        low, high = (y0, y1) if a > 0 else (y1, y0)
        # pieces i-1 .. j-1 cover the image: i bounds lie at or below its
        # low end and j strictly below its high end
        i = _locate(cuts, *low)
        j = _locate(cuts, *high)
        if cuts[j - 1] == high:
            j -= 1
        ks = range(i - 1, j) if a > 0 else range(j - 1, i - 2, -1)
        x, y = x0, _apply(pieces[ks[0]], *y0)
        for k, n in zip(ks, [*ks[1:], None]):
            if n is None:
                xn, end, start = x1, _apply(pieces[k], *y1), None
            else:
                # pieces k and n meet at cut w, where f's two limits are
                # met in the order of the segment's direction
                w = cuts[max(k, n)]
                xn, end = _solve(c, *w), values[max(k, n)]
                start = end
                if end is None:
                    end, start = sides[w] if a > 0 else sides[w][::-1]
            alpha, beta, delta = pieces[k]
            e = (alpha * a, alpha * b + beta * d, delta * d)
            g = gcd(*e)
            out.append((x, xn, y, end,
                        (e[0] // g, e[1] // g, e[2] // g) if g != 1 else e))
            x, y = xn, start
        if len(out) > MAX_PIECES:
            raise PieceLimitError(f"composition exceeds {MAX_PIECES} pieces")
    return out


def _affine(segments: Sequence[Segment]) -> list[AffinePiece]:
    """Abutting segments as AffinePieces, one Fraction made per end."""
    ends = [Fraction(*s[0]) for s in segments]
    ends.append(Fraction(*segments[-1][1]))
    return [AffinePiece(left, right, Fraction(a, d), Fraction(b, d))
            for left, right, (*_, (a, b, d)) in zip(ends, ends[1:], segments)]


def _from_segments(a: Fraction, b: Fraction, segments: list[Segment]
                   ) -> PiecewiseMap:
    """The map on [a, b] with the given abutting segments, merged through
    the one constructor path, their end values the kernel's own."""
    f = object.__new__(PiecewiseMap)
    f._init(a, b, segments)
    return f
