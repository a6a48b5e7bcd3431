"""The integer layer of `maps` against the Fraction code it replaced.

`maps._push_segments` builds compositions, powers, restricted powers and
segment sweeps.  `_push_through` below is the Fraction kernel that built
the first three, kept as the reference: every piece list, and every
PieceLimitError with its message, must be the same.  Powers and
compositions keep the kernel's end values through the one constructor
path, `PiecewiseMap._init`; `_ref_ends` evaluates them as that path used
to, and `_ref_preimage` is the Fraction `preimage` the integer one
replaced.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from pwdyn import maps as maps_module
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import (AffinePiece, MapInvariantError,
                        PieceLimitError, PiecewiseMap, _affine,
                        _from_segments, _merge_collinear, _pair,
                        _push_segments, _table, compose)
from pwdyn.orbits import segment_sweep
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import restrict_power
from test_orbits import _mirror, _outcome

# -- the Fraction kernel, the reference ---------------------------------------


def solve_piece(piece, y):
    """The x where the affine piece takes the value y."""
    return (y - piece.intercept) / piece.slope


def _push_through(f, pieces):
    """The ordered affine pieces of f after the given ordered pieces: each
    is split at the preimages of f's cuts inside its image, and each part is
    composed with the piece of f covering it.  Empty pieces vanish.  Past
    MAX_PIECES of `maps`, read at the call, it raises PieceLimitError."""
    limit = maps_module.MAX_PIECES
    fpieces = f.pieces
    lefts = [p.left for p in fpieces]
    out = []
    for piece in pieces:
        left, right = piece.left, piece.right
        s, c = piece.slope, piece.intercept
        if left >= right:
            continue
        y1, y2 = s * left + c, s * right + c
        # f's pieces k0..k1 cover the image, in the order the piece meets
        # them; adjacent ones j, k meet at the cut lefts[max(j, k)], which
        # is strictly inside the image, so every part is nonempty.
        k0 = bisect_right(lefts, min(y1, y2)) - 1
        k1 = bisect_left(lefts, max(y1, y2)) - 1
        ks = range(k0, k1 + 1) if s > 0 else range(k1, k0 - 1, -1)
        bounds = [left, *((lefts[max(j, k)] - c) / s
                          for j, k in zip(ks, ks[1:])), right]
        for p, q, k in zip(bounds, bounds[1:], ks):
            t = fpieces[k]
            out.append(AffinePiece(p, q, t.slope * s,
                                   t.slope * c + t.intercept))
        if len(out) > limit:
            raise PieceLimitError(f"composition exceeds {limit} pieces")
    return out


def _ref_restrict_power(f, lo, hi, m):
    """The m-th iterate on (lo, hi): the identity pushed m times."""
    segs = [AffinePiece(lo, hi, F(1), F(0))]
    for _ in range(m):
        segs = _push_through(f, segs)
    return segs


def _ref_powers(f, n):
    """Powers 2..n of f, each built from the one before."""
    current = f
    for _ in range(2, n + 1):
        current = PiecewiseMap(f.a, f.b, _push_through(f, current.pieces))
        yield current


def _ref_ends(f):
    """The end values of f's pieces, evaluated with `value_at`."""
    return tuple((p.value_at(p.left), p.value_at(p.right)) for p in f.pieces)


def _ref_preimage(f, y, ends):
    """All x in [a, b] with a defined value equal to y, sorted: y compared
    with the Fraction end values of each piece (`_ref_ends(f)`), roots
    solved in Fractions."""
    found = []
    last = ends[0][0]  # f(w-) at each left end w; f(a+) at a
    for piece, (v0, v1) in zip(f.pieces, ends):
        if v0 == y == last:
            found.append(piece.left)
        if v0 < y < v1 or v1 < y < v0:
            found.append(solve_piece(piece, y))
        last = v1
    if last == y:
        found.append(f.b)
    return tuple(found)


# -----------------------------------------------------------------------------


def _cold(f):
    """A new map equal to f, with empty memos."""
    return PiecewiseMap(f.a, f.b, f.pieces)


def _corpus_maps(count):
    """The pinned maps and `count` seeded generated maps (continuous and
    discontinuous), with their mirrors."""
    maps = list(pinned_maps().values())
    maps += list(_corpus(GeneratorConfig(seed=7, max_pieces=3), "kernel",
                         count))
    return maps + [_mirror(f) for f in maps]


def test_compose_matches_the_fraction_kernel():
    """Every ordered pair of pinned maps and 1500 seeded pairs: the raw
    pushed pieces equal the reference's, and so does the composition."""
    maps = _corpus_maps(60)
    pinned = list(pinned_maps().values())
    rng = random.Random(3)
    pairs = [(f, g) for f in pinned for g in pinned]
    pairs += [(rng.choice(maps), rng.choice(maps)) for _ in range(1500)]
    jumps = 0
    for f, g in pairs:
        ref = _push_through(f, g.pieces)
        assert _affine(_push_segments(_table(f), g._segs)) == ref
        got = compose(f, g)
        assert got.pieces == PiecewiseMap(f.a, f.b, ref).pieces
        assert compose(f, g, check=False) == got
        jumps += bool(got.special_points().discontinuities)
    assert jumps > 300


def test_power_matches_the_fraction_kernel():
    """Powers 2..8 of the pinned maps and 40 seeded maps with their
    mirrors, asked for with and without the checks, and with the checks
    after a build without them."""
    jumps = 0
    for f in _corpus_maps(40):
        refs = list(_ref_powers(f, 8))
        for n, ref in enumerate(refs, start=2):
            for first, then in ((True, True), (False, False),
                                (False, True)):
                g = _cold(f)
                g.power(n, check=first)
                assert g.power(n, check=then).pieces == ref.pieces, \
                    (f.to_text(), n)
            jumps += bool(ref.special_points().discontinuities)
    assert jumps > 200


def test_restrict_power_matches_the_fraction_kernel():
    """The iterates 0..4 on intervals between bounds, special points and
    random rationals, across jumps as well: the segments of the
    reference, piece for piece."""
    rng = random.Random(5)
    split = across = 0
    for f in _corpus_maps(40):
        marks = sorted({f.a, f.b, *f.breakpoints, *f.special_points().points,
                        *(F(rng.randrange(1, 64), 64) for _ in range(4))})
        for _ in range(6):
            lo, hi = sorted(rng.sample(marks, 2))
            for m in range(5):
                want = _ref_restrict_power(f, lo, hi, m)
                assert restrict_power(f, lo, hi, m) == want, \
                    (f.to_text(), lo, hi, m)
                split += len(want) > 1
                across += any(p.right == q.left and p.value_at(p.right)
                              != q.value_at(q.left)
                              for p, q in zip(want, want[1:]))
    assert split > 500 and across > 100


def test_a_jump_inside_a_restricted_power():
    """f^2 of `shift` on [1/4, 3/4] is the identity on (3/8, 5/8): the
    segment pushed past the jump at 1/2 starts from its own end value."""
    shift = pinned_maps()["shift"]
    want = [AffinePiece(F(1, 4), F(3, 8), F(1), F(1, 4)),
            AffinePiece(F(3, 8), F(1, 2), F(1), F(0)),
            AffinePiece(F(1, 2), F(5, 8), F(1), F(0)),
            AffinePiece(F(5, 8), F(3, 4), F(1), F(-1, 4))]
    assert _ref_restrict_power(shift, F(1, 4), F(3, 4), 2) == want
    assert restrict_power(shift, F(1, 4), F(3, 4), 2) == want
    u, v, segs = segment_sweep(shift, F(1, 4), F(3, 4), [None] * 3)
    assert (u, v, _affine(segs)) == (F(1, 4), F(3, 4), want)


def test_restrict_power_rejects_a_bad_interval(maps):
    tent = maps["tent"]
    for lo, hi in ((F(1, 2), F(3, 2)), (F(-1), F(1, 4)),
                   (F(3, 4), F(1, 4))):
        with pytest.raises(ValueError) as err:
            restrict_power(tent, lo, hi, 1)
        assert str(err.value) == f"[{lo}, {hi}] is not an interval in [0, 1]"


class _Counted:
    """An iterable of pieces that counts how many were taken."""

    def __init__(self, items):
        self.items, self.taken = items, 0

    def __iter__(self):
        for item in self.items:
            self.taken += 1
            yield item


def test_piece_limit_errors_at_the_same_guard(monkeypatch):
    """At every MAX_PIECES up to the raw piece count, the kernel stops
    after the same input piece as the reference, right after the one that
    crosses the budget, and raises the reference's PieceLimitError; so do
    compose, power on a fresh map, and a sweep (the restricted power on
    the whole interval)."""
    maps = [f for f in _corpus_maps(12) if len(f.pieces) > 1]
    raised = dict.fromkeys(["kernel", "power", "sweep"], 0)
    for f in maps:
        for n in (2, 3, 4):
            inner = f.power(n - 1, check=False)
            raw = len(_push_through(f, inner.pieces))
            for budget in range(1, raw + 2):
                with monkeypatch.context() as m:
                    m.setattr(maps_module, "MAX_PIECES", budget)
                    want = _outcome(_push_through, f, inner.pieces)
                    refs = _Counted(inner.pieces)
                    _outcome(_push_through, f, refs)
                    segs = _Counted(inner._segs)
                    got = _outcome(_push_segments, _table(f), segs)
                    assert segs.taken == refs.taken
                    composed = _outcome(compose, f, inner)
                    if isinstance(want, list):
                        want = PiecewiseMap(f.a, f.b, want)
                        got = _from_segments(f.a, f.b, got)
                    else:
                        raised["kernel"] += 1
                    assert got == want and composed == want
                    power = _outcome(lambda: list(_ref_powers(f, n))[-1])
                    assert _outcome(_cold(f).power, n) == power
                    raised["power"] += isinstance(power, str)
                    sweep = _outcome(_ref_restrict_power, f, f.a, f.b, n)
                    assert _outcome(restrict_power, f, f.a, f.b, n) == sweep
                    raised["sweep"] += isinstance(sweep, str)
    assert min(raised.values()) > 200, raised


def test_kernel_end_values_are_the_evaluated_ones():
    """Every power 2..8 and 600 seeded compositions keep the kernel's end
    values; they equal `value_at` at each piece's ends, as reduced pairs,
    and so does every parsed map's."""
    maps = _corpus_maps(40)
    rng = random.Random(11)
    results = [f.power(n, check=False) for f in maps for n in range(2, 9)]
    results += [compose(rng.choice(maps), rng.choice(maps))
                for _ in range(600)]
    for g in [*maps, *results]:
        assert tuple(s[2:4] for s in g._segs) == tuple(
            (_pair(v0), _pair(v1)) for v0, v1 in _ref_ends(g)), g.to_text()
    assert sum(len(g.pieces) for g in results) > 3000


def test_preimage_matches_the_fraction_reference():
    """Powers 1..8 of the pinned maps and 20 seeded maps with their
    mirrors, queried at every special point, every piece end value, both
    domain ends and seeded rationals inside and outside [a, b]."""
    rng = random.Random(13)
    checked = roots = 0
    for f in _corpus_maps(20):
        for n in range(1, 9):
            g = f.power(n, check=False)
            ends = _ref_ends(g)
            ys = {v for e in ends for v in e}
            ys |= {*g.special_points().points, g.a, g.b}
            ys |= {F(rng.randint(-8, 24), rng.randint(1, 16))
                   for _ in range(4)}
            for y in ys:
                want = _ref_preimage(g, y, ends)
                assert g.preimage(y) == want, (g.to_text(), y)
                checked += 1
                roots += len(want)
    assert checked > 7000 and roots > 150000


def _both_paths(segments):
    """The outcome of building a map on [0, 1] from the segments through
    the kernel's path and through the public constructor."""
    return (_outcome(_from_segments, F(0), F(1), _merge_collinear(segments)),
            _outcome(PiecewiseMap, F(0), F(1), _affine(segments)))


@pytest.mark.parametrize("segments, message", [
    # x -> 2x on (0, 1) reaches 2
    ([((0, 1), (1, 1), (0, 1), (2, 1), (2, 0, 1))],
     "image of (0, 1) escapes [0, 1]"),
    # the identity on (1/4, 1) leaves (0, 1/4) uncovered
    ([((1, 4), (1, 1), (1, 4), (1, 1), (1, 0, 1))],
     "pieces do not cover the interval"),
    # a constant piece
    ([((0, 1), (1, 1), (1, 2), (1, 2), (0, 1, 2))],
     "zero slope on (0, 1)"),
    # an empty piece at 1/2 between two halves of the identity
    ([((0, 1), (1, 2), (0, 1), (1, 2), (1, 0, 1)),
      ((1, 2), (1, 2), (1, 4), (1, 4), (-4, 3, 4)),
      ((1, 2), (1, 1), (1, 2), (1, 1), (1, 0, 1))],
     "empty piece (1/2, 1/2)"),
])
def test_the_kernel_path_raises_what_the_constructor_raises(segments,
                                                           message):
    want = f"MapInvariantError: {message}"
    assert _both_paths(segments) == (want, want)


def test_the_kernel_path_merges_collinear_parts_with_their_ends():
    """Two parts of the identity and a descending piece: the parts merge
    into one piece, which keeps the outer end values of the two."""
    segments = [((0, 1), (1, 4), (0, 1), (1, 4), (1, 0, 1)),
                ((1, 4), (1, 2), (1, 4), (1, 2), (1, 0, 1)),
                ((1, 2), (1, 1), (1, 1), (1, 2), (-2, 3, 2))]
    kernel, public = _both_paths(segments)
    assert kernel == public and len(kernel.pieces) == 2
    assert tuple(s[2:4] for s in kernel._segs) == (((0, 1), (1, 2)),
                                                   ((1, 1), (1, 2)))
