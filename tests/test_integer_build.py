"""Maps are built straight into their int segments: the public constructor,
`parse_map` and the random generator (`harness._try_build`) make each
segment from reduced pairs with `maps._segment`, and `to_text` formats the
segments.  The Fraction builds they replaced are kept here as the
reference, and each integer build is compared with its reference: the same
maps, the same text byte for byte, the same errors, and for the generator
the same calls on the seeded stream."""

import random
import re
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest

from pwdyn import harness
from pwdyn.harness import (GENERATION_ATTEMPTS, PALETTES, GeneratorConfig,
                           GenerationError, random_map)
from pwdyn.maps import (AffinePiece, MapInvariantError, MapSyntaxError,
                        PiecewiseMap, PwdynError, _from_segments, _pair,
                        as_fraction, parse_map)
from pwdyn.pinned import PINNED_NAMES, pinned_map, pinned_text
from test_maps import _mutate


# -- the Fraction builds, as they were ---------------------------------------

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _ref_parse_rational(token, line, column):
    if not _RATIONAL_RE.fullmatch(token):
        raise MapSyntaxError(f"invalid rational {token!r}", line, column)
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise MapSyntaxError("zero denominator", line, column)
        return F(int(num), int(den))
    return F(int(token))


def _ref_coef(s, c):
    d = lcm(s.denominator, c.denominator)
    return (s.numerator * (d // s.denominator),
            c.numerator * (d // c.denominator), d)


def _ref_build(a, b, pieces):
    """The public constructor as it was: each end value evaluated in
    Fraction arithmetic."""
    a, b = as_fraction(a), as_fraction(b)
    segs = []
    for p in pieces:
        x0, x1, s, c = map(as_fraction, (p.left, p.right, p.slope,
                                         p.intercept))
        segs.append((_pair(x0), _pair(x1), _pair(s * x0 + c),
                     _pair(s * x1 + c), _ref_coef(s, c)))
    if a >= b:
        raise MapInvariantError(f"empty interval: {a} >= {b}")
    if not segs:
        raise MapInvariantError("map needs at least one piece")
    return _from_segments(a, b, segs)


def _ref_parse_map(text):
    header = None
    pieces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        col, end = [], 0
        for tok in tokens:
            end = line.index(tok, end) + len(tok)
            col.append(end - len(tok) + 1)
        if header is None:
            if tokens[0] != "interval":
                raise MapSyntaxError("expected 'interval' header", lineno,
                                     col[0])
            if len(tokens) != 3:
                raise MapSyntaxError("header needs two rationals", lineno, 1)
            header = (_ref_parse_rational(tokens[1], lineno, col[1]),
                      _ref_parse_rational(tokens[2], lineno, col[2]))
            continue
        if tokens[0] != "piece":
            raise MapSyntaxError(f"expected 'piece', got {tokens[0]!r}",
                                 lineno, col[0])
        if len(tokens) != 8 or tokens[3] != ":" or tokens[4] != "slope" \
                or tokens[6] != "intercept":
            raise MapSyntaxError(
                "expected 'piece <rat> <rat> : slope <rat> intercept <rat>'",
                lineno, 1)
        vals = [_ref_parse_rational(tokens[i], lineno, col[i])
                for i in (1, 2, 5, 7)]
        pieces.append(AffinePiece(*vals))
    if header is None:
        raise MapSyntaxError("missing 'interval' header", 1, 1)
    if not pieces:
        raise MapSyntaxError("no pieces", 1, 1)
    return _ref_build(header[0], header[1], pieces)


def _ref_to_text(f):
    lines = [f"interval {f.a} {f.b}"]
    for p in f.pieces:
        lines.append(f"piece {p.left} {p.right} : "
                     f"slope {p.slope} intercept {p.intercept}")
    return "\n".join(lines) + "\n"


def _ref_try_build(rng, cfg, palette):
    """The generator's draw as it was, in Fraction arithmetic."""
    qb = cfg.denominator_bound
    npieces = rng.randint(1, max(1, cfg.max_pieces))
    npieces = min(npieces, qb - 1) or 1
    grid = [F(i, qb) for i in range(1, qb)]
    cuts = sorted(rng.sample(grid, npieces - 1)) if npieces > 1 else []
    bounds = [F(0)] + cuts + [F(1)]
    fine = 2 * qb * qb
    pieces = []
    prev_value = None
    prev_slope = None
    for left, right in zip(bounds, bounds[1:]):
        piece = None
        for _ in range(16):
            slope = rng.choice(palette)
            span = abs(slope) * (right - left)
            if span > 1:
                continue
            lo = max(F(0), -slope * (right - left))
            hi = min(F(1), 1 - slope * (right - left))
            if lo > hi:
                continue
            jump = (prev_value is not None
                    and rng.random() < cfg.discontinuity_bias)
            if prev_value is not None and not jump:
                if slope == prev_slope:
                    continue
                v_left = prev_value
                if not lo <= v_left <= hi:
                    continue
            else:
                v_left = lo + (hi - lo) * F(rng.randint(0, fine), fine)
                if jump and v_left == prev_value:
                    shifted = [lo + (hi - lo) * F(k, 8) for k in range(9)]
                    alts = [v for v in shifted if v != prev_value]
                    if not alts:
                        continue
                    v_left = rng.choice(alts)
            piece = AffinePiece(left, right, slope, v_left - slope * left)
            break
        if piece is None:
            return None
        pieces.append(piece)
        prev_value = piece.value_at(right)
        prev_slope = piece.slope
    try:
        return _ref_build(F(0), F(1), pieces)
    except MapInvariantError:
        return None


# -- the generator ------------------------------------------------------------

def _configs():
    for palette in PALETTES:
        for max_pieces in range(1, 7):
            for bound in (1, 2, 3, 8, 12, 16, 32):
                for bias in (0, 0.5, 1):
                    for seed in range(4):
                        yield GeneratorConfig(
                            seed=seed * 101 + max_pieces,
                            max_pieces=max_pieces, denominator_bound=bound,
                            discontinuity_bias=bias, slope_palette=palette)


def test_the_integer_draw_equals_the_fraction_draw():
    """On 2016 configs (every palette, max_pieces 1-6, seven denominator
    bounds, biases 0, 0.5 and 1), `_try_build` and its Fraction reference,
    each on its own stream from the same seed, give the same None or the
    same map, attempt by attempt as `random_map` makes them: equal
    segments, equal text, and an equal next `random()`, so each consumed
    the same draws.  `random_map` returns that map, or raises
    GenerationError where every attempt was None."""
    seen = Counter()
    for cfg in _configs():
        seen["configs"] += 1
        new_rng, ref_rng = random.Random(cfg.seed), random.Random(cfg.seed)
        pairs = [_pair(s) for s in PALETTES[cfg.slope_palette]]
        for _ in range(GENERATION_ATTEMPTS):
            f = harness._try_build(new_rng, cfg, pairs)
            ref = _ref_try_build(ref_rng, cfg, PALETTES[cfg.slope_palette])
            assert (f is None) == (ref is None), cfg
            assert new_rng.getstate() == ref_rng.getstate(), cfg
            if f is not None:
                break
            seen["rejected draws"] += 1
        if f is None:
            with pytest.raises(GenerationError):
                random_map(cfg)
            seen["no map"] += 1
            continue
        assert f._segs == ref._segs, cfg
        assert f.to_text() == _ref_to_text(ref), cfg
        assert random_map(cfg) == f, cfg
        assert new_rng.random() == ref_rng.random(), cfg
        seen["jumps" if f.special_points().discontinuities else "continuous"] \
            += 1
    assert seen["configs"] >= 2000, seen
    assert seen["rejected draws"] > 20 and seen["jumps"] > 500 \
        and seen["continuous"] > 500, seen


def _fractions_made(monkeypatch, build, args):
    """The Fractions made while `build(*args)` runs, and its result."""
    made = [0]
    real = F.__new__

    def counting(cls, *a, **k):
        made[0] += 1
        return real(cls, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting))
        out = build(*args)
    return made[0], out


def test_the_generator_makes_no_fraction_but_the_interval_ends(monkeypatch):
    """A draw is all ints: `_try_build` makes the two Fraction ends of
    [0, 1] when it builds a map and no other Fraction; the spy is live,
    since the Fraction reference makes many more."""
    made = Counter()
    for cfg in list(_configs())[::40]:
        new_rng, ref_rng = random.Random(cfg.seed), random.Random(cfg.seed)
        pairs = [_pair(s) for s in PALETTES[cfg.slope_palette]]
        count, f = _fractions_made(monkeypatch, harness._try_build,
                                   (new_rng, cfg, pairs))
        assert count == (0 if f is None else 2), cfg
        made["new"] += count
        made["ref"] += _fractions_made(monkeypatch, _ref_try_build, (
            ref_rng, cfg, PALETTES[cfg.slope_palette]))[0]
    assert made["ref"] > 10 * made["new"] > 0, made


# -- the parser and the constructor -------------------------------------------

def _mirror_text(f):
    m = f.a + f.b
    return _ref_to_text(_ref_build(f.a, f.b, [
        AffinePiece(m - p.right, m - p.left, p.slope,
                    m * (1 - p.slope) - p.intercept)
        for p in reversed(f.pieces)]))


def _conjugate_text(f):
    """f moved onto [-3/7, 5/2] by h(x) = a + (b - a) x."""
    a, b = F(-3, 7), F(5, 2)
    return _ref_to_text(_ref_build(a, b, [
        AffinePiece(a + (b - a) * p.left, a + (b - a) * p.right, p.slope,
                    a * (1 - p.slope) + (b - a) * p.intercept)
        for p in f.pieces]))


MALFORMED = [
    "interval 0 1\npiece 0 1 : slope 1.5 intercept 0\n",
    "interval 0 1\npiece 0 1/2 : slope 1/ intercept 0\n",
    "interval 0 x\npiece 0 1 : slope 1 intercept 0\n",
    "interval 0 1\npiece 0 1 : slope 1/0 intercept 0\n",
    "interval 0/0 1\npiece 0 1 : slope 1 intercept 0\n",
    "piece 0 1 : slope 1 intercept 0\n",
    "",
    "# only a comment\n",
    "interval 0\npiece 0 1 : slope 1 intercept 0\n",
    "interval 0 1\nbit 0 1 : slope 1 intercept 0\n",
    "interval 0 1\npiece 0 1 slope 1 intercept 0\n",
    "interval 1 0\npiece 1 0 : slope 1 intercept 0\n",
    "interval 1 1\n",
    "interval 0 1\n",
    "interval 0 1\npiece 0 1 : slope 0 intercept 1/2\n",
    "interval 0 1\npiece 0 1 : slope -0/3 intercept 1/2\n",
    "interval 0 1\npiece 0 1/2 : slope 1 intercept 0\n"
    "piece 1/3 1 : slope 1 intercept 0\n",
    "interval 0 1\npiece 0 1/2 : slope 1 intercept 0\n"
    "piece 1/2 1/2 : slope 2 intercept 0\npiece 1/2 1 : slope 1 intercept 0\n",
    "interval 0 1\npiece 0 1 : slope 2 intercept 0\n",
    "interval 0 1\npiece 0 1 : slope -1 intercept 1/2\n",
    "interval 0 1\npiece 1/2 1 : slope 1 intercept 0\n",
]

NOT_REDUCED = [
    "interval 0/3 2/2\npiece -0/3 2/4 : slope 2/2 intercept -0\n"
    "piece 4/8 3/3 : slope -4/2 intercept 6/3\n",
    "interval -0 4/4\npiece 0/5 6/12 : slope 3/6 intercept 0/1\n"
    "piece 2/4 1 : slope -2/4 intercept 3/4\n",
]


def _outcome(build, *args):
    """A built map with its text, or the error's class, message and place."""
    try:
        f = build(*args)
    except PwdynError as err:
        return (type(err).__name__, str(err), getattr(err, "line", None),
                getattr(err, "column", None))
    except ValueError as err:
        return ("ValueError", str(err))
    return f


def _texts():
    rng = random.Random(38)
    for name in PINNED_NAMES:
        f = pinned_map(name)
        yield pinned_text(name)
        yield _mirror_text(f)
        yield _conjugate_text(f)
        for _ in range(10):
            yield _mutate(pinned_text(name), rng)
    for i in range(60):
        yield random_map(GeneratorConfig(seed=38, max_pieces=6).sub(
            "parse", i)).to_text()
    yield from NOT_REDUCED
    yield from MALFORMED


def test_the_pair_parser_equals_the_fraction_parser():
    """`parse_map`, which parses each token once into a reduced pair, and
    its Fraction reference give equal maps and byte-equal texts on the
    pinned texts, their mirrors and conjugates on [-3/7, 5/2], generated
    texts, texts with non-reduced tokens and mutated texts; on malformed
    text, the same error class, message, line and column."""
    seen = Counter()
    for text in _texts():
        got, want = _outcome(parse_map, text), _outcome(_ref_parse_map, text)
        if isinstance(want, PiecewiseMap):
            assert isinstance(got, PiecewiseMap) and got == want, text
            assert got.to_text() == _ref_to_text(want), text
            seen[(want.a, want.b)] += 1
        else:
            assert got == want, text
            seen[want[0]] += 1
    assert seen[(F(0), F(1))] > 100 and seen[(F(-3, 7), F(5, 2))] == 9, seen
    assert seen["MapSyntaxError"] > 20 and seen["MapInvariantError"] > 20, \
        seen


def test_the_constructor_equals_the_fraction_constructor():
    """The public constructor, which makes each segment with `_segment`,
    and its Fraction reference give equal maps, or the same error and
    message, on the pieces of every text above and on pieces that break
    an invariant, in any of the accepted spellings (Fraction, int, str)."""
    cases = []
    for text in _texts():
        f = _outcome(_ref_parse_map, text)
        if isinstance(f, PiecewiseMap):
            cases.append((f.a, f.b, f.pieces))
            cases.append((str(f.a), str(f.b), [AffinePiece(
                str(p.left), str(p.right), str(p.slope), str(p.intercept))
                for p in f.pieces]))
    half = F(1, 2)
    cases += [
        (1, 0, []), (1, 1, [AffinePiece(1, 1, 1, 0)]), (0, 1, []),
        (0, 1, [AffinePiece(0, 1, 0, half)]),
        (0, 1, [AffinePiece(0, half, 1, 0), AffinePiece(F(1, 3), 1, 1, 0)]),
        (0, 1, [AffinePiece(0, 1, 2, 0)]),
        (0, 1, [AffinePiece(half, 1, 1, 0)]),
        (0, 1, [AffinePiece(0, "1/2", "2/4", "-0/3"),
                AffinePiece("1/2", 1, "-2/4", "6/8")]),
        (0, 1, [AffinePiece(0, "1/0", 1, 0)]),
        ("x", 1, [AffinePiece(0, 1, 1, 0)]),
    ]
    for a, b, pieces in cases:
        got = _outcome(PiecewiseMap, a, b, pieces)
        want = _outcome(_ref_build, a, b, pieces)
        assert got == want, (a, b, pieces)
        if isinstance(want, PiecewiseMap):
            assert got.to_text() == _ref_to_text(want)


def test_to_text_writes_what_the_pieces_would():
    """`to_text`, formatted off the segments, writes each pinned map and
    its powers 2 to 4 as the Fraction pieces would."""
    for name in PINNED_NAMES:
        for n in range(1, 5):
            h = pinned_map(name).power(n)
            assert h.to_text() == _ref_to_text(h), (name, n)
