"""Preimage levels, the composition sandwich and the power check on pairs,
against the Fraction code they replaced.

`PiecewiseMap._roots` finds the roots of f(x) = p/q as reduced pairs.
`special_preimage_set` keeps its levels and running union as sets of
pairs and sorts the union on an exact integer key; `_sandwich_bounds`
returns pair sets, which `_check_sandwich`, the power check and the
harness's `composition_sandwich` property compare with the pairs of a
result's special points.  The Fraction `preimage`, `special_preimage_set`
and `_sandwich_bounds` below are the code they replaced, kept as the
reference: every root, every preimage union with its order, and every
pair of bounds must be the same.
"""

from fractions import Fraction as F

import pytest

from pwdyn import maps as maps_module
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import (MapInvariantError, _pair, _sandwich_bounds, _solve,
                        compose, parse_map)
from pwdyn.pinned import PINNED_NAMES, pinned_map, pinned_maps
from test_piece_kernel import _cold

# -- the Fraction preimage sets, the reference --------------------------------


def _ref_preimage(f, y):
    """The Fraction `preimage`: y compared with the end-value table by
    cross-multiplication, each root made a Fraction."""
    y = p, q = _pair(F(y))
    found = []
    last = f._segs[0][2]  # f(w-) at each left end w; f(a+) at a
    for piece, (_, _, v0, v1, c) in zip(f.pieces, f._segs):
        if v0 == y == last:
            found.append(piece.left)
        # a monotone piece hits y inside iff y - v0, y - v1 differ in sign
        if (p * v0[1] - v0[0] * q) * (p * v1[1] - v1[0] * q) < 0:
            found.append(F(*_solve(c, p, q)))
        last = v1
    if last == y:
        found.append(f.b)
    return tuple(found)


def _ref_special_preimage_set(f, n):
    """The Fraction union of levels 1..n, each level a frozenset of
    Fraction roots, each union sorted as Fractions."""
    level = union = f.special_points().points
    for _ in range(2, n + 1):
        level = frozenset(x for y in level for x in _ref_preimage(f, y))
        union = tuple(sorted(level.union(union)))
    return union


def _ref_sandwich_bounds(outer, inner):
    """The Fraction bounds (lower, upper) on the special points of
    outer(inner(x)), the lower one clipped to the open interval."""
    pulled = {x for w in outer.special_points().points
              for x in _ref_preimage(inner, w)}
    inner_special = inner.special_points()
    upper = set(inner_special.points) | pulled
    lower = {x for x in set(inner_special.turning) | pulled
             if inner.a < x < inner.b}
    return lower, upper


# -----------------------------------------------------------------------------


def _pairs(points):
    return {_pair(x) for x in points}


def _corpus_maps():
    """The pinned maps and 150 seeded maps of the `algebra` workload's
    kind: the generator's defaults, up to 4 pieces, mixed slopes."""
    return [*pinned_maps().values(),
            *_corpus(GeneratorConfig(seed=181), "algebra", 150)]


def test_preimage_sets_match_the_fraction_reference():
    """For n = 1..8 on every map: the union and its order, each of its
    points' roots, and its pairs are reduced and distinct."""
    checked = roots = 0
    for f0 in _corpus_maps():
        f, ref = _cold(f0), _cold(f0)
        for n in range(1, 9):
            want = _ref_special_preimage_set(ref, n)
            got = f.special_preimage_set(n)
            assert got == want, (f.to_text(), n)
            assert list(f._special_union(n)) == [_pair(x) for x in want]
            checked += 1
        for y in got:
            want = _ref_preimage(ref, y)
            assert f.preimage(y) == want, (f.to_text(), y)
            assert f._roots(*_pair(y)) == [_pair(x) for x in want]
            roots += len(want)
    assert checked == 8 * 159 and roots > 7000


def test_each_union_point_is_made_once_per_map():
    """A point's Fraction in the union of step n is the one object made
    when it first entered, whatever n is asked for first."""
    for f0 in _corpus_maps()[:40]:
        f = _cold(f0)
        top = f.special_preimage_set(6)
        made = {x: x for x in top}
        for n in range(1, 7):
            assert all(made[x] is x for x in f.special_preimage_set(n))


def _sandwich_pairs():
    """Every ordered pair of pinned maps, and each corpus map with its
    powers 1..3 as the inner map, as `power` checks them."""
    pinned = list(pinned_maps().values())
    for outer in pinned:
        for inner in pinned:
            yield outer, inner
    for f in _corpus_maps()[9:]:
        for k in (1, 2, 3):
            yield f, f.power(k, check=False)


def test_sandwich_bounds_match_the_fraction_reference():
    """The pair bounds are the pairs of the Fraction bounds; every pinned
    composition lies between them."""
    count = clipped = 0
    for outer, inner in _sandwich_pairs():
        lower, upper = _sandwich_bounds(outer, inner)
        ref_lower, ref_upper = _ref_sandwich_bounds(outer, inner)
        assert (lower, upper) == (_pairs(ref_lower), _pairs(ref_upper)), \
            (outer.to_text(), inner.to_text())
        clipped += bool({_pair(inner.a), _pair(inner.b)} & upper)
        count += 1
    pinned = pinned_maps()
    for outer in pinned.values():
        for inner in pinned.values():
            h = compose(outer, inner)
            lower, upper = _sandwich_bounds(outer, inner)
            assert lower <= _pairs(h.special_points().points) <= upper
    assert count == 81 + 3 * (len(_corpus_maps()) - 9) and clipped > 0


def _tent_power_planted(monkeypatch, planted):
    """tent^2 replaced in its memo entry by `planted`, with the sandwich
    check switched off, so only the check against the preimage union is
    left."""
    monkeypatch.setattr(maps_module, "_check_sandwich", lambda *a: None)
    t = pinned_map("tent")
    t.power(2, check=False)
    assert ("power_check", 2) not in t._cache
    t._cache["power", 2] = planted
    return t


def test_a_power_special_point_outside_the_union_raises(monkeypatch):
    """A power whose special point is not in the pair union of the
    preimage levels fails the check=True request with the old message;
    the true tent^2 passes the same check."""
    escaped = parse_map("interval 0 1\n"
                        "piece 0 1/5 : slope 1 intercept 0\n"
                        "piece 1/5 1 : slope 1/2 intercept 0\n")
    assert F(1, 5) not in pinned_map("tent").special_preimage_set(2)
    t = _tent_power_planted(monkeypatch, escaped)
    with pytest.raises(MapInvariantError) as err:
        t.power(2)
    assert str(err.value) == ("special points of a power escaped the "
                              "iterated preimage set at n=2")
    good = pinned_map("tent").power(2)
    assert _tent_power_planted(monkeypatch, good).power(2) is good


def test_the_power_check_reads_the_pair_union(monkeypatch):
    """With one point taken out of the memoized union of step 2, the true
    tent^2 escapes it: the check compares pairs with that union."""
    good = pinned_map("tent").power(2)
    t = _tent_power_planted(monkeypatch, good)
    union = t._special_union(2)
    level = t._cache["msets", 2][0]
    dropped = _pair(good.special_points().points[0])
    t._cache["msets", 2] = (level, {x: v for x, v in union.items()
                                    if x != dropped})
    with pytest.raises(MapInvariantError, match="iterated preimage set"):
        t.power(2)


@pytest.mark.parametrize("name", PINNED_NAMES)
def test_checked_powers_pass_on_pairs(name):
    """Every checked power up to 8 of a pinned map passes both checks,
    and its special points lie in the preimage union of its order."""
    f = pinned_map(name)
    for n in range(1, 9):
        fn = f.power(n)
        assert set(fn.special_points().points) <= set(
            _ref_special_preimage_set(f, n))
