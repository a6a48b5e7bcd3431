"""Each periodic orbit is walked, gapped and witnessed once, not once per
point.

`periodic_points` skips a candidate that is a point of a point orbit it has
already added, so no `fixed_cycle` walk repeats an orbit.  `taxonomy`,
`attraction_atlas` and `basin_adjacent_special` read the special gaps of
each listed orbit point they sweep from `taxonomy._orbit_gaps`, which
steps the first point once and rotates its gaps, but only when f takes
each listed point to the next; any other listing is stepped point by
point, so the answers do not depend on the order the points are listed
in.  `taxonomy` reads the trap decision at the first point alone
(`is_trapped`).  The trap witnesses are formed on int pairs, so
`taxonomy._trap` itself does no `Fraction` arithmetic.
"""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction

from pwdyn import orbits, taxonomy as taxonomy_module
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.orbits import POINT, periodic_points, special_gaps
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import (_orbit_gaps, _trap, attraction_atlas,
                            basin_adjacent_special, count_bound, is_trapped,
                            monotone_window, taxonomy)
from test_orbits import _outcome
from test_periodic import _ref_periodic_points
from test_squared_window import _parity_corpus


def test_each_orbit_is_walked_once(monkeypatch):
    """On the pinned maps and 150 census-style maps with their mirrors, to
    period 8: no candidate walk of the enumeration starts at a point of a
    point orbit it has already added, and the orbits are the reference's."""
    walks = []
    real_fixed_cycle = orbits.fixed_cycle

    def spy(f, x, n):
        cycle = real_fixed_cycle(f, x, n)
        if sys._getframe(1).f_code.co_name == "_periodic_orbits":
            walks.append((x, n, cycle))
        return cycle

    monkeypatch.setattr(orbits, "fixed_cycle", spy)
    counted = Counter()
    for f in _parity_corpus():
        walks.clear()
        got = _outcome(periodic_points, f, 8, max_power=16)
        assert got == _outcome(_ref_periodic_points, f, 8), f.to_text()
        if isinstance(got, str):
            counted["errors"] += 1
            continue
        point_orbits = {frozenset(o.points) for o in got if o.kind == POINT}
        added = set()
        for x, n, cycle in walks:
            assert x not in added, (f.to_text(), x, n)
            if cycle is not None and len(cycle) == n \
                    and frozenset(cycle) in point_orbits:
                added.update(cycle)
        counted["walks"] += len(walks)
        counted["orbits"] += len(point_orbits)
        counted["long orbits"] += sum(len(o) > 1 for o in point_orbits)
    assert counted["long orbits"] > 300 and counted["walks"] > 1000, counted


def _listings(points):
    """The points in walk order, reversed and rotated."""
    yield points
    yield points[::-1]
    for k in range(1, len(points)):
        yield points[k:] + points[:k]


def _basins(f, orb):
    """The basin witnesses as a multiset, without their target, or the
    error."""
    out = _outcome(basin_adjacent_special, f, orb)
    if isinstance(out, str):
        return out
    return Counter(dataclasses.replace(w, target=None) for w in out)


def test_orbit_gaps_are_exact_in_any_listing_order(monkeypatch):
    """For every continuous orbit to period 4 of the pinned maps and 150
    census-style maps with their mirrors, listed in walk order, reversed
    and rotated: the gaps are `special_gaps` at every listed point, the
    trapped flag is `is_trapped` at each point, and the atlas balls and
    basin witnesses are those of the walk order; in walk order an orbit
    that meets no special point takes at most 2n integer steps."""
    steps = [0]
    real_image = orbits._image

    def counted_image(*args):
        steps[0] += 1
        return real_image(*args)

    seen = Counter()
    for f in _parity_corpus():
        special = set(f.special_points().points)
        for orb in periodic_points(f, 4, max_power=8):
            if not orb.continuous:
                continue
            n = orb.period
            if not special & set(orb.points):
                with monkeypatch.context() as m:
                    m.setattr(orbits, "_image", counted_image)
                    m.setattr(taxonomy_module, "_image", counted_image)
                    steps[0] = 0
                    _orbit_gaps(f, orb)
                assert steps[0] <= 2 * n, (f.to_text(), orb.points, steps[0])
                seen["stepped"] += 1
            balls = _outcome(attraction_atlas, f, [orb])
            if not isinstance(balls, str):
                balls = Counter(b for ring in balls.values() for b in ring)
            basins = _basins(f, orb)
            for points in _listings(orb.points):
                listed = dataclasses.replace(orb, points=points)
                gaps = _orbit_gaps(f, listed)
                assert gaps == [special_gaps(f, p, 2 * n) for p in points], \
                    (f.to_text(), points)
                tax = _outcome(taxonomy, f, listed)
                if not isinstance(tax, str) and not tax.critical \
                        and tax.boundary_case == "none":
                    for p in points:
                        trap = _trap(f, p, n, special_gaps(f, p, 2 * n))
                        assert trap.trapped == tax.trapped, (f.to_text(), p)
                        if p == points[0]:
                            assert trap.witness == tax.trap_witness
                    seen["trapped" if tax.trapped else "free"] += 1
                got = _outcome(attraction_atlas, f, [listed])
                if not isinstance(got, str):
                    got = Counter(b for ring in got.values() for b in ring)
                assert got == balls, (f.to_text(), points)
                assert _basins(f, listed) == basins, (f.to_text(), points)
                seen["in order" if points == orb.points else "reordered"] += 1
    assert seen["stepped"] > 300 and seen["reordered"] > 500, seen
    assert seen["trapped"] > 100 and seen["free"] > 100, seen


_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__", "__lt__", "__le__", "__gt__",
              "__ge__", "__eq__")


def test_trap_does_no_fraction_arithmetic(monkeypatch):
    """Over the taxonomy and count bound of 100 census-style maps, no
    `Fraction` operator is called from `_trap`'s own frame; the spy sees
    the ones `_pick_witness` still calls, so it is live, and `_trap`
    runs."""
    maps = list(_corpus(GeneratorConfig(seed=97, max_pieces=3), "trap", 100))
    for f in maps:  # warm the orbits, so the spy sees the taxonomy only
        periodic_points(f, 8, max_power=16)
    calls = Counter()
    frames = {taxonomy_module._trap.__code__: "_trap"}

    def spied(name):
        real = getattr(Fraction, name)

        def operator(*args):
            caller = sys._getframe(1).f_code
            calls[frames.get(caller, caller.co_name)] += 1
            return real(*args)
        return operator

    runs = Counter()
    real_trap = taxonomy_module._trap

    def trap(*args):
        runs["_trap"] += 1
        return real_trap(*args)

    with monkeypatch.context() as m:
        for name in _OPERATORS:
            m.setattr(Fraction, name, spied(name))
        m.setattr(taxonomy_module, "_trap", trap)
        for f in maps:
            for orb in periodic_points(f, 8, max_power=16):
                if orb.continuous:
                    _outcome(taxonomy, f, orb)
            _outcome(count_bound, f)
    assert runs["_trap"] > 200, runs
    assert calls["_pick_witness"] > 0, calls
    assert calls["_trap"] == 0, calls


def test_trapping_off_the_domain_names_the_point():
    """`_trap` steps its point's gaps without `_window`'s checks; a point
    off the domain still raises, from the gaps `taxonomy` hands it, the
    ValueError `monotone_window` raises, naming that point."""
    checked = 0
    for f in pinned_maps().values():
        for orb in periodic_points(f, 4, max_power=8):
            if isinstance(_outcome(is_trapped, f, orb), str):
                continue
            for p in (f.a - 1, f.b + Fraction(1, 3)):
                want = f"ValueError: {p} outside [{f.a}, {f.b}]"
                assert _outcome(monotone_window, f, p, 2) == want
                assert _outcome(lambda: _trap(f, p, orb.period, special_gaps(
                    f, p, 2 * orb.period))) == want
                checked += 1
    assert checked > 10, checked
