"""The squared monotone window against the straight sweep.

At a point of period n the special-point gaps of the iterates repeat with
period n, so `taxonomy._window` sweeps only n steps at depth 2n and
squares the half iterate through its own integer table.  Every window it
returns must be the one a straight `orbits.segment_sweep` gives with the
same gaps, errors included, and the gaps must be those found by stepping
the point with `f.value`.
"""

from bisect import bisect_right

import pytest

from pwdyn import orbits
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import _pair
from pwdyn.orbits import periodic_points, segment_sweep, special_gaps
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import DegenerateWindowError, _window
from test_orbits import _mirror, _outcome


def _parity_corpus():
    """The pinned maps and 150 census-style seeded maps, with mirrors."""
    maps = list(pinned_maps().values())
    maps += _corpus(GeneratorConfig(seed=83, max_pieces=3), "squared", 150)
    return maps + [_mirror(f) for f in maps]


def _stepped_gaps(f, x, n):
    """The closed gap between the special points, or the domain ends,
    around each of the first n iterates of x, stepped one `f.value` at a
    time, up to the first iterate that is a special point."""
    special = f.special_points().points
    bounds = (f.a, *special, f.b)
    out = []
    for _ in range(n):
        if x in special:
            break
        k = bisect_right(special, x)
        out.append((bounds[k], bounds[k + 1]))
        x = f.value(x)
    return out


def _check_window(f, x, depth, seen):
    """`_window` at (x, depth) against the straight sweep with the stepped
    gaps; counts which path `_window` took."""
    gaps = _stepped_gaps(f, x, depth)
    if len(gaps) < depth:
        with pytest.raises(DegenerateWindowError):
            _window(f, x, depth)
        seen["degenerate"] += 1
        return
    want = _outcome(segment_sweep, f, f.a, f.b, [*gaps, None])
    assert _outcome(_window, f, x, depth) == want, (f.to_text(), x, depth)
    h = depth // 2
    seen["squared" if gaps[h:] == gaps[:h] else "straight"] += 1


def test_squared_windows_equal_straight_sweeps():
    """At every point of every continuous orbit to period 4, at depths n
    and 2n, and at the sixths of the domain at depths 2 to 8: the same
    (u, v, segments) or the same error, with both paths taken."""
    orbit_seen = dict.fromkeys(["squared", "straight", "degenerate"], 0)
    grid_seen = dict(orbit_seen)
    for f in _parity_corpus():
        for orb in periodic_points(f, 4, max_power=8):
            if orb.continuous:
                for p in orb.points:
                    for depth in (orb.period, 2 * orb.period):
                        _check_window(f, p, depth, orbit_seen)
        for k in range(7):
            x = f.a + (f.b - f.a) * k / 6
            for depth in range(2, 9):
                _check_window(f, x, depth, grid_seen)
    for seen in (orbit_seen, grid_seen):
        assert seen["squared"] > 0 and seen["straight"] > 0, seen
    assert orbit_seen["squared"] > 500 and grid_seen["squared"] > 1000, \
        (orbit_seen, grid_seen)


def test_special_gaps_step_once_per_period(monkeypatch):
    """At a point of a period-n point orbit that meets no special point,
    2n gaps take n integer steps and equal the gaps of 2n plain steps."""
    steps = [0]
    real_image = orbits._image

    def counted_image(*args):
        steps[0] += 1
        return real_image(*args)

    points = 0
    for f in _parity_corpus():
        for orb in periodic_points(f, 4, max_power=8):
            special = set(f.special_points().points)
            if orb.kind != orbits.POINT or special & set(orb.points):
                continue
            n = orb.period
            for p in orb.points:
                with monkeypatch.context() as m:
                    m.setattr(orbits, "_image", counted_image)
                    steps[0] = 0
                    got = special_gaps(f, p, 2 * n)
                assert steps[0] == n, (f.to_text(), p, n, steps[0])
                assert got == [(_pair(lo), _pair(hi))
                               for lo, hi in _stepped_gaps(f, p, 2 * n)], \
                    (f.to_text(), p)
                points += 1
    assert points > 300, points
