"""Maps on [0, 1] moved onto [-3/7, 5/2] by h(x) = a + (b - a) x answer
the taxonomy layer's questions as the originals do, moved by h: the special
points, the periodic orbits, the taxonomy of each continuous orbit with its
trap witness, and the orbit-count bound.  Nothing reads [0, 1] into the
domain, so a map on any interval is analysed the same way."""

import dataclasses
from collections import Counter
from fractions import Fraction as F

from pwdyn import taxonomy as taxonomy_module
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import AffinePiece, PiecewiseMap
from pwdyn.orbits import HALF_POINT, VariantSelector, periodic_points
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import count_bound, taxonomy
from test_orbits import _outcome

A, B = F(-3, 7), F(5, 2)


def _h(x):
    return A + (B - A) * x


def _conjugate(f):
    """h f h^-1 on [A, B] for f on [0, 1]: each piece moved by h, with its
    slope and the intercept A (1 - slope) + (B - A) intercept."""
    assert (f.a, f.b) == (0, 1)
    return PiecewiseMap(A, B, [
        AffinePiece(_h(p.left), _h(p.right), p.slope,
                    A * (1 - p.slope) + (B - A) * p.intercept)
        for p in f.pieces])


def _moved(orb):
    """The orbit moved by h: its points, intervals and selector."""
    selector = orb.selector and VariantSelector(
        tuple((_h(w), side) for w, side in orb.selector.choice))
    return dataclasses.replace(
        orb, points=tuple(map(_h, orb.points)), selector=selector,
        intervals=tuple((_h(u), _h(v)) for u, v in orb.intervals))


def _moved_taxonomy(tax):
    """The taxonomy moved by h: its orbit and witness, whose margin scales
    by B - A."""
    witness = tax.trap_witness and (
        _h(tax.trap_witness[0]), _h(tax.trap_witness[1]),
        (B - A) * tax.trap_witness[2])
    return dataclasses.replace(tax, orbit=_moved(tax.orbit),
                               trap_witness=witness)


def test_a_conjugate_on_another_interval_answers_the_same(monkeypatch):
    """On the pinned maps and 40 census-style maps, each against its
    conjugate, to period 4: the same answers moved by h, and the same
    error where the bound does not apply; the trapped-orbit shortcut is
    taken (no later point swept) on orbits of period 2 or more."""
    swept = []
    real = taxonomy_module._orbit_gaps
    monkeypatch.setattr(taxonomy_module, "_orbit_gaps",
                        lambda f, orb: swept.append(orb) or real(f, orb))
    maps = list(pinned_maps().values())
    maps += _corpus(GeneratorConfig(seed=89, max_pieces=3), "conjugate", 40)
    seen = Counter()
    for f in maps:
        g = _conjugate(f)
        sf, sg = f.special_points(), g.special_points()
        for field in ("points", "turning", "discontinuities"):
            assert getattr(sg, field) == tuple(map(_h, getattr(sf, field)))
        found = periodic_points(f, 4, max_power=8)
        assert periodic_points(g, 4, max_power=8) == list(map(_moved, found))
        for orb in found:
            if orb.kind == HALF_POINT:
                continue
            want = _moved_taxonomy(taxonomy(f, orb))
            swept.clear()
            got = _outcome(taxonomy, g, _moved(orb))
            assert got == want, (f.to_text(), orb.points)
            seen["trapped"] += got.trapped
            seen["shortcut"] += got.trapped and orb.period > 1 and not swept
        want = _outcome(count_bound, f)
        got = _outcome(count_bound, g)
        if isinstance(want, str):
            assert got == want, f.to_text()
        else:
            assert got == dataclasses.replace(
                want, orbits=tuple(map(_moved, want.orbits))), f.to_text()
            seen["bounds"] += 1
    assert seen["trapped"] > 40 and seen["shortcut"] > 5, seen
    assert seen["bounds"] > 20, seen
