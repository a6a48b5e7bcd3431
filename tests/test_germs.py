"""Germ orbits on integer triples against the Fraction germ step they
replaced.

`orbits.germ_orbit`, `germ_step`, the landing indices of `stability` and
the lateral powers of `taxonomy` step (p, q, plus) triples through one
successor table per map.  `_ref_germ_step` and `_ref_germ_orbit` below are
the Fraction code they replaced, kept as the reference: every orbit, step
and error message must be the same.
"""

import random
from fractions import Fraction as F

from pwdyn import orbits
from pwdyn.harness import GeneratorConfig, _corpus, closed_structures
from pwdyn.maps import MINUS, PLUS, as_fraction, opposite
from pwdyn.orbits import (DENOM_BIT_CAP, Germ, GermOrbit, GermStepResult,
                          germ_orbit, germ_step, periodic_points)
from pwdyn.stability import (classify_point, find_connection,
                             stability_propagation_report)
from pwdyn.taxonomy import _lateral_power
from test_orbits import _ref_piece_left_of, _ref_piece_right_of
from test_piece_kernel import _cold, _corpus_maps, _outcome

# -- the Fraction germ step, the reference ------------------------------------


def _ref_germ_step(f, g):
    g = Germ(as_fraction(g.point), g.side)
    g.validate(f)
    if g.side == PLUS:
        branch = _ref_piece_right_of(f, g.point)
    else:
        branch = _ref_piece_left_of(f, g.point)
    point = branch.value_at(g.point)
    side = g.side if branch.slope > 0 else opposite(g.side)
    return GermStepResult(Germ(point, side), abs(branch.slope))


def _ref_germ_orbit(f, g, cap):
    if cap < 1:
        raise ValueError("cap must be >= 1")
    g = Germ(as_fraction(g.point), g.side)
    g.validate(f)
    seen = {}
    germs = []
    slopes = []
    current = g
    for _ in range(cap):
        if current in seen:
            i = seen[current]
            germs.append(current)
            return GermOrbit(tuple(germs), tuple(slopes), i,
                             len(germs) - 1 - i, False)
        if current.point.denominator.bit_length() > DENOM_BIT_CAP:
            break
        seen[current] = len(germs)
        germs.append(current)
        step = _ref_germ_step(f, current)
        slopes.append(step.slope_magnitude)
        current = step.next
    return GermOrbit(tuple(germs), tuple(slopes), len(germs), 0, True)


# -- comparisons -----------------------------------------------------------------


def _germs(f, rng):
    """Germs at a and b, on both sides of every breakpoint, at the special
    and periodic points, and at seeded rationals, plus the three that do
    not exist: left of a, right of b, and one outside [a, b]."""
    points = {f.a, f.b, *f.breakpoints, *f.special_points().points,
              *(x for o in periodic_points(f, 2) for x in o.points)}
    points |= {f.a + (f.b - f.a) * F(rng.randrange(1, 97), 97)
               for _ in range(3)}
    out = [Germ(x, side) for x in sorted(points) for side in (MINUS, PLUS)]
    return out + [Germ(f.b + 1, PLUS)]


def test_germ_orbits_match_the_fraction_reference(monkeypatch):
    """Every orbit and error at caps 1, 2, 4 * 2 + 8 (the half-point cycle
    cap at period 2) and 10**4, on the pinned and 40 generated maps with
    their mirrors, each map cold for its first germ; some orbits close,
    some stop at the cap and some at the denominator bit cap, lowered to
    64 bits on both sides so that a truncated orbit stays short."""
    monkeypatch.setattr(orbits, "DENOM_BIT_CAP", 64)
    monkeypatch.setitem(globals(), "DENOM_BIT_CAP", 64)
    rng = random.Random(41)
    seen = set()
    for f in _corpus_maps(40):
        f = _cold(f)
        for g in _germs(f, rng):
            for cap in (1, 2, 16, 10**4):
                want = _outcome(_ref_germ_orbit, f, g, cap)
                assert _outcome(germ_orbit, f, g, cap) == want, \
                    (f.to_text(), g, cap)
                if isinstance(want, str):
                    seen.add("error")
                elif not want.truncated:
                    seen.add("cycle")
                else:
                    bits = len(want.germs) < cap
                    seen.add("bit cap" if bits else "cap")
    assert seen == {"cycle", "cap", "bit cap", "error"}


def test_germ_orbit_at_the_full_bit_cap(maps):
    """An orbit that runs into the 4096-bit denominator budget, before any
    cap, ends the same way as the reference's."""
    for name, x in (("hat", F(1, 3)), ("contraction", F(2, 7))):
        f = _cold(maps[name])
        want = _ref_germ_orbit(f, Germ(x, PLUS), 10**4)
        assert want.truncated and 1000 < len(want.germs) < 10**4
        assert germ_orbit(f, Germ(x, PLUS), 10**4) == want


def test_germ_step_matches_the_fraction_reference():
    """`germ_step` and the lateral powers of `taxonomy`, which step
    through the same table, against the Fraction step, including the
    errors for germs that do not exist."""
    rng = random.Random(43)
    for f in _corpus_maps(20):
        f = _cold(f)
        for g in _germs(f, rng):
            want = _outcome(_ref_germ_step, f, g)
            assert _outcome(germ_step, f, g) == want, (f.to_text(), g)
            if isinstance(want, str):
                continue
            h = g
            for _ in range(5):
                h = _ref_germ_step(f, h).next
            assert _lateral_power(f, g.point, g.side, 5) == h.point


def test_each_germ_is_stepped_once_per_map(monkeypatch):
    """Over `closed_structures`, `classify_point` on every node and
    `stability_propagation_report` on cold maps, the germ step runs once
    per distinct germ of each map, whatever orbit, cap or landing index
    asks for it."""
    steps = []
    real = orbits._germ_successor

    def counted(t, key):
        steps.append((id(t), key))
        return real(t, key)

    monkeypatch.setattr(orbits, "_germ_successor", counted)
    tables = []  # keeps each map's table alive, so no id is reused
    connections = 0
    for f in _corpus(GeneratorConfig(seed=11), "germ-count", 40):
        f = _cold(f)
        for st in closed_structures(f):
            for x in st.nodes:
                classify_point(f, x, require_confined=False)
            stability_propagation_report(f, st)
            connections += sum(
                find_connection(f, st, y, z, 1) is not None
                for y in st.nodes for z in st.nodes)
        tables.append(orbits._table(f))
    assert connections > 100
    assert len(steps) > 1000
    assert len(steps) / len(set(steps)) == 1.0
