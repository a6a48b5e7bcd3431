"""The invariants that stand in for removed guards and catches.

A continuous, non-critical periodic orbit holds no special point: being
non-critical, it meets no turning point, and a point cycle's walk ends at
a jump, so it meets no jump.  So `taxonomy._orbit_gaps` gives 2n gaps at each of its points, no
monotone window at them degenerates, `taxonomy` raises no NOT_APPLICABLE
error on a continuous orbit, and no orbit of the map's attraction atlas
meets a special point.  `attraction_atlas`, the `Certifier`, the CLI's
`taxonomy` and `basin` commands and the suite's properties read these
facts instead of catching their failure.

`orbits._collect_families` blocks no identity run of a divisor power:
the run's ends are cuts, and a point inside it has too short a cycle.
Three hand-built maps, each with an identity run of f or f^2 inside an
identity piece of a higher power, hold the families against the reference
enumeration, which still blocks such runs.
"""

from collections import Counter

from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import parse_map
from pwdyn.orbits import periodic_points
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import _map_atlas, _orbit_gaps, taxonomy
from test_orbits import _mirror, _outcome
from test_periodic import _ref_periodic_points


def _corpus_maps():
    """The pinned maps, 150 census-style and 150 neutral-rich seeded maps,
    with mirrors."""
    maps = list(pinned_maps().values())
    maps += _corpus(GeneratorConfig(seed=89, max_pieces=3), "guards", 150)
    maps += _corpus(GeneratorConfig(seed=91, max_pieces=3,
                                    slope_palette="neutral-rich"),
                    "guards", 150)
    return maps + [_mirror(f) for f in maps]


def test_continuous_orbits_meet_no_special_point():
    """On every continuous, non-critical orbit to period 4: no point is
    special and each point has 2n gaps; `taxonomy` succeeds on every
    continuous orbit; and no atlas orbit holds a special point."""
    counted = Counter()
    for f in _corpus_maps():
        special = set(f.special_points().points)
        turns = set(f.special_points().turning)
        found = _outcome(periodic_points, f, 4, max_power=8)
        assert found == _outcome(_ref_periodic_points, f, 4), f.to_text()
        counted["families"] += sum(bool(o.intervals) for o in found)
        if isinstance(found, str):
            counted["errors"] += 1
            continue
        for orb in found:
            if not orb.continuous:
                continue
            taxonomy(f, orb)
            counted["taxonomy"] += 1
            if any(p in turns for p in orb.points):
                continue
            assert not special.intersection(orb.points), (f.to_text(), orb)
            gaps = _orbit_gaps(f, orb)
            assert [len(g) for g in gaps] == [2 * orb.period] * orb.period, (
                f.to_text(), orb)
            counted["orbits"] += 1
            counted["long orbits"] += orb.period > 1
        atlas = _outcome(_map_atlas, f)
        if isinstance(atlas, str):
            counted["atlas errors"] += 1
            continue
        for orb in atlas:
            assert not special.intersection(orb.points), (f.to_text(), orb)
        counted["atlas orbits"] += len(atlas)
    assert counted["orbits"] > 1000 and counted["long orbits"] > 300, counted
    assert counted["families"] > 200, counted
    assert counted["atlas orbits"] > 300, counted


# each holds an identity run of f or f^2 inside an identity piece of f^2,
# f^3 or f^4: an involution beside the identity, a 3-cycle of translated
# intervals beside it, and an involution beside a 4-cycle
NESTED_IDENTITIES = (
    "interval 0 1\n"
    "piece 0 1/2 : slope 1 intercept 0\n"
    "piece 1/2 1 : slope -1 intercept 3/2\n",
    "interval 0 1\n"
    "piece 0 1/3 : slope 1 intercept 0\n"
    "piece 1/3 7/9 : slope 1 intercept 2/9\n"
    "piece 7/9 1 : slope 1 intercept -4/9\n",
    "interval 0 1\n"
    "piece 0 1/2 : slope -1 intercept 1/2\n"
    "piece 1/2 7/8 : slope 1 intercept 1/8\n"
    "piece 7/8 1 : slope 1 intercept -3/8\n",
)


def _identities(f, n):
    return [(p.left, p.right) for p in f.power(n).pieces
            if p.slope == 1 and p.intercept == 0]


def test_families_need_no_blocked_runs():
    """Each hand-built map has an identity run of a proper divisor power
    inside an identity piece of a power to 4, and its orbits to period 4,
    families among them, are the reference's."""
    for text in NESTED_IDENTITIES:
        f = parse_map(text)
        nested = [(d, n) for n in range(2, 5) for d in range(1, n)
                  if n % d == 0
                  for lo, hi in _identities(f, d)
                  if any(a <= lo and hi <= b for a, b in _identities(f, n))]
        assert nested, text
        for g in (f, _mirror(f)):
            got = periodic_points(g, 4, max_power=8)
            assert list(got) == _ref_periodic_points(g, 4), g.to_text()
            assert any(o.intervals for o in got), g.to_text()
