"""One `Code` per itinerary.

A code is the prefix and least cycle of an eventually periodic sequence of
partition indices, with the shortest prefix; so two codes are equal exactly
when their sequences are, whichever stop test (a repeat, a certified ball
or a cycle lock) ended the walk behind them.  Checked on a seeded
duality-style corpus, the pinned maps and their mirrors, against pointwise
iteration.
"""

import functools
import itertools
import random
from fractions import Fraction as F

from pwdyn.codes import (MAX_CODES, YES, Code, CodeUndefinedError,
                         PartitionIntervals, RegularityCertificate,
                         _walk_codes, avoids_special_forever, codes,
                         regularity_certificate)
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import MINUS, PLUS
from pwdyn.orbits import walk
from pwdyn.pinned import pinned_maps
from test_orbits import _mirror

CAP = 2000


@functools.lru_cache(maxsize=None)
def _maps():
    cfg = GeneratorConfig(seed=29, slope_palette="contracting-rich",
                          max_pieces=3)
    maps = [f for f in _corpus(cfg, "codes", 40) if f.special_points().points]
    maps += [pinned_maps()[name] for name in ("hat", "tent", "shift",
                                              "semistable")]
    return tuple(maps + [_mirror(f) for f in maps])


def _points(f, i):
    """Seeded points of f: small denominators, so that some orbits meet
    cuts, and the special points' images."""
    rng = random.Random(i)
    span = f.b - f.a
    out = [f.a + span * F(rng.randint(0, 4 * q), 4 * q)
           for q in (3, 5, 7, 16, 64, 243) for _ in range(2)]
    return out + [v for w in f.special_points().points
                  for v in (f.value(w), f.lateral(w, MINUS),
                            f.lateral(w, PLUS)) if v is not None]


def _codes_or_none(f, x):
    try:
        return codes(f, x, CAP)
    except CodeUndefinedError:
        return None


def _shift(code):
    """The code one step later, in canonical form."""
    if code.prefix:
        return Code(code.prefix[1:], code.cycle)
    return Code((), code.cycle[1:] + code.cycle[:1])


def test_a_good_point_code_is_its_pointwise_itinerary():
    """For a point that provably avoids the special set, its one code's
    head is the partition index of each pointwise iterate, to twice the
    code's length and beyond."""
    checked = 0
    for i, f in enumerate(_maps()):
        part = PartitionIntervals.of(f)
        for x in _points(f, i):
            if avoids_special_forever(f, x, CAP).value != YES:
                continue
            (code,) = codes(f, x, CAP)
            assert not code.truncated
            count = 2 * (len(code.prefix) + len(code.cycle)) + 3
            want, y = [], x
            for _ in range(count):
                (k,) = part.indices_of(y)
                want.append(k)
                y = f.value(y)
            assert code.head(count) == tuple(want), (f.to_text(), x)
            checked += 1
    assert checked > 600, checked


def test_codes_are_equal_exactly_when_their_heads_are():
    """Two codes of one map, from different points or walks, are equal
    exactly when their heads of length 2 * (len(prefix) + len(cycle)),
    the longer of the two, are: no sequence has two codes."""
    pairs = equal = 0
    for i, f in enumerate(_maps()):
        found = [c for x in _points(f, i) for c in _codes_or_none(f, x) or ()]
        for w in f.special_points().points:
            cert = regularity_certificate(f, w, CAP)
            if isinstance(cert, RegularityCertificate):
                found.append(cert.code)
        found = [c for c in found if not c.truncated]
        for c, d in itertools.combinations(found, 2):
            n = 2 * max(len(c.prefix) + len(c.cycle),
                        len(d.prefix) + len(d.cycle))
            assert (c == d) == (c.head(n) == d.head(n)), (f.to_text(), c, d)
            pairs += 1
            equal += c == d
    assert pairs > 5000 and equal > 2000, (pairs, equal)


def test_the_codes_of_an_image_are_the_shifted_codes():
    """For x off the cuts, the codes of f(x) are the one-step shifts of
    the codes of x; neither has a code when the orbit meets a jump.  Walks
    cut by their cap and code lists cut at MAX_CODES are passed over."""
    checked = 0
    for i, f in enumerate(_maps()):
        cuts = set(PartitionIntervals.of(f).cuts)
        for x in _points(f, i):
            if x in cuts:
                continue
            here, there = _codes_or_none(f, x), _codes_or_none(f, f.value(x))
            assert (here is None) == (there is None), (f.to_text(), x)
            if here is None or any(c.truncated for c in here + there) \
                    or MAX_CODES in (len(here), len(there)):
                continue
            assert set(map(_shift, here)) == set(there), (f.to_text(), x)
            checked += 1
    assert checked > 600, checked


def test_ball_stops_do_not_shape_a_code():
    """Codes from the codes walk, which stops in the certifier's balls,
    equal codes from a walk stopped by cycle locks alone, wherever both
    walks end in a cycle."""
    checked = 0
    for i, f in enumerate(_maps()):
        for x in _points(f, i):
            here = _codes_or_none(f, x)
            if here is None or any(c.truncated for c in here):
                continue
            locked = walk(f, x, CAP, lock=True)
            if locked.reason in ("cap", "bit_cap"):
                continue
            assert _walk_codes(f, locked, None) == here, (f.to_text(), x)
            checked += 1
    assert checked > 600, checked
