"""The integer segment sweep against the Fraction sweeps it replaced.

`orbits.segment_sweep` serves the monotone window (`taxonomy.window_sweep`)
and the code intervals of `codes`.  The Fraction code below is the code
of the sweeps it replaced, kept as the reference: every result and every
error message must be the same.
"""

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from pwdyn.codes import (CertificationError, Code, PartitionIntervals,
                         RegularityCertificate, _constraint_interval,
                         _geometric_limit, _stabilized_interval,
                         regularity_certificate)
from pwdyn.harness import GeneratorConfig, _corpus
from pwdyn.maps import AffinePiece, _affine
from pwdyn.orbits import ClipError, periodic_points, segment_sweep
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import DegenerateWindowError, window_sweep
from test_orbits import _mirror
from test_piece_kernel import (_outcome, _push_through, _ref_restrict_power,
                               solve_piece)

# -- the Fraction sweeps, the reference ---------------------------------------


def _ref_image(segs):
    y1 = segs[0].value_at(segs[0].left)
    y2 = segs[-1].value_at(segs[-1].right)
    return (y1, y2) if y1 <= y2 else (y2, y1)


def _ref_narrow(segs, t_lo, t_hi):
    first = segs[0].value_at(segs[0].left)
    sign = 1 if first < segs[-1].value_at(segs[-1].right) else -1
    if sign < 0:
        t_lo, t_hi = t_hi, t_lo
    ends = [sign * s.value_at(s.right) for s in segs]
    i, j = bisect_right(ends, sign * t_lo), bisect_left(ends, sign * t_hi)
    lo, hi = solve_piece(segs[i], t_lo), solve_piece(segs[j], t_hi)
    out = segs[i:j + 1]
    out[0] = AffinePiece(lo, out[0].right, out[0].slope, out[0].intercept)
    out[-1] = AffinePiece(out[-1].left, hi, out[-1].slope, out[-1].intercept)
    return lo, hi, out


def _ref_window_sweeps(f, x, depth):
    """The Fraction `window_sweep` at every depth up to `depth` in one pass:
    yields its (u, v, segments) after each step, and raises its
    DegenerateWindowError where it did."""
    special = f.special_points().points
    sset = set(special)
    u, v = f.a, f.b
    segs = [AffinePiece(u, v, F(1), F(0))]
    xj = x
    for j in range(depth):
        if xj in sset:
            raise DegenerateWindowError(
                f"iterate {j} of {x} lands on a special point")
        lo, hi = _ref_image(segs)
        i0, i1 = bisect_right(special, lo), bisect_left(special, hi)
        k = bisect_left(special, xj, i0, i1)
        t_lo = special[k - 1] if k > i0 else lo
        t_hi = special[k] if k < i1 else hi
        if (t_lo, t_hi) != (lo, hi):
            u, v, segs = _ref_narrow(segs, t_lo, t_hi)
        segs = _push_through(f, segs)
        xj = f.value(xj)
        yield u, v, segs


def _ref_constraint_interval(f, code):
    part = PartitionIntervals.of(f)
    sigma = code.cycle
    lo, hi = part.interval(sigma[0])
    segs = _ref_restrict_power(f, lo, hi, 1)
    for m in range(1, 2 * len(sigma)):
        img = _ref_image(segs)
        c_lo, c_hi = part.interval(sigma[m % len(sigma)])
        t = (max(img[0], c_lo), min(img[1], c_hi))
        if t[0] > t[1]:
            raise CertificationError(f"code constraints empty at position {m}")
        if t[0] == t[1]:
            raise CertificationError(
                f"code constraints pin a single point at position {m}")
        if t != img:
            lo, hi, segs = _ref_narrow(segs, *t)
        segs = _push_through(f, segs)
    return lo, hi, segs


def _ref_stabilized_interval(f, base, n):
    lo, hi = base
    segs = _ref_restrict_power(f, lo, hi, n)
    los, his = [lo], [hi]
    for _ in range(64):
        p, q = _ref_image(segs)
        if lo <= p and q <= hi:
            return lo, hi
        t = (max(p, lo), min(q, hi))
        if t[0] >= t[1]:
            return None
        lo, hi, segs = _ref_narrow(segs, *t)
        los.append(lo)
        his.append(hi)
        guess = _geometric_limit(f, los, his, n)
        if guess is not None:
            return guess
    return None


# -- the monotone window -------------------------------------------------------

DEEP = 16  # census sweeps to twice its period horizon of 8


def _census_corpus():
    maps = list(pinned_maps().values())
    maps += list(_corpus(GeneratorConfig(seed=41), "deep", 100, max_pieces=3))
    return maps + [_mirror(f) for f in maps]


def _window_points(f):
    """Continuous periodic points, points landing on a special point after
    a few steps, and a few plain rationals."""
    orbits = periodic_points(f, 3, max_power=6)
    pts = {p for o in orbits if o.continuous for p in o.points}
    special = f.special_points().points
    for s in special[:2]:
        pts.update(f.preimage(s)[:2])
    pts.update([f.a, F(2, 7), F(5, 8), *special[:1]])
    return sorted(pts)


def test_window_sweep_matches_the_fraction_reference_at_every_depth():
    """Every depth 1..16, on the pinned maps and 100 generated census maps
    and their mirrors: the window, its segments and each
    DegenerateWindowError message are those of the reference."""
    checked = degenerate = split = 0
    for f in _census_corpus():
        for x in _window_points(f):
            ref, error = [], None
            try:
                ref.extend(_ref_window_sweeps(f, x, DEEP))
            except DegenerateWindowError as exc:
                error = f"DegenerateWindowError: {exc}"
            for depth in range(1, DEEP + 1):
                want = ref[depth - 1] if depth <= len(ref) else error
                got = _outcome(window_sweep, f, x, depth)
                assert got == want, (f.to_text(), x, depth)
                checked += 1
                degenerate += want is error
                split += want is not error and len(want[2]) > 1
    assert checked > 20000
    assert degenerate > 1000
    assert split > 1000


# -- the code intervals ------------------------------------------------------


def _duality_corpus():
    cfg = GeneratorConfig(seed=43, slope_palette="contracting-rich",
                          max_pieces=3)
    maps = [f for f in _corpus(cfg, "codes", 80)
            if f.special_points().points]
    maps += [pinned_maps()[name] for name in ("hat", "tent", "semistable")]
    return maps + [_mirror(f) for f in maps]


def _codes(f):
    """Every cycle of up to three partition indices, and the code of each
    certified regular special point, each with whether it is the latter."""
    count = PartitionIntervals.of(f).count
    for n in (1, 2, 3):
        for word in itertools.product(range(count), repeat=n):
            yield Code((), word), False
    for w in f.special_points().points:
        cert = regularity_certificate(f, w)
        if isinstance(cert, RegularityCertificate):
            yield cert.code, True


def test_code_intervals_match_the_fraction_reference():
    """The constraint interval (or its CertificationError message) and the
    stabilized interval of many codes on a duality-style corpus and its
    mirrors, against the reference."""
    seen = {"interval": 0, "stabilized": 0, "empty": 0, "point": 0,
            "regular": 0}
    for f in _duality_corpus():
        for code, certified in _codes(f):
            want = _outcome(_ref_constraint_interval, f, code)
            got = _outcome(_constraint_interval, f, code)
            if not isinstance(got, str):
                got = (*got[:2], _affine(got[2]))
            assert got == want, (f.to_text(), code)
            if isinstance(want, str):
                seen["point" if "single" in want else "empty"] += 1
                continue
            seen["interval"] += 1
            base, n = want[:2], len(code.cycle)
            stable = _outcome(_ref_stabilized_interval, f, base, n)
            assert _outcome(_stabilized_interval, f, base, n) == stable, \
                (f.to_text(), code)
            seen["stabilized"] += isinstance(stable, tuple)
            seen["regular"] += certified
    assert min(seen.values()) > 0, seen
    assert seen["interval"] > 400, seen


def test_clip_errors_name_the_step():
    hat = pinned_maps()["hat"]
    with pytest.raises(ClipError, match="clip 1 leaves nothing") as exc:
        segment_sweep(hat, F(0), F(1, 4), [None, (F(3, 4), F(1)), None])
    assert (exc.value.step, exc.value.point) == (1, False)
    with pytest.raises(ClipError, match="clip 1 leaves a single point"):
        segment_sweep(hat, F(0), F(1, 4), [None, (F(1, 2), F(1)), None])
    u, v, segs = segment_sweep(hat, F(0), F(1, 4),
                               [None, (F(7, 16), F(1)), None])
    assert (u, v, _affine(segs)) == (F(1, 8), F(1, 4), [
        AffinePiece(F(1, 8), F(1, 4), F(1, 4), F(9, 16))])
