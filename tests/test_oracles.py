"""Brute-force cross-validation of the exact algorithms.

Each test here re-derives an answer by a slower independent route (grid
enumeration, global powers, stepwise iteration) and compares it with the
production path on a seeded corpus.
"""

from fractions import Fraction as F

import pytest

from pwdyn.harness import GeneratorConfig, GenerationError, random_map
from pwdyn.maps import (MINUS, PLUS, AffinePiece, PiecewiseMap, PwdynError,
                        compose)
from pwdyn.orbits import (HALF_POINT, INTERVAL_FAMILY, Germ, germ_step,
                          periodic_points)
from pwdyn.pinned import pinned_maps
from pwdyn.taxonomy import (NOT_APPLICABLE, DegenerateWindowError,
                            attraction_atlas, monotone_window, restrict_power,
                            taxonomy, window_sweep)
from pwdyn.codes import Certifier, CodeUndefinedError, PartitionIntervals, codes


def corpus(tag, count, **overrides):
    cfg = GeneratorConfig(seed=987, **overrides)
    out = []
    for i in range(count):
        try:
            out.append(random_map(cfg.sub(tag, i)))
        except GenerationError:
            continue
    return out


def stepwise(f, x, n):
    chain = [x]
    for _ in range(n):
        v = f.value(chain[-1])
        if v is None:
            return None
        chain.append(v)
    return chain


def test_periodic_enumeration_complete_on_grid():
    # every grid point that closes up stepwise must be covered by some
    # reported orbit: inside a family interval, equal to an isolated orbit
    # point, or (as a family edge) a fixed endpoint of a closed family
    for f in corpus("enum", 40, max_pieces=3, denominator_bound=8,
                    slope_palette="neutral-rich"):
        try:
            orbits = periodic_points(f, 4, max_power=8)
        except PwdynError:
            continue
        isolated = {p for o in orbits if o.kind != HALF_POINT
                    for p in o.points}
        families = [iv for o in orbits if o.kind == INTERVAL_FAMILY
                    for iv in o.intervals]
        grid = [F(i, 48) for i in range(49)]
        for x in grid:
            chain = stepwise(f, x, 4)
            if chain is None:
                continue
            period = next((n for n in (1, 2, 3, 4) if chain[n] == x), None)
            if period is None:
                continue
            covered = (x in isolated
                       or any(lo <= x <= hi for lo, hi in families))
            assert covered, (f.to_text(), x, period)


def test_monotone_window_matches_global_powers():
    # the local pullback window must equal the gap between neighbouring
    # special points of the global powers
    for f in corpus("window", 30, max_pieces=3, denominator_bound=8):
        obstructions = set()
        try:
            for j in range(1, 5):
                obstructions |= set(f.power(j,
                                            check=False).special_points().points)
        except PwdynError:
            continue
        for x in (F(1, 5), F(1, 2), F(4, 5), F(3, 7)):
            if any(f.value(t) is None for t in (x,)):
                continue
            try:
                u, v = monotone_window(f, x, 4)
            except DegenerateWindowError:
                assert x in obstructions or any(
                    stepwise(f, x, k) is None or stepwise(f, x, k)[-1]
                    in set(f.special_points().points) for k in range(4))
                continue
            below = [o for o in obstructions if o < x]
            above = [o for o in obstructions if o > x]
            assert u == (max(below) if below else f.a), (f.to_text(), x)
            assert v == (min(above) if above else f.b), (f.to_text(), x)


def test_restrict_power_matches_global_power():
    for f in corpus("restrict", 30, max_pieces=3, denominator_bound=8):
        for x in (F(2, 7), F(1, 2), F(5, 8)):
            try:
                u, v = monotone_window(f, x, 4)
            except (DegenerateWindowError, PwdynError):
                continue
            segs = restrict_power(f, u, v, 4)
            try:
                f4 = f.power(4, check=False)
            except PwdynError:
                continue
            for i in range(1, 16):
                t = u + (v - u) * F(i, 16)
                expected = f4.value(t)
                if expected is None:
                    continue
                got = next(s.value_at(t) for s in segs
                           if s.left <= t <= s.right)
                assert got == expected, (f.to_text(), x, t)


def test_code_head_matches_stepwise_membership():
    for f in corpus("codehead", 25, max_pieces=3, denominator_bound=8):
        part = PartitionIntervals.of(f)
        try:
            Certifier.of(f)
        except PwdynError:
            continue
        for x in (F(1, 3), F(2, 5), F(7, 9)):
            try:
                out = codes(f, x, 600)
            except CodeUndefinedError:
                continue
            chain = stepwise(f, x, 12)
            if chain is None:
                continue
            for code in out:
                head = code.head(12)
                for m, idx in enumerate(head):
                    lo, hi = part.interval(idx)
                    assert lo <= chain[m] <= hi, (f.to_text(), x, m)


def test_count_bound_membership_oracle():
    # every counted orbit must be oracle-stable-or-semi-stable; every
    # uncounted continuous point orbit must be unstable, trapped, or a family
    from pwdyn.stability import oracle_classify
    from pwdyn.taxonomy import count_bound, is_trapped, PreconditionError

    for f in corpus("bound_oracle", 25, max_pieces=3, denominator_bound=8):
        if not f.special_points().points:
            continue
        try:
            orbits = periodic_points(f, 4, max_power=8)
            report = count_bound(f, 4)
        except PwdynError:
            continue
        counted = {frozenset(o.points) for o in report.orbits}
        for orb in orbits:
            if not orb.continuous or orb.kind == HALF_POINT:
                continue
            verdict = oracle_classify(f, orb.points[0])
            if frozenset(orb.points) in counted:
                assert verdict in ("stable", "semi_stable"), (f.to_text(),
                                                              orb.points)
            elif orb.kind != INTERVAL_FAMILY and verdict != "unstable":
                try:
                    assert is_trapped(f, orb).trapped, (f.to_text(), orb.points)
                except PreconditionError:
                    pass  # critical or endpoint orbits are counted directly


def test_strict_codes_replay_from_position_zero():
    for f in corpus("strict", 25, max_pieces=3, denominator_bound=8):
        try:
            Certifier.of(f)
        except PwdynError:
            continue
        for x in (F(1, 6), F(3, 8), F(5, 7)):
            try:
                out = codes(f, x, 600)
            except CodeUndefinedError:
                continue
            for code in out:
                if code.strictly_periodic:
                    word = code.cycle
                    assert code.prefix == ()
                    assert code.head(3 * len(word)) == word * 3


def sweep_corpus():
    return corpus("sweep", 30, max_pieces=3, denominator_bound=8) \
        + list(pinned_maps().values())


def sweep_points(f):
    try:
        orbits = periodic_points(f, 3, max_power=6)
    except PwdynError:
        orbits = []
    pts = {p for o in orbits if o.continuous for p in o.points}
    return sorted(pts | {F(2, 7), F(1, 2), F(5, 8)})


def test_window_sweep_segments_equal_fresh_restricted_power():
    checked = 0
    for f in sweep_corpus():
        for x in sweep_points(f):
            for depth in (1, 2, 4, 6):
                try:
                    u, v, segs = window_sweep(f, x, depth)
                except DegenerateWindowError:
                    continue
                assert (u, v) == monotone_window(f, x, depth)
                assert segs == restrict_power(f, u, v, depth), \
                    (f.to_text(), x, depth)
                checked += 1
    assert checked > 500
    for name, x, depth in (("tent", F(1, 2), 1), ("shift", F(3, 8), 2)):
        with pytest.raises(DegenerateWindowError):
            window_sweep(pinned_maps()[name], x, depth)


def test_window_endpoints_reach_special_points():
    # each endpoint is a domain endpoint, or its inward germ lands on a
    # special point within `depth` steps (that is what clipped it)
    for f in sweep_corpus():
        special = set(f.special_points().points)
        for x in sweep_points(f):
            depth = 4
            try:
                u, v = monotone_window(f, x, depth)
            except DegenerateWindowError:
                continue
            for end, side, domain_end in ((u, PLUS, f.a), (v, MINUS, f.b)):
                if end == domain_end:
                    continue
                g, hits = Germ(end, side), []
                for _ in range(depth):
                    hits.append(g.point in special)
                    g = germ_step(f, g).next
                assert any(hits), (f.to_text(), x, end)


def test_compose_agrees_with_nested_values():
    fs = sweep_corpus()
    grid = [F(i, 60) for i in range(61)]
    for outer, inner in zip(fs, fs[1:] + fs[:1]):
        try:
            h = compose(outer, inner)
        except PwdynError:
            continue
        for t in grid + [p.left + (p.right - p.left) / 3 for p in h.pieces]:
            mid = inner.value(t)
            if mid is None or outer.value(mid) is None:
                continue
            assert h.value(t) == outer.value(mid), (outer.to_text(),
                                                    inner.to_text(), t)


# -- trapping and attraction balls, by pointwise steps ------------------------


def mirror(f):
    """The conjugate x -> a + b - f(a + b - x)."""
    m = f.a + f.b
    return PiecewiseMap(f.a, f.b, [
        AffinePiece(m - p.right, m - p.left, p.slope,
                    m * (1 - p.slope) - p.intercept)
        for p in reversed(f.pieces)])


def clear_iterates(f, lo, hi, steps):
    """Whether none of the first `steps` iterates of [lo, hi] has a special
    point strictly inside.  f is then continuous and monotone on each, so
    the next iterate is read off the one-sided limits at its ends."""
    special = f.special_points().points
    for _ in range(steps):
        if any(lo < s < hi for s in special):
            return False
        lo, hi = sorted((f.lateral(lo, PLUS), f.lateral(hi, MINUS)))
    return True


def test_trapping_and_atlas_balls_by_pointwise_steps():
    """Census-style maps and their mirrors, orbits to period 4: every trap
    witness (y, z) brackets the orbit point, f^2n(y) <= y and f^2n(z) >= z
    by 2n steps, and no iterate of [y, z] before the 2n-th has a special
    point strictly inside.  A free orbit has, on one side of each orbit
    point, no sample of its window's 64-point grid where the witness
    inequality holds.  Every sampled point of an atlas ball comes strictly
    closer to the centre after 2n steps, from its own side."""
    base = corpus("trap", 120, max_pieces=3)
    seen = {"trapped": 0, "free": 0, "balls": 0}
    for f in base + [mirror(g) for g in base]:
        try:
            orbits = periodic_points(f, 4, max_power=8)
        except PwdynError:
            continue
        for orb in orbits:
            if not orb.continuous:
                continue
            try:
                tax = taxonomy(f, orb)
            except NOT_APPLICABLE:
                continue
            m = 2 * orb.period
            if tax.trapped:
                y, z, _ = tax.trap_witness
                x = orb.points[0]
                assert y < x < z, (f.to_text(), x, y, z)
                assert stepwise(f, y, m)[-1] <= y, (f.to_text(), x, y)
                assert stepwise(f, z, m)[-1] >= z, (f.to_text(), x, z)
                assert clear_iterates(f, y, z, m), (f.to_text(), x, y, z)
                seen["trapped"] += 1
            if tax.free:
                for x in orb.points:
                    u, v = monotone_window(f, x, m)
                    left = [x + (u - x) * k / 65 for k in range(1, 65)]
                    right = [x + (v - x) * k / 65 for k in range(1, 65)]
                    assert clear_iterates(f, left[-1], right[-1], m), \
                        (f.to_text(), x, u, v)
                    assert (all(stepwise(f, t, m)[-1] > t for t in left)
                            or all(stepwise(f, t, m)[-1] < t for t in right)), \
                        (f.to_text(), x)
                seen["free"] += 1
        for balls in attraction_atlas(f, orbits).values():
            for ball in balls:
                c = ball.center
                lo, hi = ball.span(ball.radius)
                for k in range(1, 8):
                    t = lo + (hi - lo) * k / 8
                    if t == c:
                        continue
                    image = stepwise(f, t, 2 * ball.period)[-1]
                    assert abs(image - c) < abs(t - c), \
                        (f.to_text(), c, ball.side, t)
                    if ball.side is not None:
                        assert (image - c) * (t - c) > 0, \
                            (f.to_text(), c, ball.side, t)
                seen["balls"] += 1
    assert min(seen.values()) > 20, seen
