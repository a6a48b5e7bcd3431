import random
from collections import Counter
from fractions import Fraction as F

import pytest

from pwdyn import maps as maps_module
from pwdyn import taxonomy as taxonomy_module
from pwdyn.codes import (Certifier, CodeUndefinedError, codes,
                         regular_attractor)
from pwdyn.harness import GeneratorConfig, random_map
from pwdyn.maps import (MINUS, PLUS, MapInvariantError, MapSyntaxError,
                        PieceLimitError, PowerLimitError, compose, parse_map,
                        parse_rational)
from pwdyn.orbits import periodic_points
from pwdyn.pinned import PINNED_NAMES, pinned_map, pinned_text
from pwdyn.stability import NotConfinedError, classify_point
from pwdyn.taxonomy import (NOT_APPLICABLE, PreconditionError,
                            attraction_atlas, basin_adjacent_special,
                            count_bound, taxonomy)
from test_piece_kernel import solve_piece


def test_parse_rational():
    assert parse_rational("3/8") == F(3, 8)
    assert parse_rational("-1/8") == F(-1, 8)
    assert parse_rational("2") == F(2)
    with pytest.raises(MapSyntaxError):
        parse_rational("1.5")
    with pytest.raises(MapSyntaxError):
        parse_rational("1/0")


def test_a_bad_rational_string_names_itself():
    """A string argument that is not a rational is a ValueError naming
    the string, not a map-file syntax error at line 0, column 0; a good
    string reads as its Fraction."""
    f = pinned_map("shift")
    calls = (f.value, f.preimage, lambda x: f.lateral(x, PLUS))
    for bad in ("1/0", "x", "1.5", "1/-3"):
        for call in calls:
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == f"invalid rational {bad!r}"
    for call in calls:
        assert call("1/4") == call(F(1, 4))


def test_parse_map_shift(maps):
    f = maps["shift"]
    assert f.a == 0 and f.b == 1
    assert f.breakpoints == (F(1, 2),)
    assert len(f.pieces) == 2


def test_parse_errors():
    with pytest.raises(MapSyntaxError) as err:
        parse_map("interval 0 1\npiece 0 1 : slope x intercept 0\n")
    assert err.value.line == 2
    with pytest.raises(MapInvariantError, match="zero slope"):
        parse_map("interval 0 1\npiece 0 1 : slope 0 intercept 1/2\n")
    with pytest.raises(MapInvariantError, match="cover"):
        parse_map("interval 0 1\npiece 0 1/2 : slope 1 intercept 0\n")
    with pytest.raises(MapInvariantError, match="escapes"):
        parse_map("interval 0 1\npiece 0 1 : slope 2 intercept 0\n")
    with pytest.raises(MapInvariantError, match="empty interval"):
        parse_map("interval 1 0\npiece 1 0 : slope 1 intercept 0\n")


def _invariant_error(*pieces):
    with pytest.raises(MapInvariantError) as err:
        parse_map("interval 0 1\n" + "".join(
            f"piece {x0} {x1} : slope {s} intercept {c}\n"
            for x0, x1, s, c in pieces))
    return str(err.value)


def test_invariant_checks_keep_their_order_and_messages():
    """`_validate` compares piece ends as pairs: a zero-length or reversed
    piece is empty, pieces that leave a gap or overlap do not abut, and
    the per-piece checks (empty, zero slope, image) run, piece by piece,
    before the abutment check."""
    assert _invariant_error(("0", "1/2", "1", "0"), ("1/2", "1/2", "2", "-1/2"),
                            ("1/2", "1", "1/2", "1/4")) \
        == "empty piece (1/2, 1/2)"
    assert _invariant_error(("0", "1/2", "1", "0"), ("1/2", "1/3", "2", "-1/2"),
                            ("1/3", "1", "1/2", "1/4")) \
        == "empty piece (1/2, 1/3)"
    assert _invariant_error(("0", "1/2", "1", "0"), ("1/3", "1", "1", "0")) \
        == "pieces do not abut at 1/2 vs 1/3"
    assert _invariant_error(("0", "1/2", "1", "0"), ("2/3", "1", "1", "0")) \
        == "pieces do not abut at 1/2 vs 2/3"
    assert _invariant_error(("0", "1/2", "1", "0"), ("1/3", "2/3", "0", "0"),
                            ("2/3", "1", "1", "0")) \
        == "zero slope on (1/3, 2/3)"
    assert _invariant_error(("0", "1/2", "1", "0"), ("1/3", "2/3", "1", "0"),
                            ("2/3", "1", "2", "0")) \
        == "image of (2/3, 1) escapes [0, 1]"
    assert _invariant_error(("1/2", "1", "1", "0"),) \
        == "pieces do not cover the interval"


def test_parse_error_column_is_the_token_offset():
    # "1/" is a substring of the earlier "1/2"; the column must still point
    # at the bad token itself
    with pytest.raises(MapSyntaxError) as err:
        parse_map("interval 0 1\npiece 0 1/2 : slope 1/ intercept 0\n")
    assert (err.value.line, err.value.column) == (2, 21)
    assert str(err.value).startswith("line 2, column 21:")


def test_collinear_merge():
    f = parse_map("interval 0 1\n"
                  "piece 0 1/2 : slope 1 intercept 0\n"
                  "piece 1/2 1 : slope 1 intercept 0\n")
    assert len(f.pieces) == 1
    assert f.breakpoints == ()
    assert f.special_points().points == ()


def test_round_trip(maps):
    for f in maps.values():
        assert parse_map(f.to_text()) == f


def test_eval(maps):
    f = maps["shift"]
    assert f.value(F(1, 4)) == F(3, 8)
    assert f.value(F(1, 2)) is None
    assert maps["identity"].value(F(1, 3)) == F(1, 3)
    with pytest.raises(ValueError):
        f.value(F(3, 2))


def test_eval_at_endpoints_and_turns(maps):
    t = maps["tent"]
    assert t.value(0) == 0
    assert t.value(1) == 0
    assert t.value(F(1, 2)) == F(3, 4)


def test_lateral_limits(maps):
    f = maps["shift"]
    assert f.lateral(F(1, 2), "plus") == F(3, 8)
    assert f.lateral(F(1, 2), "minus") == F(5, 8)
    assert maps["identity"].lateral(F(1, 2), "plus") == F(1, 2)
    t = maps["tent"]
    assert t.lateral(F(1, 2), "minus") == t.lateral(F(1, 2), "plus") == F(3, 4)
    with pytest.raises(ValueError):
        f.lateral(1, "plus")


def test_special_points(maps):
    f = maps["shift"]
    sp = f.special_points()
    assert sp.points == (F(1, 2),)
    assert sp.turning == ()
    assert sp.discontinuities == (F(1, 2),)
    t = maps["tent"].special_points()
    assert t.points == t.turning == (F(1, 2),)
    assert t.discontinuities == ()


def test_special_points_semantic_not_representational():
    # same slope on both sides of a matching breakpoint: not special
    f = parse_map("interval 0 1\n"
                  "piece 0 1/2 : slope 1/2 intercept 1/4\n"
                  "piece 1/2 3/4 : slope 2 intercept -1/2\n"
                  "piece 3/4 1 : slope -2 intercept 5/2\n")
    assert f.special_points().points == (F(3, 4),)
    assert f.special_points().turning == (F(3, 4),)


def test_preimage(maps):
    f = maps["shift"]
    assert f.preimage(F(1, 2)) == (F(3, 8), F(5, 8))
    assert maps["tent"].preimage(F(3, 4)) == (F(1, 2),)
    ident = maps["identity"]
    for q in (F(0), F(1, 3), F(1)):
        assert ident.preimage(q) == (q,)


def test_compose_double_shift(maps):
    f = maps["shift"]
    f2 = compose(f, f)
    assert [(p.left, p.right, p.slope, p.intercept) for p in f2.pieces] == [
        (F(0), F(3, 8), F(1), F(1, 4)),
        (F(3, 8), F(5, 8), F(1), F(0)),
        (F(5, 8), F(1), F(1), F(-1, 4))]
    assert f2.special_points().points == (F(3, 8), F(5, 8))
    assert f2.value(F(1, 2)) == F(1, 2)  # the jump healed


def test_compose_identity_neutral(maps):
    f = maps["shift"]
    assert compose(maps["identity"], f) == f
    assert compose(f, maps["identity"]) == f


def test_compose_tent(maps):
    t = maps["tent"]
    t2 = compose(t, t)
    assert t2.breakpoints == (F(1, 3), F(1, 2), F(2, 3))
    assert sorted({abs(p.slope) for p in t2.pieces}) == [F(9, 4)]


def test_compose_interval_mismatch(maps):
    g = parse_map("interval 0 2\npiece 0 2 : slope 1/2 intercept 0\n")
    with pytest.raises(ValueError):
        compose(maps["shift"], g)


def test_piece_guard(monkeypatch):
    monkeypatch.setattr(maps_module, "MAX_PIECES", 2)
    with pytest.raises(PieceLimitError):
        pinned_map("tent").power(2)


def test_iterate(maps):
    f = maps["shift"]
    assert f.power(1) is f
    f2 = f.power(2)
    assert len(f2.pieces) == 3
    t2 = maps["tent"].power(2)
    assert t2.special_points().points == (F(1, 3), F(1, 2), F(2, 3))
    with pytest.raises(PowerLimitError):
        f.power(13)
    with pytest.raises(ValueError):
        f.power(0)


def test_power_validated_on_first_checked_request(monkeypatch):
    # a fresh map, so no earlier test has cached its powers
    t = pinned_map("tent")
    calls = []
    real = maps_module._check_sandwich
    monkeypatch.setattr(maps_module, "_check_sandwich",
                        lambda *a: calls.append(a) or real(*a))
    unchecked = t.power(3, check=False)
    assert calls == []
    assert t.power(3) is unchecked
    assert len(calls) == 2  # powers 2 and 3, each validated once
    t.power(3)
    assert len(calls) == 2


def test_special_preimage_set(maps):
    f = maps["shift"]
    assert f.special_preimage_set(1) == (F(1, 2),)
    assert f.special_preimage_set(2) == (F(3, 8), F(1, 2), F(5, 8))
    assert maps["tent"].special_preimage_set(2) == (F(1, 3), F(1, 2), F(2, 3))


def test_power_inclusion_and_continuous_equality(maps):
    f = maps["shift"]
    s2 = set(f.power(2).special_points().points)
    assert s2 <= set(f.special_preimage_set(2))
    assert not set(f.special_points().points) <= s2  # the jump heals
    t = maps["tent"]
    for n in (1, 2, 3):
        assert set(t.power(n).special_points().points) == \
            set(t.special_preimage_set(n))


def test_map_immutability(maps):
    with pytest.raises(AttributeError):
        maps["shift"].a = F(2)


def test_eval_at_plain_breakpoint():
    f = parse_map("interval 0 1\n"
                  "piece 0 1/2 : slope 1/2 intercept 1/4\n"
                  "piece 1/2 3/4 : slope 2 intercept -1/2\n"
                  "piece 3/4 1 : slope -2 intercept 5/2\n")
    # 1/2 joins two rising pieces with matching limits: defined, not special
    assert f.value(F(1, 2)) == F(1, 2)
    assert f.lateral(F(1, 2), "minus") == f.lateral(F(1, 2), "plus") == F(1, 2)


def _powers(f):
    """The power memo entries of f: {k: power}."""
    return {key[1]: entry for key, entry in f._cache.items()
            if key[0] == "power"}


def _checked(f):
    """The powers of f whose special-point check is memoized."""
    return {key[1] for key in f._cache if key[0] == "power_check"}


def _plant_and_check(fill):
    """Memoize the map of `shift` (which jumps at 1/2, outside tent^2's
    bounds) as the unchecked tent^2, in place of the one `fill` left
    there, and return it and what check=False hands back.  The failed
    check caches nothing, so it raises again on a later request."""
    t = pinned_map("tent")
    fill(t)
    assert 2 in _powers(t) and 2 not in _checked(t)
    wrong = pinned_map("shift")
    t._cache["power", 2] = wrong
    unchecked = t.power(2, check=False)
    for _ in range(2):
        with pytest.raises(MapInvariantError) as err:
            t.power(2)
        assert str(err.value) == ("special points of the composition "
                                  "escaped their exact bounds")
        assert 2 not in _checked(t)
    return wrong, unchecked


def test_a_power_cached_unchecked_is_checked_when_asked():
    """A power built by a check=False call keeps the kernel's end values
    unchecked against the sandwich bounds; the first check=True call runs
    the checks, so a planted wrong power cached that way raises there."""
    wrong, unchecked = _plant_and_check(lambda t: t.power(2, check=False))
    assert unchecked is wrong


def test_a_power_cached_as_segments_is_checked_when_asked():
    """The same for a power that `periodic_points` left in the cache, a
    map built from the kernel's segments and read as segments there: it is
    checked on the first check=True request."""
    wrong, unchecked = _plant_and_check(lambda t: periodic_points(t, 2))
    assert unchecked is wrong


def _warm(name):
    """A pinned map whose power memo `periodic_points` filled: powers 2
    and 3 as maps that hold their segments alone, no Fraction piece made,
    and are not yet checked."""
    f = pinned_map(name)
    periodic_points(f, 3, max_power=6)
    assert sorted(_powers(f)) == [2, 3] and _checked(f) == set()
    assert all(("pieces",) not in power._cache
               for power in _powers(f).values())
    return f


def _raw_count(f, k):
    """The most pieces any of f's powers 2..k has before merging."""
    return max(len(maps_module._push_segments(maps_module._table(f),
                                              f._power(j - 1)._segs))
               for j in range(2, k + 1))


@pytest.mark.parametrize("name", PINNED_NAMES)
def test_powers_cached_by_periodic_points_act_as_fresh_ones(name,
                                                            monkeypatch):
    """Each power asked for after `periodic_points` validates every power
    up to it once, equals a fresh map's power, and is the same object
    when asked for again.  Below its raw piece count, a power raises a
    fresh map's PieceLimitError, also on a map where `periodic_points` at
    that budget cached what fit and raised."""
    calls = []
    real = maps_module._check_sandwich
    monkeypatch.setattr(maps_module, "_check_sandwich",
                        lambda *a: calls.append(a) or real(*a))
    for k in range(2, 7):
        want = pinned_map(name).power(k)
        raw = _raw_count(pinned_map(name), k)
        for budget in range(1, raw):
            with monkeypatch.context() as m:
                m.setattr(maps_module, "MAX_PIECES", budget)
                with pytest.raises(PieceLimitError) as cold:
                    pinned_map(name).power(k)
                tried = pinned_map(name)
                try:
                    periodic_points(tried, 3, max_power=6)
                except PieceLimitError:
                    pass
                with pytest.raises(PieceLimitError) as cached:
                    tried.power(k)
            assert str(cached.value) == str(cold.value)
        warm = _warm(name)
        calls.clear()
        got = warm.power(k)
        assert len(calls) == k - 1
        assert got == want
        assert warm.power(k) is got and warm.power(k, check=False) is got
        assert len(calls) == k - 1
        assert _checked(warm) == set(range(2, k + 1))


def test_checked_powers_and_compositions_make_no_fraction_piece(
        monkeypatch):
    """A map holds its int segments alone: the checked powers 2..8 and
    the checked compositions of the pinned maps are built, validated and
    checked without one `_affine` call, `to_text` formats the segments
    without one, and a map's Fraction pieces are made once, when `pieces`
    first reads them."""
    calls = []
    real = maps_module._affine
    monkeypatch.setattr(maps_module, "_affine",
                        lambda segs: calls.append(segs) or real(segs))
    pinned = [pinned_map(name) for name in PINNED_NAMES]
    built = [f.power(8) for f in pinned]
    built += [compose(f, g) for f in pinned for g in pinned]
    assert calls == []
    assert all(("pieces",) not in h._cache for h in built)
    text = built[0].to_text()
    assert calls == []
    pieces = built[-1].pieces
    assert len(calls) == 1
    assert built[0].to_text() == text and built[-1].pieces is pieces
    assert len(calls) == 1


def test_analysis_reads_no_fraction_piece(monkeypatch):
    """Side pieces, slopes and piece directions are read off the int
    segments through the map's one side locator: stability verdicts,
    periodic orbits, taxonomy, the count bound, the attraction atlas,
    basin witnesses, the certifier, codes, regular attractors and lateral
    limits of every pinned map make no `_affine` call."""
    calls = []
    real = maps_module._affine
    spy = lambda segs: calls.append(segs) or real(segs)  # noqa: E731
    monkeypatch.setattr(maps_module, "_affine", spy)
    monkeypatch.setattr(taxonomy_module, "_affine", spy)
    done = Counter()
    for name in PINNED_NAMES:
        f = pinned_map(name)
        special = f.special_points().points
        for x in (f.a, *special, f.b):
            try:
                classify_point(f, x, require_confined=False)
                done["classify"] += 1
            except NotConfinedError:
                pass
        for w in f.breakpoints:
            done["lateral"] += f.lateral(w, MINUS) != f.lateral(w, PLUS)
        orbits = periodic_points(f, 8, max_power=16)
        for orb in orbits:
            try:
                tax = taxonomy(f, orb)
            except NOT_APPLICABLE:
                continue
            done["taxonomy"] += 1
            if tax.free and not tax.exceptional and special:
                wits = basin_adjacent_special(f, orb)
                done["basin"] += len(wits)
                done["fold"] += sum(wit.side == "both" for wit in wits)
        done["balls"] += sum(map(len, attraction_atlas(f, orbits).values()))
        done["locks"] += len(Certifier.of(f).balls)
        if special:
            done["bound"] += count_bound(f).count_found
        for w in special:
            try:
                done["codes"] += len(codes(f, w))
            except CodeUndefinedError:
                pass
            try:
                regular_attractor(f, w)
                done["regular"] += 1
            except PreconditionError:
                pass
    assert calls == []
    assert min(done.values()) > 0 and len(done) == 10, done


def test_one_form_per_function():
    """A map's stored segments are canonical: the map read back from the
    text of every pinned composition and of every pinned power 1..8 has
    the same segments, compares equal and hashes the same, and two of
    these maps compare equal exactly when their texts are equal.  So do a
    parsed slope 1/2, intercept 1/2 and the composition that builds it,
    whose coefficients reduce to (1, 1, 2), not the (2, 2, 4) of the
    products of their numerators and denominators."""
    pinned = [pinned_map(name) for name in PINNED_NAMES]
    built = [compose(f, g) for f in pinned for g in pinned]
    built += [f.power(n) for f in pinned for n in range(1, 9)]
    texts = [h.to_text() for h in built]
    for h, text in zip(built, texts):
        back = parse_map(text)
        assert back._segs == h._segs and back == h, text
        assert hash(back) == hash(h)
        assert [h == g for g in built] == [text == t for t in texts]
    half = parse_map("interval 0 1\npiece 0 1 : slope 1/2 intercept 1/2\n")
    made = compose(half, pinned_map("identity"))
    assert half._segs == made._segs == (((0, 1), (1, 1), (1, 2), (1, 1),
                                         (1, 1, 2)),)
    assert half == made and hash(half) == hash(made)


def _generated_maps(count):
    cfg = GeneratorConfig(seed=5)
    return [random_map(cfg.sub("preimage", i)) for i in range(count)]


def _oracle_preimage(f, y):
    """Brute force: solve in every piece, then test the value at a, b and
    every breakpoint, evaluated from the pieces' lateral limits."""
    found = {x for p in f.pieces for x in [solve_piece(p, y)] if p.left < x < p.right}
    found |= {w for w in (f.a, f.b, *f.breakpoints)
              if (w == f.b or f.lateral(w, PLUS) == y)
              and (w == f.a or f.lateral(w, MINUS) == y)}
    return tuple(sorted(found))


def test_preimage_is_complete(maps):
    rng = random.Random(17)
    checked = 0
    for f0 in [*maps.values(), *_generated_maps(100)]:
        for n in (1, 2, 3):
            f = f0.power(n)
            # every piece endpoint value, both sides of every jump, the
            # common value at turns and removable breakpoints, random
            # rationals and targets outside [a, b]
            targets = {p.value_at(x) for p in f.pieces
                       for x in (p.left, p.right)}
            targets |= {f.lateral(w, side) for w in f.breakpoints
                        for side in (MINUS, PLUS)}
            targets |= {F(rng.randint(-8, 24), rng.randint(1, 16))
                        for _ in range(6)}
            targets |= {f.a - F(1, 7), f.b + F(1, 3)}
            for y in targets:
                assert f.preimage(y) == _oracle_preimage(f, y), \
                    (f.to_text(), y)
                checked += 1
    assert checked > 3000


def _special_union_from_scratch(f, n):
    level = set(f.special_points().points)
    union = set(level)
    for _ in range(n - 1):
        level = {x for y in level for x in _oracle_preimage(f, y)}
        union |= level
    return tuple(sorted(union))


def test_special_preimage_set_does_not_depend_on_call_order():
    texts = [pinned_text(name) for name in PINNED_NAMES]
    texts += [f.to_text() for f in _generated_maps(12)]
    for text in texts:
        f = parse_map(text)
        increasing = [f.special_preimage_set(n) for n in range(1, 9)]
        f = parse_map(text)
        f.special_preimage_set(8)
        top_first = [f.special_preimage_set(n) for n in range(1, 9)]
        alone = [parse_map(text).special_preimage_set(n) for n in range(1, 9)]
        expected = [_special_union_from_scratch(f, n) for n in range(1, 9)]
        assert increasing == top_first == alone == expected, text
    with pytest.raises(ValueError):
        parse_map(texts[0]).special_preimage_set(0)


def _mutate(text, rng):
    """Drop, duplicate or swap a token, perturb a rational, or delete a
    line (never the last one left)."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    op = rng.choice(["drop", "duplicate", "swap", "perturb", "delete"])
    if op == "delete" and len(lines) > 1:
        del lines[i]
        return "\n".join(lines) + "\n"
    j = rng.randrange(len(tokens))
    if op == "drop":
        del tokens[j]
    elif op == "duplicate":
        tokens.insert(j, tokens[j])
    elif op == "swap":
        k = rng.randrange(len(tokens))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    else:
        spots = [k for k, t in enumerate(tokens)
                 if maps_module._RATIONAL_RE.fullmatch(t)
                 and not t.endswith("/0")]
        if spots:
            k = rng.choice(spots)
            tokens[k] = rng.choice([
                str(F(tokens[k]) + F(rng.randint(-3, 3), rng.randint(1, 8))),
                str(-F(tokens[k])),
                f"{rng.randint(-2, 9)}/{rng.randint(0, 9)}",
                tokens[k] + "/", "1.5"])
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_parser_fuzz_round_trips_or_points_inside_the_input():
    rng = random.Random(2024)
    outcomes = {"accepted": 0, "syntax": 0, "invariant": 0}
    for name in PINNED_NAMES:
        for _ in range(120):
            text = pinned_text(name)
            for _ in range(rng.randint(1, 2)):
                text = _mutate(text, rng)
            try:
                f = parse_map(text)
            except MapInvariantError:
                outcomes["invariant"] += 1
            except MapSyntaxError as err:
                lines = text.splitlines()
                assert 1 <= err.line <= len(lines), (text, str(err))
                assert 1 <= err.column <= len(lines[err.line - 1]), \
                    (text, str(err))
                outcomes["syntax"] += 1
            else:
                assert parse_map(f.to_text()) == f, text
                outcomes["accepted"] += 1
    assert min(outcomes.values()) > 20, outcomes
