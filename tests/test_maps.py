from fractions import Fraction as F

import pytest

from pwdyn import maps as maps_module
from pwdyn.maps import (MapInvariantError, MapSyntaxError,
                        PieceLimitError, PowerLimitError, compose, parse_map,
                        parse_rational)
from pwdyn.pinned import pinned_map


def test_parse_rational():
    assert parse_rational("3/8") == F(3, 8)
    assert parse_rational("-1/8") == F(-1, 8)
    assert parse_rational("2") == F(2)
    with pytest.raises(MapSyntaxError):
        parse_rational("1.5")
    with pytest.raises(MapSyntaxError):
        parse_rational("1/0")


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


def test_piece_guard(maps):
    with pytest.raises(PieceLimitError):
        compose(maps["tent"], maps["tent"], guard=2)


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


@pytest.mark.parametrize("name", ["tent", "shift"])
def test_cached_power_honours_a_smaller_guard(name):
    fresh = pinned_map(name)
    with pytest.raises(PieceLimitError) as cold:
        fresh.power(6, guard=4, check=False)
    warm = pinned_map(name)
    warm.power(6, check=False)
    with pytest.raises(PieceLimitError) as cached:
        warm.power(6, guard=4, check=False)
    assert str(cached.value) == str(cold.value)
