from fractions import Fraction as F

import pytest

from pwdyn.maps import parse_map
from pwdyn.orbits import periodic_points, structure
from pwdyn.pinned import pinned_map
from pwdyn.stability import (CONTRACTING, EXPANDING, NEUTRAL, NotConfinedError,
                             SEMI_STABLE, STABLE, UNSTABLE, classify_point,
                             classify_side, cycle_stability_report,
                             find_connection, lateral_oracle, oracle_classify,
                             stability_propagation_report,
                             subsampled_stability_report)


def test_classify_side_examples(maps):
    side = classify_side(maps["contraction"], F(1, 2), "plus")
    assert side.verdict == CONTRACTING and side.cycle_product == F(1, 2)
    side = classify_side(maps["shift"], F(1, 2), "plus")
    assert side.verdict == NEUTRAL and side.cycle_product == 1
    side = classify_side(maps["tent"], F(3, 5), "minus")
    assert side.verdict == EXPANDING and side.cycle_product == F(9, 4)


def test_classify_point_examples(maps):
    assert classify_point(maps["contraction"], F(1, 2)) == STABLE
    assert classify_point(maps["identity"], F(2, 7)) == UNSTABLE
    assert classify_point(maps["semistable"], F(1, 2)) == SEMI_STABLE
    assert classify_point(maps["shift"], F(1, 2)) == UNSTABLE
    assert classify_point(maps["tent"], F(3, 5)) == UNSTABLE


def test_classify_endpoint_convention(maps):
    # only the inward side exists at an endpoint: stable or unstable
    assert classify_point(maps["tent"], F(0)) == UNSTABLE
    f = parse_map("interval 0 1\npiece 0 1 : slope 1/2 intercept 0\n")
    assert classify_point(f, F(0)) == STABLE


def test_classify_requires_confined():
    f = parse_map("interval 0 1\npiece 0 1 : slope 2/3 intercept 1/4\n")
    with pytest.raises(NotConfinedError):
        classify_point(f, F(1, 7))


def test_oracle_matches_germ_on_pinned(maps):
    cases = [
        ("contraction", F(1, 2)), ("identity", F(1, 3)),
        ("semistable", F(1, 2)), ("shift", F(1, 2)), ("shift", F(3, 8)),
        ("tent", F(3, 5)), ("tent", F(0)), ("hat", F(7, 12)),
        ("twocycle", F(1, 3)), ("decreasing2", F(1, 4)),
        ("decreasing2", F(1, 2)),
    ]
    for name, x in cases:
        f = maps[name]
        assert classify_point(f, x, require_confined=False) == \
            oracle_classify(f, x), (name, x)


def test_oracle_side_verdicts(maps):
    assert lateral_oracle(maps["semistable"], F(1, 2), "minus") == CONTRACTING
    assert lateral_oracle(maps["semistable"], F(1, 2), "plus") == EXPANDING
    assert lateral_oracle(maps["shift"], F(1, 2), "plus") == NEUTRAL


def test_connection_levels(maps):
    f = maps["shift"]
    st = structure(f, F(1, 2))
    conn = find_connection(f, st, F(3, 8), F(1, 2), 4)
    assert conn is not None and conn.iterates == (1, 1)
    t = maps["tent"]
    stt = structure(t, F(3, 5))
    conn = find_connection(t, stt, F(3, 5), F(3, 5), 4)
    assert conn is not None and conn.iterates == (0, 0)
    # a level 4 witness yields level 1 witnesses from each germ
    assert find_connection(f, st, F(3, 8), F(1, 2), 1) is not None


def test_connection_absent_pair(maps):
    fc = maps["fourcycle"]
    st = structure(fc, F(1, 8))
    assert st.closed
    for level in (1, 2, 3, 4):
        assert find_connection(fc, st, F(1, 8), F(5, 8), level) is None
        assert find_connection(fc, st, F(5, 8), F(1, 8), level) is None


def test_propagation_reports_clean(maps):
    for name in ("shift", "fourcycle", "contraction", "semistable"):
        f = maps[name]
        for root in (f.special_points().discontinuities
                     or (f.preimage(f.value(F(1, 2)) or F(1, 2)) and [F(1, 2)])
                     or [F(1, 2)]):
            st = structure(f, root)
            if not st.closed:
                continue
            rep = stability_propagation_report(f, st)
            assert rep.consistent, rep.violations


def test_cycle_report_shift(maps):
    f = maps["shift"]
    rep = cycle_stability_report(f, structure(f, F(1, 2)))
    assert rep.consistent
    assert rep.completely_periodic
    assert rep.core == (F(1, 2),)
    assert rep.core_choice_matters
    assert "twin_half_cycles" in rep.applied
    assert set(rep.verdicts.values()) == {UNSTABLE}
    assert sorted(set(map(frozenset, rep.cycles))) in (
        sorted({frozenset({F(3, 8), F(1, 2)}), frozenset({F(1, 2), F(5, 8)})}),
        [frozenset({F(3, 8), F(1, 2)}), frozenset({F(1, 2), F(5, 8)})],
    )


def test_cycle_report_single_node(maps):
    f = maps["contraction"]
    rep = cycle_stability_report(f, structure(f, F(1, 2)))
    assert rep.consistent
    assert rep.verdicts[F(1, 2)] == STABLE


def test_subsampled_stability(maps):
    f = maps["twocycle"]
    orb = [o for o in periodic_points(f, 2) if o.period == 2][0]
    rep = subsampled_stability_report(f, orb)
    assert rep.consistent and rep.germ_class == STABLE
    t = maps["tent"]
    orb = [o for o in periodic_points(t, 1) if o.points == (F(3, 5),)][0]
    rep = subsampled_stability_report(t, orb)
    assert rep.consistent and rep.germ_class == UNSTABLE
    c = maps["contraction"]
    rep = subsampled_stability_report(c, periodic_points(c, 1)[0])
    assert rep.consistent and rep.germ_class == STABLE


STABLE_TWINS = """interval 0 1
piece 0 3/8 : slope -1/2 intercept 5/8
piece 3/8 1/2 : slope -3/2 intercept 1
piece 1/2 1 : slope 1/2 intercept 1/4
"""

SEMI_TWINS = """interval 0 1
piece 0 3/8 : slope -1/2 intercept 5/8
piece 3/8 1/2 : slope -3/2 intercept 1
piece 1/2 5/8 : slope 2 intercept -1/2
piece 5/8 1 : slope -1/2 intercept 17/16
"""


def test_stable_twin_half_cycles():
    # a jump whose plus germ is a contracting fixed germ and whose minus
    # germ runs a contracting 2-cycle: every node stable, rules consistent
    f = parse_map(STABLE_TWINS)
    st = structure(f, F(1, 2))
    assert st.nodes == (F(1, 4), F(1, 2)) and st.closed
    assert all(classify_point(f, p, require_confined=False) == STABLE
               for p in st.nodes)
    rep = cycle_stability_report(f, st)
    assert rep.consistent and "twin_half_cycles" in rep.applied
    assert stability_propagation_report(f, st).consistent
    halves = {o.anchor_side: o for o in periodic_points(f, 2)
              if o.kind == "half_point"}
    assert halves["plus"].points == (F(1, 2),) and halves["plus"].period == 1
    assert set(halves["minus"].points) == {F(1, 2), F(1, 4)}
    assert halves["minus"].period == 2


def test_semi_stable_twin_half_cycles():
    # expanding plus germ, contracting minus cycle: semi-stable throughout,
    # exercising the semi-stable branches of both rule tables
    f = parse_map(SEMI_TWINS)
    st = structure(f, F(1, 2))
    assert all(classify_point(f, p, require_confined=False) == SEMI_STABLE
               for p in st.nodes)
    rep = cycle_stability_report(f, st)
    assert rep.consistent and "twin_half_cycles" in rep.applied
    assert stability_propagation_report(f, st).consistent


def test_connections_after_a_report_match_a_fresh_map():
    def connections(f):
        st = structure(f, F(1, 2))
        return [find_connection(f, st, y, z, level) for y in st.nodes
                for z in st.nodes for level in (1, 2, 3, 4)]

    warm = pinned_map("shift")
    stability_propagation_report(warm, structure(warm, F(1, 2)))
    assert connections(warm) == connections(pinned_map("shift"))
