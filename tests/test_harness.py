import hashlib
import zlib
from collections import Counter
from types import SimpleNamespace

import pytest

from pwdyn import harness, orbits
from pwdyn.harness import (Bundle, GeneratorConfig, PREDICATES, random_map,
                           run_suite, shrink)
from pwdyn.maps import (PieceLimitError, PiecewiseMap, PowerLimitError,
                        parse_map)
from pwdyn.orbits import VariantLimitError
from pwdyn.stability import CycleBudgetError
from pwdyn.taxonomy import PreconditionError, TaxonomyViolation, TrapResult


def test_generation_deterministic():
    cfg = GeneratorConfig(seed=1234)
    assert random_map(cfg).to_text() == random_map(cfg).to_text()
    other = random_map(GeneratorConfig(seed=1235))
    assert other.to_text() != random_map(cfg).to_text()


def test_generation_bias_zero_is_continuous():
    for seed in range(20):
        f = random_map(GeneratorConfig(seed=seed, discontinuity_bias=0.0))
        assert f.special_points().discontinuities == ()


def test_generation_bias_one_all_jumps():
    for seed in range(20):
        f = random_map(GeneratorConfig(seed=seed, discontinuity_bias=1.0,
                                       max_pieces=4))
        assert len(f.special_points().discontinuities) == len(f.breakpoints)


def test_generation_denominators_bounded():
    cfg = GeneratorConfig(seed=9, denominator_bound=8)
    f = random_map(cfg)
    for w in f.breakpoints:
        assert w.denominator <= 8


@pytest.fixture
def failing_bundle():
    # synthetic predicate: fails whenever the map still has >= 2 jumps
    def pred(f, context):
        return len(f.special_points().discontinuities) >= 2

    PREDICATES["synthetic_two_jumps"] = pred
    f = random_map(GeneratorConfig(seed=77, discontinuity_bias=1.0,
                                   max_pieces=6, denominator_bound=32))
    assert len(f.special_points().discontinuities) >= 2
    yield Bundle("synthetic_two_jumps", f.to_text(), {}, "synthetic")
    del PREDICATES["synthetic_two_jumps"]


def test_shrink_reduces_and_preserves_failure(failing_bundle):
    small = shrink(failing_bundle)
    f_small = parse_map(small.map_text)
    f_orig = parse_map(failing_bundle.map_text)
    assert len(f_small.pieces) <= len(f_orig.pieces)
    assert len(f_small.special_points().discontinuities) >= 2
    again = shrink(failing_bundle)
    assert again.map_text == small.map_text  # deterministic
    assert shrink(small).map_text == small.map_text  # fixed point


def test_shrink_rejects_passing_bundle(failing_bundle):
    passing = Bundle("synthetic_two_jumps",
                     "interval 0 1\npiece 0 1 : slope 1/2 intercept 0\n",
                     {}, "not actually failing")
    with pytest.raises(ValueError, match="not failing"):
        shrink(passing)


def test_suite_runs_and_reports():
    cfg = GeneratorConfig(seed=5)
    rep = run_suite(cfg, {"pinned_double_shift", "preimage_finite_exact"},
                    counts={"preimage_finite_exact": 50})
    assert rep.total_fails == 0
    assert rep.results["preimage_finite_exact"].passes == 50
    text = rep.summary()
    assert "pinned_double_shift" in text


def test_suite_determinism():
    cfg = GeneratorConfig(seed=31)
    which = {"preimage_finite_exact", "composition_sandwich"}
    counts = {"preimage_finite_exact": 40, "composition_sandwich": 40}
    first = run_suite(cfg, which, counts=counts).canonical_json()
    second = run_suite(cfg, which, counts=counts).canonical_json()
    assert first == second


def test_orbit_invariants_exhibit_intersection():
    # jump maps must produce at least one generated pair of distinct,
    # intersecting periodic orbits
    cfg = GeneratorConfig(seed=20240 + 817)
    rep = run_suite(cfg, {"orbit_invariants"}, counts={"orbit_invariants": 150})
    result = rep.results["orbit_invariants"]
    assert result.fails == 0
    assert result.extra["intersecting_distinct_orbits"] >= 1


def test_bug_class_errors_fail_the_suite(monkeypatch):
    # a TaxonomyViolation means an implementation bug, never a skip
    def broken(*args, **kwargs):
        raise TaxonomyViolation("planted violation")

    monkeypatch.setattr(harness, "count_bound", broken)
    with pytest.raises(TaxonomyViolation, match="planted violation"):
        run_suite(GeneratorConfig(seed=7), {"orbit_count_bound"},
                  counts={"orbit_count_bound": 3})


@pytest.mark.parametrize("name, call", [("orbit_count_bound", "count_bound"),
                                        ("composition_sandwich", "compose")])
def test_bug_class_errors_stop_the_shrinker(monkeypatch, name, call):
    # the planted call fails the bundle's map (for the sandwich, through
    # emptied bounds) and raises a TaxonomyViolation on every shrink
    # candidate: the bug propagates, where a skip on it would return the
    # unshrunk map as the smallest failing one
    tent = parse_map("interval 0 1\npiece 0 1/2 : slope 3/2 intercept 1/8\n"
                     "piece 1/2 1 : slope -3/2 intercept 13/8\n")
    real = getattr(harness, call)

    def planted(f, *args, **kwargs):
        if f != tent:
            raise TaxonomyViolation("planted")
        if call == "count_bound":
            return SimpleNamespace(holds=False)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(harness, call, planted)
    if call == "compose":
        monkeypatch.setattr(harness, "_sandwich_bounds",
                            lambda f, g: (set(), set()))
    bundle = Bundle(name, tent.to_text(),
                    {"horizon": "8", "second_map": tent.to_text()}, "planted")
    assert harness._reductions(tent)
    with pytest.raises(TaxonomyViolation, match="planted"):
        shrink(bundle)


def test_taxonomy_rules_sweep_every_orbit_point(monkeypatch):
    # `taxonomy` may sweep one window per orbit; the suite sweeps a window
    # at every point, so a `_trap` planted to disagree with `taxonomy` on
    # the orbits of period 2 and up fails each such map, and only those
    real = harness._trap

    def planted(f, x, n, gaps):
        trap = real(f, x, n, gaps)
        return TrapResult(not trap.trapped) if n > 1 else trap

    counts = {"taxonomy_rules": 20}
    clean = run_suite(GeneratorConfig(seed=7), {"taxonomy_rules"},
                      counts=counts).results["taxonomy_rules"]
    monkeypatch.setattr(harness, "_trap", planted)
    r = run_suite(GeneratorConfig(seed=7), {"taxonomy_rules"},
                  counts=counts).results["taxonomy_rules"]
    assert clean.fails == 0 and r.fails > 0 and r.passes > 0
    assert r.passes + r.fails == clean.passes
    assert {b.message for b in r.bundles} == {"trapped flag not uniform"}


def test_attractor_duality_enumerates_each_map_once(monkeypatch):
    # the suite's `periodic_points` calls and those of `codes` all hold the
    # powers to the one piece budget, so one seed-7 run builds the orbits
    # of each (map, max_period) once
    built = []
    real = orbits._periodic_orbits
    monkeypatch.setattr(orbits, "_periodic_orbits",
                        lambda f, n, *rest: built.append((f, n))
                        or real(f, n, *rest))
    r = run_suite(GeneratorConfig(seed=7),
                  {"attractor_duality"}).results["attractor_duality"]
    assert r.fails == 0
    counts = Counter((id(f), n) for f, n in built)
    assert len(counts) > 50 and {n for _, n in counts} == {4, 8}
    assert max(counts.values()) == 1


def test_memo_properties_keep_their_canonical_report():
    # the properties that read per-map memos, at a fixed seed and size
    counts = {"attractor_duality": 30, "code_invariants": 30,
              "basin_witnesses": 30, "propagation_table": 60,
              "orbit_count_bound": 60}
    report = run_suite(GeneratorConfig(seed=7), set(counts), counts=counts)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest[:16] == "0a28b0e9acb9e8af"


def test_fixed_setting_properties_keep_their_canonical_report():
    # the properties behind the oracle, cycle budget, sweep caps and
    # generator, at a fixed seed and size
    counts = {"orbit_invariants": 150, "stability_oracle_agreement": 30,
              "cycle_rules": 60, "subsample_stability": 30,
              "exceptional_exclusivity": 60}
    report = run_suite(GeneratorConfig(seed=7), set(counts), counts=counts)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest[:16] == "825e0a7a8a7bb0e4"


def test_uncovered_properties_keep_their_canonical_report():
    # the properties no other digest covers, at a fixed seed and size
    counts = {"preimage_finite_exact": 200, "composition_sandwich": 200,
              "power_special_inclusion": 60, "compose_associativity": 60,
              "eval_lateral_coherence": 60, "taxonomy_rules": 60,
              "pinned_double_shift": 1}
    report = run_suite(GeneratorConfig(seed=7), set(counts), counts=counts)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest[:16] == "50b54cc365994928"


# Each property with a skip site, the calls its skips guard, and its
# (passes, fails, skips) at seed 7 and count 12 when each of those calls
# raises a NOT_APPLICABLE error on about every other map.
GUARDED = {
    "composition_sandwich": (("compose",), (4, 0, 8)),
    "power_special_inclusion": (("power",), (5, 0, 7)),
    "compose_associativity": (("compose",), (0, 0, 12)),
    "orbit_invariants": (("periodic_points",), (5, 0, 7)),
    "stability_oracle_agreement": (("classify_point", "oracle_classify"),
                                   (21, 0, 41)),
    "propagation_table": (("stability_propagation_report",), (12, 0, 10)),
    "cycle_rules": (("cycle_stability_report",), (12, 0, 14)),
    "subsample_stability": (("periodic_points",
                             "subsampled_stability_report"), (6, 0, 14)),
    "taxonomy_rules": (("periodic_points",), (7, 0, 5)),
    "exceptional_exclusivity": (("periodic_points",), (7, 0, 5)),
    "basin_witnesses": (("periodic_points", "basin_adjacent_special"),
                        (1, 0, 17)),
    "orbit_count_bound": (("count_bound",), (1, 0, 11)),
    "attractor_duality": (("Certifier.of", "regular_attractor",
                           "periodic_points", "attractor_regular_source"),
                          (5, 0, 13)),
    "code_invariants": (("Certifier.of",), (7, 0, 7)),
}

# The NOT_APPLICABLE error planted in each call: compose and power get
# PieceLimitError, the one such error they can raise, and
# attractor_regular_source none that its no-skip catch passes over.
PLANTED = {"compose": PieceLimitError, "power": PieceLimitError,
           "periodic_points": VariantLimitError,
           "classify_point": CycleBudgetError,
           "oracle_classify": CycleBudgetError,
           "stability_propagation_report": CycleBudgetError,
           "cycle_stability_report": CycleBudgetError,
           "subsampled_stability_report": PowerLimitError,
           "basin_adjacent_special": PreconditionError,
           "count_bound": PreconditionError,
           "Certifier.of": PowerLimitError,
           "regular_attractor": PreconditionError,
           "attractor_regular_source": PowerLimitError}


def _plant(monkeypatch, name, raises):
    """Make the harness's `name` raise the error `raises(f)` gives for the
    map f it is called on, or None to call through."""
    if name == "power":
        owner, attr, real = PiecewiseMap, "power", PiecewiseMap.power
    elif name == "Certifier.of":
        owner, attr, real = harness, "Certifier", harness.Certifier.of
    else:
        owner, attr = harness, name
        real = getattr(harness, name)

    def planted(f, *args, **kwargs):
        error = raises(f)
        if error is not None:
            raise error("planted")
        return real(f, *args, **kwargs)

    if name == "Certifier.of":
        planted = type("Certifier", (), {"of": staticmethod(planted)})
    monkeypatch.setattr(owner, attr, planted)


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_planted_skips_keep_their_counts(monkeypatch, name):
    # each call fails on every other map, by the parity of the crc32 of the
    # call's name and the map's text: the planted skips fall on the same
    # maps whatever order the calls come in, and a call guarded inside a
    # case fails on maps whose earlier calls did not.  Planting by call
    # parity would leave orbit_invariants' own skip unfired, as
    # closed_structures takes every second periodic_points call.
    calls, expected = GUARDED[name]
    for call in calls:
        _plant(monkeypatch, call, lambda f, call=call: PLANTED[call]
               if zlib.crc32((call + f.to_text()).encode()) % 2 else None)
    r = run_suite(GeneratorConfig(seed=7), {name},
                  counts={name: 12}).results[name]
    assert (r.passes, r.fails, r.skips) == expected


@pytest.mark.parametrize("name, call", sorted(
    [(name, call) for name, (calls, _) in GUARDED.items() for call in calls]
    + [("exceptional_exclusivity", "exceptional_census")]))
def test_planted_violations_are_not_skips(monkeypatch, name, call):
    # a TaxonomyViolation in a skip-guarded call stops the suite; only
    # exceptional_census, whose violation is exceptional_exclusivity's
    # check, records it as a failure of every map
    _plant(monkeypatch, call, lambda f: TaxonomyViolation)
    cfg, counts = GeneratorConfig(seed=7), {name: 12}
    if call == "exceptional_census":
        r = run_suite(cfg, {name}, counts=counts).results[name]
        assert (r.passes, r.fails, r.skips) == (0, 12, 0)
        return
    with pytest.raises(TaxonomyViolation, match="planted"):
        run_suite(cfg, {name}, counts=counts)


@pytest.mark.parametrize("name, call", [
    ("orbit_invariants", "variants"), ("taxonomy_rules", "classify_point"),
    ("basin_witnesses", "attracted"), ("attractor_duality", "is_regular"),
    ("code_invariants", "avoids_special_forever")])
def test_unguarded_calls_are_not_skips(monkeypatch, name, call):
    # a NOT_APPLICABLE error from a call no skip guards stops the suite, so
    # a case that skips on its first call does not skip on its later ones
    _plant(monkeypatch, call, lambda f: CycleBudgetError)
    with pytest.raises(CycleBudgetError, match="planted"):
        run_suite(GeneratorConfig(seed=7), {name}, counts={name: 12})


@pytest.mark.parametrize("seed, digest", [(7, "2339bff4bb0312fb"),
                                          (21057, "8b72f4caccd69b7f")])
def test_canonical_suite_hashes(seed, digest):
    """The canonical suite JSON, as `pwdyn suite --seed S --format json`
    prints it, keeps its sha256 prefix at both pinned seeds."""
    text = run_suite(GeneratorConfig(seed=seed)).canonical_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
