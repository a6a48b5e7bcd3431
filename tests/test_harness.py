import hashlib

import pytest

from pwdyn import harness
from pwdyn.harness import (Bundle, GeneratorConfig, PREDICATES, random_map,
                           run_suite, shrink)
from pwdyn.maps import parse_map
from pwdyn.taxonomy import TaxonomyViolation


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
