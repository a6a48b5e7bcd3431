"""Seeded random map generation and the corpus-level property suite.

Every structural fact the library relies on is checked here against randomly
generated maps plus the pinned examples.  Generation is rejection sampling on
a rational grid, deterministic for a fixed seed down to the emitted map text.
Failures carry replayable bundles (map text plus a JSON context block) and a
greedy deterministic shrinker.  The slope palettes deliberately overweight
magnitude-one branches: the neutral regime is where the edge cases live.

Each property counts its cases on one `PropertyResult`.  A case passes
exactly when it records no failure (`case()`).  A NOT_APPLICABLE error, a
failed precondition or any `BudgetError`, becomes a skip in `skipping()`,
around a whole case or, through `call()`, around one call; the shrinker
passes over a candidate on one.  A case skipped that way neither passes
nor fails; when only one part of it (a structure, orbit or point) is
skipped, the case still passes or fails on the rest.  Three NOT_APPLICABLE
catches skip with no count: where `periodic_points` does not apply,
`closed_structures` leaves out the periodic roots and `attractor_duality`
the orbits; and `attractor_duality` passes over the orbits
`attractor_regular_source` rejects with a PreconditionError.  Every other
error propagates: a `BugError` is a failure where a property checks for it
and stops the suite elsewhere.  `basin_witnesses` alone passes a map only
when some witness holds, and skips it otherwise.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .codes import (NO, UNKNOWN, YES, Certifier, CertificationError,
                    CodeUndefinedError, attractor_regular_source, codes,
                    avoids_special_forever, is_regular, regular_attractor,
                    regularity_certificate, RegularityCertificate)
from .maps import (MapInvariantError, PiecewiseMap, PwdynError,
                   _from_segments, _pair, _reduced, _sandwich_bounds,
                   _segment, compose, parse_map)
from .orbits import (HALF_POINT, POINT, Germ, _germ_key, _germ_walk, orbit,
                     periodic_points, special_gaps, structure,
                     variant_step, variants, walk)
from .pinned import pinned_maps
from .stability import (UNSTABLE, classify_point, cycle_stability_report,
                        germs_of, oracle_classify,
                        stability_propagation_report,
                        subsampled_stability_report)
from .taxonomy import (NOT_APPLICABLE, PreconditionError, TaxonomyViolation,
                       _trap, attracted, basin_adjacent_special, count_bound,
                       exceptional_census, taxonomy)


GENERATION_ATTEMPTS = 400  # rejection-sampling draws per generated map
# Structure node cap of the corpus sweeps.
SWEEP_NODE_CAP = 72


class GenerationError(PwdynError):
    """Rejection sampling ran out of budget for a pathological config."""


PALETTES = {
    "neutral-rich": [Fraction(1)] * 3 + [Fraction(-1)] * 3
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)],
    "contracting-rich": [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                         Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3),
                         Fraction(1), Fraction(-1), Fraction(3, 4),
                         Fraction(-3, 4)],
    "expanding-rich": [Fraction(2), Fraction(-2), Fraction(3), Fraction(-3),
                       Fraction(3, 2), Fraction(-3, 2), Fraction(1),
                       Fraction(-1), Fraction(5, 2), Fraction(-5, 2)],
}
PALETTES["mixed"] = sorted(set(PALETTES["neutral-rich"]
                               + PALETTES["contracting-rich"]
                               + PALETTES["expanding-rich"]))


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_pieces: int = 4
    denominator_bound: int = 16
    discontinuity_bias: float = 0.5
    slope_palette: str = "mixed"

    def sub(self, name: str, index: int) -> "GeneratorConfig":
        salt = zlib.crc32(name.encode())
        return replace(self, seed=self.seed * 1_000_003 + index * 7919 + salt)


def random_map(cfg: GeneratorConfig) -> PiecewiseMap:
    """Deterministic rejection-sampled well-behaved map on [0, 1]: each
    draw is made in ints, on the same stream as in Fractions (`_try_build`)."""
    rng = random.Random(cfg.seed)
    palette = [_pair(s) for s in PALETTES[cfg.slope_palette]]
    for _ in range(GENERATION_ATTEMPTS):
        f = _try_build(rng, cfg, palette)
        if f is not None:
            return f
    raise GenerationError(
        f"no valid map within {GENERATION_ATTEMPTS} attempts")


def _try_build(rng, cfg, palette) -> Optional[PiecewiseMap]:
    """One draw, or None, in ints: slope denominators divide 12, cuts are
    over qb and values over m, so each span, bound and intercept is exact."""
    qb = cfg.denominator_bound
    npieces = rng.randint(1, max(1, cfg.max_pieces))
    npieces = min(npieces, qb - 1) or 1
    cuts = sorted(rng.sample(range(1, qb), npieces - 1)) if npieces > 1 else []
    bounds = [0] + cuts + [qb]
    fine = 2 * qb * qb
    unit = 12 * 8 * fine  # m / qb; 12 is the slope denominators' lcm
    m = qb * unit
    segs = []
    prev_value = prev_slope = None
    for left, right in zip(bounds, bounds[1:]):
        for _ in range(16):
            slope = rng.choice(palette)
            rise = slope[0] * (right - left) * (unit // slope[1])
            if abs(rise) > m:
                continue
            lo, hi = max(0, -rise), min(m, m - rise)
            if lo > hi:
                continue
            jump = (prev_value is not None
                    and rng.random() < cfg.discontinuity_bias)
            if prev_value is not None and not jump:
                if slope == prev_slope:
                    continue
                v_left = prev_value
                if not lo <= v_left <= hi:
                    continue
            else:
                v_left = lo + (hi - lo) * rng.randint(0, fine) // fine
                if jump and v_left == prev_value:
                    shifted = [lo + (hi - lo) * k // 8 for k in range(9)]
                    alts = [v for v in shifted if v != prev_value]
                    if not alts:
                        continue
                    v_left = rng.choice(alts)
            break
        else:
            return None
        intercept = v_left - slope[0] * left * (unit // slope[1])
        segs.append(_segment(_reduced(left, qb), _reduced(right, qb), slope,
                             _reduced(intercept, m)))
        prev_value = v_left + rise
        prev_slope = slope
    try:
        return _from_segments(Fraction(0), Fraction(1), segs)
    except MapInvariantError:
        return None


# -- counterexample bundles and shrinking ---------------------------------------

@dataclass(frozen=True)
class Bundle:
    property_name: str
    map_text: str
    context: dict
    message: str

    def to_text(self) -> str:
        block = json.dumps({"property": self.property_name,
                            "message": self.message,
                            "context": self.context}, sort_keys=True)
        return f"{self.map_text}# bundle {block}\n"

    def to_dict(self) -> dict:
        return {"property": self.property_name, "message": self.message,
                "context": self.context, "map": self.map_text}


# Replayable predicates: name -> callable(map, context) -> bool (True = fails).
PREDICATES: dict[str, Callable[[PiecewiseMap, dict], bool]] = {}


def predicate(name):
    def register(fn):
        PREDICATES[name] = fn
        return fn
    return register


def _simpler_fractions(x: Fraction) -> list[Fraction]:
    cands = [Fraction(num, q) for q in (1, 2, 4, 8) if q < x.denominator
             for num in (int(x * q), int(x * q) + 1)]
    return [cand for cand in cands if cand != x]


def _reductions(f: PiecewiseMap) -> list[PiecewiseMap]:
    """Candidate simpler maps, in a fixed deterministic order."""
    out = []
    pieces = list(f.pieces)
    for i in range(len(pieces) - 1):
        # two neighbours merged, on the left one's line, then the right's
        for line in pieces[i:i + 2]:
            out.append(pieces[:i] + [replace(line, left=pieces[i].left,
                                             right=pieces[i + 1].right)]
                       + pieces[i + 2:])
    for i, piece in enumerate(pieces):
        for field_name in ("slope", "intercept"):
            for cand in _simpler_fractions(getattr(piece, field_name)):
                alt = replace(piece, **{field_name: cand})
                out.append(pieces[:i] + [alt] + pieces[i + 1:])
    built = []
    for cand_pieces in out:
        try:
            built.append(PiecewiseMap(f.a, f.b, cand_pieces))
        except MapInvariantError:
            continue
    return built


def shrink(bundle: Bundle) -> Bundle:
    """Greedy deterministic reduction preserving the failure."""
    pred = PREDICATES.get(bundle.property_name)
    if pred is None:
        raise ValueError(f"no replayable predicate {bundle.property_name!r}")
    current = parse_map(bundle.map_text)
    if not pred(current, bundle.context):
        raise ValueError("not failing")
    changed = True
    while changed:
        changed = False
        for cand in _reductions(current):
            try:
                still_failing = pred(cand, bundle.context)
            except NOT_APPLICABLE:
                continue
            if still_failing:
                current = cand
                changed = True
                break
    return Bundle(bundle.property_name, current.to_text(), bundle.context,
                  bundle.message)


# -- suite machinery --------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    passes: int = 0
    fails: int = 0
    skips: int = 0
    seconds: float = 0.0
    bundles: list[Bundle] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, f: PiecewiseMap, message: str, **context) -> None:
        self.fails += 1
        self.bundles.append(Bundle(self.name, f.to_text(),
                                   {k: str(v) for k, v in context.items()},
                                   message))

    def skip(self) -> None:
        self.skips += 1

    @contextmanager
    def skipping(self):
        """A NOT_APPLICABLE error raised in the block ends it as one skip;
        any other error propagates."""
        try:
            yield
        except NOT_APPLICABLE:
            self.skip()

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None after one skip when it raises a
        NOT_APPLICABLE error."""
        with self.skipping():
            return fn(*args, **kwargs)
        return None

    @contextmanager
    def case(self):
        """One case: it passes when it records no failure.  An error ends
        it with no pass; inside `skipping()` a NOT_APPLICABLE one counts
        the case as one skip."""
        fails = self.fails
        yield
        if self.fails == fails:
            self.passes += 1

    def to_dict(self) -> dict:  # no timing: `summary` prints it
        return {"name": self.name, "passes": self.passes, "fails": self.fails,
                "skips": self.skips,
                "bundles": [b.to_dict() for b in self.bundles],
                "extra": self.extra}


@dataclass
class SuiteReport:
    seed: int
    results: dict[str, PropertyResult]

    @property
    def total_fails(self) -> int:
        return sum(r.fails for r in self.results.values())

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "properties": {name: r.to_dict()
                               for name, r in sorted(self.results.items())}}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        lines = []
        for name, r in sorted(self.results.items()):
            status = "FAIL" if r.fails else "ok"
            lines.append(f"{name:32s} pass={r.passes:5d} fail={r.fails:3d} "
                         f"skip={r.skips:3d} [{status}] {r.seconds:.2f}s")
        lines.append(f"total failures: {self.total_fails}")
        return "\n".join(lines)


PROPERTIES: dict[str, tuple[Callable[[GeneratorConfig, int, PropertyResult],
                                     None], int]] = {}


def suite_property(name, default_count):
    def register(fn):
        PROPERTIES[name] = (fn, default_count)
        return fn
    return register


def run_suite(cfg: GeneratorConfig, which: Optional[set[str]] = None, *,
              counts: Optional[dict[str, int]] = None) -> SuiteReport:
    names = sorted(PROPERTIES) if which is None else sorted(which)
    results = {}
    for name in names:
        runner, default_count = PROPERTIES[name]
        count = (counts or {}).get(name, default_count)
        result = PropertyResult(name)
        started = time.perf_counter()
        runner(cfg, count, result)
        result.seconds = time.perf_counter() - started
        results[name] = result
    return SuiteReport(cfg.seed, results)


def _corpus(cfg: GeneratorConfig, name: str, count: int, **overrides):
    base = replace(cfg, **overrides) if overrides else cfg
    for i in range(count):
        try:
            yield random_map(base.sub(name, i))
        except GenerationError:
            continue


def _rational(rng: random.Random, qb: int) -> Fraction:
    return Fraction(rng.randint(0, 4 * qb), 4 * qb)


def closed_structures(f: PiecewiseMap):
    """Closed structures rooted at jump points and small periodic orbits.

    Each structure is expanded to at most 72 nodes (SWEEP_NODE_CAP) with
    denominators of at most DENOM_BIT_CAP bits.  The node cap bounds
    the quadratic pair analysis downstream; structures past either cap
    report as not closed and are left out of the corpus sweeps without a
    skip count, as are the periodic roots when `periodic_points` is not
    applicable.
    """
    roots = list(f.special_points().discontinuities)
    try:
        for orb in periodic_points(f, 3):
            roots.append(orb.representative)
    except NOT_APPLICABLE:
        pass
    seen = set()
    out = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        st = structure(f, root, cap=SWEEP_NODE_CAP)
        if st.closed:
            out.append(st)
    return out


# -- properties -------------------------------------------------------------------

@suite_property("preimage_finite_exact", 1000)
def _prop_preimage(cfg, count, result):
    rng = random.Random(cfg.seed ^ 0x9E3779B9)
    maps = list(_corpus(cfg, "preimage", max(1, count // 4)))
    for i in range(count):
        f = maps[i % len(maps)]
        y = _rational(rng, cfg.denominator_bound)
        with result.case():
            if not all(f.value(x) == y for x in f.preimage(y)):
                result.fail(f, "preimage root does not evaluate back", y=y)


@predicate("composition_sandwich")
def _sandwich_fails(f: PiecewiseMap, context: dict) -> bool:
    g = parse_map(context["second_map"])
    try:
        h = compose(f, g, check=False)
    except NOT_APPLICABLE:
        return False
    lower, upper = _sandwich_bounds(f, g)
    return not lower <= set(map(_pair, h.special_points().points)) <= upper


@suite_property("composition_sandwich", 1000)
def _prop_sandwich(cfg, count, result):
    outers = list(_corpus(cfg, "sandwich_outer", max(1, count // 4)))
    inners = list(_corpus(cfg, "sandwich_inner", max(1, count // 4)))
    strict = 0
    for i in range(count):
        f = outers[i % len(outers)]
        g = inners[(i * 7 + 3) % len(inners)]
        h = result.call(compose, f, g, check=False)
        if h is None:
            continue
        lower, upper = _sandwich_bounds(f, g)
        got = set(map(_pair, h.special_points().points))
        with result.case():
            if not lower <= got <= upper:
                result.fail(f, "sandwich inclusion failed",
                            second_map=g.to_text())
            elif lower != got or got != upper:
                strict += 1
    result.extra["strict_gap_instances"] = strict


@suite_property("power_special_inclusion", 300)
def _prop_power(cfg, count, result):
    for f in _corpus(cfg, "power", count, max_pieces=4):
        with result.skipping(), result.case():
            prev_special: list[set] = []
            continuous = not f.special_points().discontinuities
            for n in range(1, 7):
                fn = f.power(n, check=False)
                sn = set(fn.special_points().points)
                mn = set(f.special_preimage_set(n))
                if not sn <= mn:
                    result.fail(f, "power special points escape preimage set",
                                n=n)
                    break
                if continuous:
                    if sn != {y for y in mn if f.a < y < f.b}:
                        result.fail(f, "continuous power equality failed", n=n)
                        break
                    if any(not prev <= sn for prev in prev_special):
                        result.fail(f, "continuous monotone inclusion failed",
                                    n=n)
                        break
                    prev_special.append(sn)


@suite_property("compose_associativity", 150)
def _prop_assoc(cfg, count, result):
    maps = list(_corpus(cfg, "assoc", max(3, count // 2), max_pieces=3))
    for i in range(count):
        f = maps[i % len(maps)]
        g = maps[(i * 5 + 1) % len(maps)]
        h = maps[(i * 11 + 2) % len(maps)]
        with result.skipping(), result.case():
            left = compose(compose(f, g, check=False), h, check=False)
            right = compose(f, compose(g, h, check=False), check=False)
            if left != right:
                result.fail(f, "composition not associative",
                            second_map=g.to_text(), third_map=h.to_text())


@suite_property("eval_lateral_coherence", 200)
def _prop_coherence(cfg, count, result):
    for f in _corpus(cfg, "coherence", count):
        special = set(f.special_points().points)
        with result.case():
            for w in f.breakpoints:
                if w not in special and not (
                        f.lateral(w, "minus") == f.lateral(w, "plus")
                        == f.value(w)):
                    result.fail(f, "laterals disagree at a plain breakpoint",
                                w=w)


@suite_property("orbit_invariants", 150)
def _prop_orbits(cfg, count, result):
    intersecting = 0
    for f in _corpus(cfg, "orbits", count, slope_palette="neutral-rich",
                     discontinuity_bias=0.8, denominator_bound=12):
        orbits = result.call(periodic_points, f, 4)
        if orbits is None:
            continue
        with result.case():
            if not f.special_points().discontinuities:
                point_sets = [frozenset(o.points) for o in orbits
                              if o.kind != HALF_POINT]
                if any(a != b and a & b
                       for a in point_sets for b in point_sets):
                    result.fail(f, "distinct orbits of a continuous map "
                                "intersect")
            for orb in orbits:
                pts = list(orb.points)
                images = (variant_step(f, x, orb.selector)
                          if orb.kind == HALF_POINT else f.value(x)
                          for x in pts)
                if not all(y == z for y, z in zip(images, pts[1:] + pts[:1])):
                    result.fail(f, "periodic orbit does not close",
                                points=orb.points)
            sets = [frozenset(o.points) for o in orbits
                    if o.kind == HALF_POINT]
            if any(a != b and a & b for a in sets for b in sets):
                intersecting += 1
            for st in closed_structures(f):
                node_set = set(st.nodes)
                for sel in variants(f)[:4]:
                    res = orbit(f, st.root, sel, cap=4 * len(node_set) + 8)
                    pts = set(res.prefix) | set(res.cycle or ())
                    if not pts <= node_set:
                        result.fail(f, "variant orbit escapes its structure",
                                    root=st.root)
                    if res.cycle is None:
                        result.fail(f, "confined orbit not eventually "
                                    "periodic", root=st.root)
                cap = 2 * len(node_set) + 2
                for p in st.nodes:
                    for g in germs_of(f, p):
                        if _germ_walk(f, _germ_key(f, g), cap)[2] is None:
                            result.fail(f, "germ cycle exceeded twice the "
                                        "node count", point=p)
    result.extra["intersecting_distinct_orbits"] = intersecting


@suite_property("stability_oracle_agreement", 200)
def _prop_oracle(cfg, count, result):
    corpus = list(_corpus(cfg, "oracle", count)) + list(pinned_maps().values())
    for f in corpus:
        points = set()
        for st in closed_structures(f):
            points |= set(st.nodes)
        with result.case():
            for x in sorted(points):
                with result.skipping():
                    germ_view = classify_point(f, x, require_confined=False)
                    oracle_view = oracle_classify(f, x)
                    if germ_view != oracle_view:
                        result.fail(f, "germ and oracle verdicts disagree",
                                    x=x, germ=germ_view, oracle=oracle_view)


@suite_property("propagation_table", 500)
def _prop_table(cfg, count, result):
    structures = 0
    for f in _corpus(cfg, "table", count):
        with result.case():
            for st in closed_structures(f):
                structures += 1
                with result.skipping():
                    for v in stability_propagation_report(f, st).violations:
                        result.fail(f, f"propagation violation {v.rule}",
                                    **v.to_dict())
    result.extra["structures_checked"] = structures


@suite_property("cycle_rules", 300)
def _prop_cycles(cfg, count, result):
    for f in _corpus(cfg, "cycles", count):
        with result.case():
            for st in closed_structures(f):
                with result.skipping():
                    for v in cycle_stability_report(f, st).violations:
                        result.fail(f, f"cycle rule violation {v.rule}",
                                    **v.to_dict())


@suite_property("subsample_stability", 100)
def _prop_subsample(cfg, count, result):
    corpus = list(_corpus(cfg, "subsample", count)) + \
        [pinned_maps()[k] for k in ("contraction", "tent", "twocycle")]
    for f in corpus:
        orbits = result.call(periodic_points, f, 3)
        if orbits is None:
            continue
        with result.case():
            for orb in [o for o in orbits if o.kind == POINT][:4]:
                rep = result.call(subsampled_stability_report, f, orb)
                if rep is not None and not rep.consistent:
                    result.fail(f, "subsampled class disagrees",
                                points=orb.points, germ=rep.germ_class,
                                full=rep.full_class, sub=rep.subsampled_class)


@suite_property("taxonomy_rules", 300)
def _prop_taxonomy(cfg, count, result):
    for f in _corpus(cfg, "taxonomy", count, max_pieces=3):
        orbits = result.call(periodic_points, f, 8)
        if orbits is None:
            continue
        with result.case():
            for orb in orbits:
                if not orb.continuous:
                    continue
                try:
                    tax = taxonomy(f, orb)
                except TaxonomyViolation as exc:
                    result.fail(f, f"taxonomy violation: {exc}",
                                points=orb.points)
                    continue
                interior = not any(p in (f.a, f.b) for p in orb.points)
                if interior and not tax.critical:
                    n = orb.period  # a window at every point, unlike taxonomy
                    if any(_trap(f, p, n, special_gaps(f, p, 2 * n)).trapped
                           != tax.trapped for p in orb.points):
                        result.fail(f, "trapped flag not uniform",
                                    points=orb.points)
                    cls = classify_point(f, orb.representative,
                                         require_confined=False)
                    if cls == UNSTABLE and not tax.trapped:
                        result.fail(f, "unstable interior non-critical "
                                    "orbit is not trapped", points=orb.points)


@suite_property("exceptional_exclusivity", 300)
def _prop_exceptional(cfg, count, result):
    for f in _corpus(cfg, "exceptional", count, max_pieces=3):
        with result.skipping(), result.case():
            orbits = periodic_points(f, 4)
            try:
                exceptional_census(f, orbits)
            except TaxonomyViolation as exc:
                result.fail(f, f"exclusivity violation: {exc}")


@suite_property("basin_witnesses", 120)
def _prop_basins(cfg, count, result):
    corpus = list(_corpus(cfg, "basins", count, slope_palette="contracting-rich",
                          max_pieces=3)) + [pinned_maps()["hat"]]
    for f in corpus:
        if not f.special_points().points:
            result.skip()
            continue
        orbits = result.call(periodic_points, f, 4)
        if orbits is None:
            continue
        found = False
        for orb in orbits:
            if orb.kind != POINT:
                continue
            tax = taxonomy(f, orb)
            if not tax.free or tax.exceptional:
                continue
            witnesses = result.call(basin_adjacent_special, f, orb)
            for wit in (witnesses or [])[:2]:
                sides = ["minus", "plus"] if wit.side == "both" else [wit.side]
                samples = ((side, wit.w - offset if side == "minus"
                            else wit.w + offset)
                           for side in sides for offset in (
                               wit.delta * Fraction(i, 33)
                               for i in range(1, 33)))
                for side, y in samples:
                    verdict = attracted(f, y, orb)
                    if verdict != YES:
                        result.fail(f, "sampled basin point not attracted",
                                    w=wit.w, side=side, y=y, verdict=verdict)
                        break
                else:
                    found = True
        if found:
            result.passes += 1
        else:
            result.skip()


@predicate("orbit_count_bound")
def _bound_fails(f: PiecewiseMap, context: dict) -> bool:
    if not f.special_points().points:
        return False
    try:
        return not count_bound(f, int(context.get("horizon", 8))).holds
    except NOT_APPLICABLE:
        return False


@suite_property("orbit_count_bound", 500)
def _prop_bound(cfg, count, result):
    for f in _corpus(cfg, "bound", count, max_pieces=3):
        if not f.special_points().points:
            result.skip()
            continue
        with result.skipping(), result.case():
            if not count_bound(f, 8).holds:
                bundle = Bundle("orbit_count_bound", f.to_text(),
                                {"horizon": "8"}, "orbit count bound violated")
                result.fails += 1
                result.bundles.append(shrink(bundle))


@suite_property("attractor_duality", 100)
def _prop_duality(cfg, count, result):
    corpus = list(_corpus(cfg, "duality", count,
                          slope_palette="contracting-rich", max_pieces=3)) \
        + [pinned_maps()["hat"]]
    for f in corpus:
        special = f.special_points()
        if not special.points:
            result.skip()
            continue
        # the map's certifier must build within budget
        if result.call(Certifier.of, f) is None:
            continue
        with result.case():
            for w in special.points:
                verdict = is_regular(f, w)
                if verdict.value == UNKNOWN:
                    result.skip()
                elif verdict.value != NO:
                    try:
                        result.call(regular_attractor, f, w)
                    except CertificationError as exc:
                        result.fail(f, f"forward construction failed: {exc}",
                                    w=w)
            try:
                orbits = periodic_points(f, 4)
            except NOT_APPLICABLE:
                orbits = []
            for orb in orbits:
                if orb.kind != POINT:
                    continue
                with result.skipping():
                    try:
                        w, verdict = attractor_regular_source(f, orb,
                                                              horizon=4)
                    except PreconditionError:
                        continue
                    except CertificationError as exc:
                        result.fail(f, f"reverse construction failed: {exc}",
                                    points=orb.points)
                        continue
                    if verdict.value == UNKNOWN:
                        result.skip()


@suite_property("pinned_double_shift", 1)
def _prop_pinned_shift(cfg, count, result):
    f = pinned_maps()["shift"]
    f2 = f.power(2)
    expected = [(Fraction(0), Fraction(3, 8), Fraction(1), Fraction(1, 4)),
                (Fraction(3, 8), Fraction(5, 8), Fraction(1), Fraction(0)),
                (Fraction(5, 8), Fraction(1), Fraction(1), Fraction(-1, 4))]
    got = [(p.left, p.right, p.slope, p.intercept) for p in f2.pieces]
    checks = [
        got == expected,
        f2.special_points().points == (Fraction(3, 8), Fraction(5, 8)),
        f.special_preimage_set(2) == (Fraction(3, 8), Fraction(1, 2),
                                      Fraction(5, 8)),
        not set(f.special_points().points) <= set(f2.special_points().points),
    ]
    with result.case():
        if not all(checks):
            result.fail(f, "pinned double-shift reproduction failed: "
                        f"{checks}")


@suite_property("code_invariants", 120)
def _prop_codes(cfg, count, result):
    rng = random.Random(cfg.seed ^ 0x51ED270)
    corpus = list(_corpus(cfg, "codes", count, max_pieces=3)) \
        + [pinned_maps()[k] for k in ("hat", "shift")]
    for f in corpus:
        # the map's certifier must build within budget
        if result.call(Certifier.of, f) is None:
            continue
        samples = [_rational(rng, cfg.denominator_bound) for _ in range(6)]
        with result.case():
            for x in samples:
                good = avoids_special_forever(f, x, 2000)
                if good.value == YES:
                    try:
                        cs = codes(f, x, 2000)
                    except CodeUndefinedError:
                        result.fail(f, "good point had no code", x=x)
                        continue
                    if len(cs) != 1:
                        result.fail(f, "good point code not unique", x=x,
                                    count=len(cs))
                elif good.value == NO:
                    probe = walk(f, x, 200, points=dict.fromkeys(
                        f.special_points().points, True))
                    depth = len(probe.pairs)
                    # materializing the skeleton is exponential in depth, so
                    # the independent cross-check only runs for shallow hits
                    if probe.reason == "stop" and depth <= 8 and \
                            x not in set(f.special_preimage_set(depth + 1)):
                        result.fail(f, "special-hitting point outside the "
                                    "preimage skeleton", x=x, depth=depth)
            jumps = set(f.special_points().discontinuities)
            for w in f.special_points().points:
                cert = regularity_certificate(f, w, 2000)
                if isinstance(cert, RegularityCertificate):
                    witnesses = [Germ(w, cert.side)] if w in jumps \
                        else germs_of(f, w)
                    for g in witnesses:
                        if _germ_walk(f, _germ_key(f, g), 500)[2] == 0:
                            result.fail(f, "regular point has a periodic "
                                        "germ", w=w, side=g.side)
