"""Outside-in tracing of the five analysis layers.

`Tracer.install` wraps the public functions listed in `TARGETS` without
touching the library's files: a module-level function is replaced in every
loaded `pwdyn.*` namespace that holds it (which covers `from .x import y`
imports), and a method is replaced on its class.  `uninstall` puts every
original back.  A name that no longer exists is reported as absent.

Each wrapped call records a span (function, op, parent span, start, end) in
memory; self time is a span's duration minus the time covered by its child
spans.  Counts are kept at the same boundaries, so they repeat exactly for
the same corpus.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

LAYERS = ("maps", "orbits", "stability", "taxonomy", "codes")

# (layer, metric name, attribute path inside pwdyn.<layer>)
TARGETS = (
    ("maps", "parse_map", "parse_map"),
    ("maps", "compose", "compose"),
    ("maps", "power", "PiecewiseMap.power"),
    ("maps", "preimage", "PiecewiseMap.preimage"),
    ("maps", "special_preimage_set", "PiecewiseMap.special_preimage_set"),
    ("orbits", "periodic_points", "periodic_points"),
    ("orbits", "structure", "structure"),
    ("orbits", "germ_orbit", "germ_orbit"),
    ("orbits", "germ_step", "germ_step"),
    ("stability", "classify_point", "classify_point"),
    ("stability", "classify_side", "classify_side"),
    ("stability", "oracle_classify", "oracle_classify"),
    ("stability", "find_connection", "find_connection"),
    ("stability", "stability_propagation_report",
     "stability_propagation_report"),
    ("stability", "cycle_stability_report", "cycle_stability_report"),
    ("taxonomy", "monotone_window", "monotone_window"),
    ("taxonomy", "restrict_power", "restrict_power"),
    ("taxonomy", "is_trapped", "is_trapped"),
    ("taxonomy", "taxonomy", "taxonomy"),
    ("taxonomy", "count_bound", "count_bound"),
    ("taxonomy", "attraction_atlas", "attraction_atlas"),
    ("taxonomy", "attracted", "attracted"),
    ("codes", "Certifier", "Certifier.__init__"),
    ("codes", "avoids_special_forever", "avoids_special_forever"),
    ("codes", "codes", "codes"),
    ("codes", "regularity_certificate", "regularity_certificate"),
    ("codes", "regular_attractor", "regular_attractor"),
)


def _key_periodic(tracer, args, kwargs):
    return (tracer.text(args[0]), args[1:], tuple(sorted(kwargs.items())))


def _key_germ(tracer, args, kwargs):
    g = args[1]
    return (tracer.text(args[0]), g.point, g.side)


def _key_certifier(tracer, args, kwargs):
    return tracer.text(args[1])   # args[0] is the instance being built


# Distinct-call keys: map text plus arguments, map plus germ, map.
DISTINCT_KEYS = {"periodic_points": _key_periodic, "germ_step": _key_germ,
                 "Certifier": _key_certifier}


def _observe(name, result, counts):
    if name == "structure":
        counts["structure.closed"] += result.closed
    elif name == "avoids_special_forever":
        counts["avoids.decided"] += result.value in ("yes", "no")
    elif name == "compose":
        counts["compose.pieces"] += len(result.pieces)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        # (target index, op, parent span, start ns, end ns, self ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.errors = {layer: Counter() for layer in LAYERS}
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.maps_seen: set[str] = set()
        self._stack: list[list[int]] = []   # [span index, child ns]
        self._op = -1
        self._texts: dict[int, tuple[object, str]] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._clock = clock

    # -- op scope -------------------------------------------------------------

    def begin_op(self, index: int, texts) -> None:
        self._op = index
        self._texts.clear()
        self.maps_seen.update(texts)

    def text(self, f) -> str:
        """Map text as a distinct-call key, cached per op by identity (the
        cache holds the map, so an id is never reused within an op)."""
        hit = self._texts.get(id(f))
        if hit is None:
            hit = self._texts[id(f)] = (f, f.to_text())
        return hit[1]

    # -- installing wrappers --------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pwdyn" or n.startswith("pwdyn.")) and m]
        for index, (layer, name, path) in enumerate(TARGETS):
            owner = sys.modules.get(f"pwdyn.{layer}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.absent.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(index, layer, name, original)
            if cls_path:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, index, layer, name, original):
        spans, stack, clock = self.spans, self._stack, self._clock
        key_of = DISTINCT_KEYS.get(name)
        distinct = self.distinct.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if key_of is not None:
                distinct.add(key_of(tracer, args, kwargs))
            parent = stack[-1][0] if stack else -1
            span = len(spans)
            spans.append(None)
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[span] = (index, tracer._op, parent, start, end,
                               end - start - frame[1])
            _observe(name, result, tracer.counts)
            return result

        return traced

    def _error(self, layer, exc) -> None:
        # An exception escaping nested wrapped calls of one layer counts once.
        layers = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in layers:
            layers.add(layer)
            self.errors[layer][type(exc).__name__] += 1

    # -- results --------------------------------------------------------------

    def metrics(self, scale: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; each span's self time is multiplied by its
        op's entry in `scale`."""
        calls = [0] * len(TARGETS)
        self_ns = [0.0] * len(TARGETS)
        for index, op, _, _, _, own in self.spans:
            calls[index] += 1
            self_ns[index] += own * scale[op]
        out: dict[str, tuple[float, str]] = {}
        per_layer = {layer: [0, 0] for layer in LAYERS}
        by_name = {}
        for index, (layer, name, _) in enumerate(TARGETS):
            calls_i, self_s = calls[index], self_ns[index] / 1e9
            by_name[name] = calls_i
            out[f"{layer}.{name}.calls"] = (calls_i, "count")
            out[f"{layer}.{name}.self_s"] = (self_s, "s")
            per_layer[layer][0] += calls_i
            per_layer[layer][1] += self_s
        for layer, (layer_calls, layer_s) in per_layer.items():
            out[f"{layer}.calls"] = (layer_calls, "count")
            out[f"{layer}.self_s"] = (layer_s, "s")
            out[f"{layer}.errors"] = (sum(self.errors[layer].values()),
                                      "count")

        def share(num, den):
            return num / den if den else 0.0

        for name, layer in (("periodic_points", "orbits"),
                            ("germ_step", "orbits")):
            distinct = len(self.distinct[name])
            out[f"{layer}.{name}.distinct"] = (distinct, "count")
            out[f"{layer}.{name}.calls_per_distinct"] = (
                share(by_name[name], distinct), "ratio")
        out["codes.Certifier.maps"] = (len(self.maps_seen), "count")
        out["codes.Certifier.builds_per_map"] = (
            share(by_name["Certifier"], len(self.maps_seen)), "ratio")
        out["orbits.structure.closed_share"] = (
            share(self.counts["structure.closed"], by_name["structure"]),
            "ratio")
        out["codes.avoids_special_forever.decided_share"] = (
            share(self.counts["avoids.decided"],
                  by_name["avoids_special_forever"]), "ratio")
        out["maps.compose.pieces_out"] = (
            share(self.counts["compose.pieces"], by_name["compose"]),
            "pieces/call")
        return out

    def error_classes(self) -> dict[str, dict[str, int]]:
        return {layer: dict(sorted(c.items()))
                for layer, c in self.errors.items() if c}

    def write_spans(self, path) -> None:
        """Spans as tab-separated `function op parent start end self`, in
        raw (unscaled) ns."""
        names = [f"{layer}.{name}" for layer, name, _ in TARGETS]
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("function\top\tparent\tstart_ns\tend_ns\tself_ns\n")
            for index, *fields in self.spans:
                out.write("\t".join(map(str, (names[index], *fields))) + "\n")
