"""One measurement in a fresh interpreter; started by run.py, never directly.

    python3 perfbench/worker.py setup   <workload> <seed> <seconds>
    python3 perfbench/worker.py measure <workload> <seed> <seconds> <trace>

`setup` imports pwdyn, generates the workload's corpus and reports the time
that took with the corpus digest.  `measure` does the same, warms up on maps
drawn with a disjoint salt, then runs every op of the corpus, checks each
answer and reports latencies, digests and peak memory (and, with trace 1,
the per-layer metrics).  Times are at the reference speed of speed.py.
The last line of stdout is one JSON object.
"""

import time

STARTED = time.perf_counter_ns()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WARMUP_OPS = 5


def _import_library():
    """Import pwdyn from the checkout's own sources, never from elsewhere."""
    sys.path.insert(0, str(SOURCE))
    import pwdyn
    if Path(pwdyn.__file__).resolve().parent != SOURCE / "pwdyn":
        raise SystemExit(f"pwdyn imported from {pwdyn.__file__}, "
                         f"not from {SOURCE}")
    import workloads
    return workloads


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _setup(meter, workload, seed, seconds):
    """Import and generate; returns the workload module, the ops, their
    digest and the set-up time in s."""
    workloads = _import_library()
    ops = workloads.make_ops(workload, seed,
                             workloads.corpus_size(workload, seconds))
    digest = _digest(t for op in ops
                     for t in (*op.texts, repr(op.points), repr(op.checks)))
    end = time.perf_counter_ns()
    setup_s = (end - STARTED - meter.stolen) * meter.scale(STARTED, end) / 1e9
    return workloads, ops, digest, setup_s


def measure(meter, workload, seed, seconds, trace):
    workloads, ops, inputs, setup_s = _setup(meter, workload, seed, seconds)
    run, check = workloads.RUN[workload], workloads.CHECK[workload]
    tracer = None
    spans, answers, completed = [], [], []
    budget, outcomes = Counter(), Counter()
    where = "warm-up"
    try:
        for op in workloads.make_ops(workload, seed, WARMUP_OPS,
                                     salt="warmup"):
            check(op, run(op))
        if trace:
            from tracing import Tracer
            tracer = Tracer(meter.clock)
            tracer.install()
        for index, op in enumerate(ops):
            where = f"op {index}"
            if tracer:
                tracer.begin_op(index, op.texts)
            begin, net = time.perf_counter_ns(), meter.clock()
            try:
                ans = run(op)
            except workloads.BUDGET_ERRORS as exc:
                spans.append((begin, time.perf_counter_ns(),
                              meter.clock() - net))
                budget[type(exc).__name__] += 1
                answers.append(f"budget:{type(exc).__name__}")
                continue
            spans.append((begin, time.perf_counter_ns(), meter.clock() - net))
            completed.append(index)
            answers.append(check(op, ans))
            outcomes.update(workloads.outcomes(workload, ans))
    except (workloads.CheckFailed, *workloads.BUG_ERRORS) as exc:
        return {"error": f"{where}: {type(exc).__name__}: {exc}"}
    finally:
        if tracer:
            tracer.uninstall()
    scale = [meter.scale(begin, end) for begin, end, _ in spans]
    times = [net * s for (_, _, net), s in zip(spans, scale)]
    out = {"setup_s": setup_s, "inputs": inputs, "answers": _digest(answers),
           "attempted": len(ops), "failed": sum(budget.values()),
           "budget_errors": budget, "outcomes": outcomes,
           "latencies_ns": [times[i] for i in completed],
           "busy_ns": sum(times),
           "raw_busy_ns": sum(net for _, _, net in spans),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024}
    if tracer:
        out["layers"] = tracer.metrics(scale)
        out["layer_errors"] = tracer.error_classes()
        out["absent"] = tracer.absent
        path = ROOT / ".perfbench" / f"spans-{workload}-{seed}.tsv.gz"
        path.parent.mkdir(exist_ok=True)
        tracer.write_spans(path)
        out["spans"] = str(path.relative_to(ROOT))
    return out


def main(argv):
    mode, workload = argv[:2]
    seed, seconds = int(argv[2]), int(argv[3])
    meter = speed.Meter()
    meter.start()
    try:
        if mode == "setup":
            _, _, inputs, setup_s = _setup(meter, workload, seed, seconds)
            result = {"setup_s": setup_s, "inputs": inputs}
        else:
            result = measure(meter, workload, seed, seconds, argv[4] == "1")
    finally:
        meter.stop()
    print(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
