"""Outside-in benchmark of pwdyn's public Python API.

    python3 perfbench/run.py --workload census --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3

One closed-loop caller in one process and one thread runs a workload's ops
back to back.  Every measurement starts in a fresh interpreter
(perfbench/worker.py), which imports pwdyn from this checkout's src/.  With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, whose overhead
is measured against an untraced run of the same ops.  `--workload all`
prints every workload's end-to-end metrics.  See perfbench/README.md.

Exit status: 0 on success; 1 when an answer fails its check or a digest
differs between runs of the same inputs (the last line then reports
"correct": false); 2 on a usage error or when the library is missing.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
# The names in workloads.py, which this process does not import.
WORKLOADS = ("algebra", "census", "stability", "duality")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170     # a whole run, every worker included


class Incorrect(Exception):
    """An answer or digest check failed."""


def _worker(deadline, *args) -> dict:
    """Run worker.py with `args`; it is killed at `deadline` (monotonic)."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "error" in result:
        raise Incorrect(result["error"])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(map(str, args))} exited "
                           f"with status {proc.returncode}")
    return result


def _setup_seconds(deadline, workload, seed, seconds) -> tuple[float, str]:
    """Median set-up time over fresh interpreters; the first sample, which
    may write bytecode caches, is discarded."""
    samples = [_worker(deadline, "setup", workload, seed, seconds)
               for _ in range(SETUP_SAMPLES + 1)][1:]
    inputs = {s["inputs"] for s in samples}
    if len(inputs) != 1:
        raise Incorrect(f"set-up drew different inputs: {sorted(inputs)}")
    return statistics.median(s["setup_s"] for s in samples), inputs.pop()


def _check_digests(workload, seed, seconds, inputs, answers) -> None:
    """Compare with earlier runs of the same inputs in this checkout."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    ops = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()
    key = f"{workload}/{seed}/{seconds}/{ops[:12]}"
    entry = {"inputs": inputs, "answers": answers}
    if known.setdefault(key, entry) != entry:
        raise Incorrect(f"digests {entry} differ from an earlier run of "
                        f"{key}: {known[key]}")
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def _end_to_end(run: dict, setup_s: float) -> dict:
    done = [ns / 1e6 for ns in run["latencies_ns"]]
    return {
        "ops_per_s": (len(done) / (run["busy_ns"] / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(done), "ms"),
        "op_p95_ms": (statistics.quantiles(done, n=20)[18], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pwdyn").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(deadline, workload, seed, seconds, trace) -> dict:
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace}
    if trace:
        plain = _worker(deadline, "measure", workload, seed, seconds, 0)
        traced = _worker(deadline, "measure", workload, seed, seconds, 1)
        if traced["answers"] != plain["answers"]:
            raise Incorrect("traced and untraced runs of the same inputs "
                            "gave different answers")
        untraced_s = plain["busy_ns"] / 1e9
        traced_s = traced["busy_ns"] / 1e9
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        record.update(layer_errors=traced["layer_errors"],
                      absent=traced["absent"], spans=traced["spans"])
        run = plain
    else:
        setup_s, inputs = _setup_seconds(deadline, workload, seed, seconds)
        run = _worker(deadline, "measure", workload, seed, seconds, 0)
        if run["inputs"] != inputs:
            raise Incorrect("set-up and measurement drew different inputs")
        metrics = _end_to_end(run, setup_s)
    _check_digests(workload, seed, seconds, run["inputs"], run["answers"])
    record.update(ops=run["attempted"], failed=run["failed"],
                  raw_busy_s=run["raw_busy_ns"] / 1e9,
                  busy_s=run["busy_ns"] / 1e9,
                  budget_errors=run["budget_errors"],
                  outcomes=run["outcomes"], inputs=run["inputs"],
                  answers=run["answers"])
    return {"metrics": metrics, "record": record,
            "attempted": run["attempted"], "failed": run["failed"]}


def _declared(trace: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_table(name, res) -> None:
    ops, failed = res["attempted"], res["failed"]
    done = ops - failed
    short = ", ".join(f"{kind}={count}" for kind, count
                      in sorted(res["record"]["outcomes"].items()) if count)
    print(f"{name}: {ops} ops, {failed} failed, short answers: "
          f"{short or 'none'}; latency percentiles over {done} samples, "
          f"about {done // 20} beyond p95")
    rows = sorted(res["metrics"].items())
    if "ops_per_s" in res["metrics"]:
        rows.append(("failed_share", (failed / ops, "share")))
    for metric, (value, unit) in rows:
        print(f"  {metric:46} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pwdyn" / "__init__.py").is_file():
        print(f"no pwdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"python": sys.version.split()[0],
           "nproc": len(os.sched_getaffinity(0)),
           "commit": _commit(), "source": _source_digest()}
    results = {}
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        for name in names:
            results[name] = run_workload(deadline, name, args.seed,
                                         args.seconds, args.trace)
    except Incorrect as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    STATE.mkdir(exist_ok=True)
    with open(STATE / "runs.jsonl", "a", encoding="utf-8") as log:
        for name, res in results.items():
            record = {**env, **res["record"],
                      "metrics": {k: v[0] for k, v in res["metrics"].items()}}
            log.write(json.dumps(record, sort_keys=True) + "\n")
            print(json.dumps({"record": {**env, **res["record"]}}))
            _print_table(name, res)

    declared = _declared(bool(args.trace))
    for name, res in results.items():
        if set(res["metrics"]) != declared:
            print(f"{name}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(res['metrics']) ^ declared)}", file=sys.stderr)
            return 2
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
