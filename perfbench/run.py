"""geomix benchmark: CLI round trips on seeded synthetic corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mdn-sparse --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload in turn, prints each one's result
line and then one line that combines them.
Workloads are defined in ``workloads.py`` and listed, with why each was
chosen, in ``BENCHMARK.json``.  The run starts a fresh worker process that
sets up (start, ``import geomix``, generate the corpus) and runs round trips
for ``--seconds``; between its rounds it starts fresh set-up-only workers,
and ``setup_s`` is the median over them.
Timings leave out the CPU time the hypervisor gave to other guests and are
rescaled to a reference host speed (see ``hostspeed.py``), so the load of a
shared host does not set their spread; the wall-clock figures are kept in
the details.
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics, from a run
that alternates traced and untraced round trips.  Details (every sample, the
checks that failed, the environment) go to ``.perfbench_work/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn_worker(opts, name, work, deadline):
    """Runs the workload's worker (and, through it, its set-up probes) to the end."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
            "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--work", work, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish before the {DEADLINE_S:.0f} s deadline") from e
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def round_sums(rounds, seconds):
    """(train, query) seconds of each round, each call's time given by ``seconds(timing)``."""
    return ([sum(seconds(c) for c in r["train"]) for r in rounds],
            [sum(seconds(c) for g, calls in r.items() if g != "train" for c in calls) for r in rounds])


def end_to_end(worker, seconds):
    """The end-to-end metrics, each call's time given by ``seconds(timing)``."""
    train, query = round_sums(worker["rounds"], seconds)
    return {
        "setup_s": statistics.median(seconds(c) for c in worker["setup_samples"]),
        "train_s": statistics.median(train),
        "query_s": statistics.median(query),
        "peak_rss_mb": worker["peak_rss_mb"],
        "quality_pct": worker["quality_pct"],
    }


def per_layer(worker, seconds):
    values = dict(worker["per_layer"])
    traced_train, traced_query = round_sums(worker["traced_rounds"], seconds)
    train, _ = round_sums(worker["rounds"], seconds)
    values["bench.traced_round_s"] = statistics.median(t + q for t, q in zip(traced_train, traced_query))
    values["bench.trace_overhead_s"] = statistics.median(traced_train) - statistics.median(train)
    return values


def run_workload(opts, name, spec):
    """Runs one workload; returns its result object (the last line of a run)."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-{opts.seed}-{os.getpid()}"
    work = os.path.join(WORK_ROOT, tag)
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        with hostspeed.Sampler() as host:
            worker = spawn_worker(opts, name, work, deadline)
        if opts.trace:
            os.replace(os.path.join(work, "spans.jsonl"), os.path.join(WORK_ROOT, f"spans-{name}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if opts.trace:
        values, wanted = per_layer(worker, host.seconds), spec["per_layer"]
    else:
        values, wanted = end_to_end(worker, host.seconds), spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    calls = {}
    for r in worker["rounds"]:
        for group, timings in r.items():
            calls.setdefault(group, []).extend(timings)
    call_stats = {g: {"median_s": statistics.median(map(host.seconds, v)), "max_s": max(map(host.seconds, v)),
                      "median_wall_s": statistics.median(c[0] for c in v), "count": len(v)}
                  for g, v in calls.items()}
    wall = end_to_end(worker, lambda c: c[0])
    details = dict(worker, call_stats=call_stats, wall_clock=wall, host_samples=host.samples,
                   workload=name, seed=opts.seed, seconds=opts.seconds, trace=opts.trace, metrics=metrics)
    with open(os.path.join(WORK_ROOT, f"result-{name}-trace{opts.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1)
    if worker.get("trace_missing"):
        print(f"{name}: not in geomix, so traced as 0: {', '.join(worker['trace_missing'])}", file=sys.stderr)
    for failure in worker["failures"]:
        print(f"{name}: check failed: {failure}", file=sys.stderr)
    print(f"{name}: environment {json.dumps(worker['environment'])}", file=sys.stderr)
    return {"correct": not worker["failures"], "attempted": worker["attempted"],
            "failed": len(worker["failures"]), "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="geomix CLI round-trip benchmark")
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    names = known if opts.workload == "all" else [opts.workload]
    if not set(names) <= set(known):
        print(f"error: unknown workload {opts.workload!r}; have {', '.join(known)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            results[name] = run_workload(opts, name, spec)
        except (BenchError, OSError, ValueError, KeyError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
