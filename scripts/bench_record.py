"""Record one tree's benchmark trajectory point in a ``BENCH_<n>.json`` file.

From the root of a checkout, runs each workload of ``BENCHMARK.json`` through
``perfbench/run.py`` (which it leaves as it is) at every seed of SEEDS and once
traced at TRACE_SEED, the tier-1 tests, ``scripts/step_profile.py`` and
``scripts/output_digest.py``.  The file holds:

- the git head, whether the tree differs from it, and the machine;
- the tier-1 counts and wall time;
- per workload, each end-to-end metric's median and quartiles over SEEDS, and
  each seed's ``correct`` and failed operations;
- the ten largest ``self_pct`` shares of the traced run;
- the step profile's median ms a step for each stage;
- a loss checksum, the sha256 of the output digest's train-log lines, next to
  the sha256 of the whole digest.

It then prints each metric's shift from the newest other ``BENCH_*.json`` at
the root beside that file's quartiles, and whether each checksum changed.
It takes about 8 minutes on 2 vCPUs:

    python scripts/bench_record.py BENCH_21.json
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (21, 22, 23)
TRACE_SEED = 3
TOP = 10


def run(argv, **env):
    """stdout of ``argv`` run at the root with ``src`` importable, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done.stdout


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def perfbench(workload, seed, seconds, trace):
    out = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)])
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    """(median, [lower quartile, upper quartile]) of the values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, [q1, q3]


def workload_record(name, seconds):
    runs = {seed: perfbench(name, seed, seconds, 0) for seed in SEEDS}
    metrics = {}
    for metric in runs[SEEDS[0]]["metrics"]:
        median, quartiles = spread([r["metrics"][metric]["value"] for r in runs.values()])
        metrics[metric] = {"median": median, "quartiles": quartiles,
                           "unit": runs[SEEDS[0]]["metrics"][metric]["unit"]}
    traced = perfbench(name, TRACE_SEED, seconds, 1)["metrics"]
    shares = sorted(((k, v["value"]) for k, v in traced.items() if k.endswith(".self_pct")),
                    key=lambda kv: -kv[1])
    return {"metrics": metrics,
            "runs": {str(seed): {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
                     for seed, r in runs.items()},
            "top_self_pct": dict(shares[:TOP])}


def tier1():
    start = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed)",
                                                     done.stdout.strip().splitlines()[-1])}
    return {"counts": counts, "exit": done.returncode, "seconds": round(time.perf_counter() - start, 1)}


def step_profile():
    out = run([sys.executable, "scripts/step_profile.py"]).splitlines()
    stages = out[0].split()[2:7]
    return {row[0]: dict(zip(stages, map(float, row[2:]))) for row in map(str.split, out[1:])}


def checksums():
    lines = run([sys.executable, "scripts/output_digest.py"]).splitlines(keepends=True)
    logs = [line for line in lines if line.rstrip().endswith("-log.tsv")]
    return {"train_log_sha256": hashlib.sha256("".join(logs).encode()).hexdigest(),
            "train_log_lines": len(logs),
            "digest_sha256": hashlib.sha256("".join(lines).encode()).hexdigest()}


def previous(out):
    """The newest other ``BENCH_<n>.json`` at the root, or None."""
    found = [(int(m.group(1)), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and p.resolve() != out.resolve()]
    return max(found)[1] if found else None


def compare(record, path):
    old = json.loads(path.read_text(encoding="utf-8"))
    print(f"against {path.name} (head {old['git']['head'][:12]}):")
    print(f"{'workload':16} {'metric':12} {'before':>10} {'after':>10} {'shift':>8}   before's quartiles")
    for name, w in record["workloads"].items():
        for metric, now in w["metrics"].items():
            then = old["workloads"].get(name, {}).get("metrics", {}).get(metric)
            if then is None:
                continue
            shift = (now["median"] - then["median"]) / then["median"] * 100 if then["median"] else 0.0
            q1, q3 = then["quartiles"]
            outside = "" if q1 <= now["median"] <= q3 else "  outside"
            print(f"{name:16} {metric:12} {then['median']:10.4g} {now['median']:10.4g} {shift:+7.1f}%"
                  f"   {q1:.4g}..{q3:.4g}{outside}")
    for key in ("train_log_sha256", "digest_sha256"):
        changed = record["checksums"][key] != old["checksums"][key]
        print(f"{key}: {'changed' if changed else 'unchanged'}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="the file to write, BENCH_<n>.json at the root")
    out = Path(p.parse_args(argv).out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "git": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src", "tests",
                                                                     "scripts", "perfbench"))},
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "seeds": list(SEEDS), "trace_seed": TRACE_SEED, "seconds": spec["run_seconds"],
        "tier1": tier1(),
        "workloads": {w["name"]: workload_record(w["name"], spec["run_seconds"]) for w in spec["workloads"]},
        "step_profile_ms": step_profile(),
        "checksums": checksums(),
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    before = previous(out)
    if before is None:
        print("no earlier BENCH_*.json: this file is the baseline")
    else:
        compare(record, before)
    return 0


if __name__ == "__main__":
    sys.exit(main())
