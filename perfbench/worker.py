"""One workload in a fresh process: set up, then CLI round trips in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The worker imports
geomix from the checkout's ``src``, generates the workload's corpus from the
seed and, unless ``--setup-only``, runs round trips (one client; each command
starts after the previous one ends) until ``--seconds`` are used.  A first
round on the corpus of ``reference.json``'s fixed seed warms the process up;
it is not measured, and its final train loss, dev metric and quality must
match the stored values.  After each measured round a fresh set-up-only
worker is started and waited for, so the ``setup_s`` samples are spread over
the run.  The last stdout line is a JSON object with the samples, checks and
environment; each timing sample is ``call_cli``'s [seconds, start, end,
stolen], so ``run.py`` can correct it for the host's load in that interval.

With ``--trace 1`` the measured rounds alternate between untraced and traced:
per-layer figures come from the traced ones, and the difference between the
two kinds of ``train`` call is the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import hostspeed  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def openblas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy
    import scipy
    from geomix import kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
    }


class Checks:
    """Correctness checks, each counted as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def call_cli(cli, argv):
    """Run one CLI command in-process; returns (exit code, timing, stdout, stderr).

    The timing is [seconds, start, end, stolen]: start and end are
    time.monotonic(), so ``hostspeed`` can match the call to the host speed
    samples taken meanwhile, and stolen is the share of the machine's CPU
    time the hypervisor took in between.
    """
    out, err = io.StringIO(), io.StringIO()
    ticks = hostspeed.cpu_ticks()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
            print(e.code, file=err)
        except Exception as e:  # a traceback is a failed operation, not a crashed benchmark
            code = 1
            print(f"{type(e).__name__}: {e}", file=err)
    t1 = time.monotonic()
    return code, [t1 - t0, t0, t1, hostspeed.stolen_share(ticks, hostspeed.cpu_ticks())], out.getvalue(), err.getvalue()


def last_log_row(path):
    with open(path, encoding="utf-8") as f:
        rows = f.read().splitlines()
    _, loss, metric = rows[-1].split("\t")
    return float(loss), float(metric)


def quality(kind, stdout):
    """Acc@161 in percent from `evaluate`, or mean recall@10 in percent from `dialect`."""
    if kind == "geo":
        line = next(ln for ln in stdout.splitlines() if ln.startswith("Acc@161:"))
        return float(line.split()[1])
    rows = [ln.split("\t") for ln in stdout.splitlines()[1:] if ln]
    recalls = [float(r[2]) for r in rows if r[2] != "undefined"]
    return 100.0 * sum(recalls) / len(recalls) if recalls else 0.0


def vocab_size(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


def read_predictions(text):
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("user_id"):
            continue
        uid, lat, lon, _ = line.split("\t")
        rows[uid] = None if lat == "no-features" else (float(lat), float(lon))
    return rows


def check_predictions(checks, w, files, work):
    """predict --input rows against in-process predict_points of the reloaded checkpoint."""
    from geomix import data, features
    with open(f"{work}/predictions.tsv", encoding="utf-8") as f:
        got = read_predictions(f.read())
    model = data.load_model(f"{work}/model.json")
    vocab = features.load_vocab(f"{work}/vocab.tsv")
    records = data.read_corpus(files["paths"]["queries"])
    docs = [features.tokenize(r.text) for r in records]
    X = features.vectorize_matrix(docs, vocab)
    expected = model.predict_points(X, w.predict_rule or None)
    ok = len(got) == len(records)
    for r, row, p in zip(records, X, expected):
        if row.nnz == 0:
            ok = ok and got.get(r.user_id, ()) is None
        else:
            g = got.get(r.user_id)
            ok = ok and g is not None and abs(g[0] - p[0]) <= 1e-5 and abs(g[1] - p[1]) <= 1e-5
    checks.check(ok, "predict --input rows differ from in-process predict_points")
    return got


def check_grid(checks, path, res):
    import numpy as np
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        values = np.array([float(line.rsplit(",", 1)[1]) for line in f])
    checks.check(header == "lat,lon,log_value" and values.size == res * res and np.all(np.isfinite(values)),
                 f"heatmap {path} is not a finite {res}x{res} grid")


def check_lookups(checks, lookup_out, batch_rows):
    """Each predict --text answer equals the predict --input row for the same text."""
    for i, stdout in enumerate(lookup_out):
        rows = list(read_predictions(stdout).values())
        expected = list(batch_rows.values())[i]
        checks.check(len(rows) == 1 and rows[0] == expected,
                      f"predict --text answer {i} differs from its predict --input row")


def round_trip(cli, w, files, seed, work, checks):
    """Runs one round trip; returns ({group: [timing per call]}, [(group, argv, grid, stdout)])."""
    import workloads
    times = {}
    outputs = []
    for group, argv, grid in workloads.round_trip(w, files, seed, work):
        code, timing, stdout, stderr = call_cli(cli, argv)
        checks.check(code == 0, f"`geomix {argv[0]}` exited {code}: {stderr.strip()[-300:]}")
        times.setdefault(group, []).append(timing)
        outputs.append((group, argv, grid, stdout))
    return times, outputs


def check_round(checks, w, files, work, outputs, expect, predictions_in_process):
    """Checks a round trip's outputs; returns (quality, final train-log row).

    ``expect`` maps train_loss and dev_metric to [value, relative tolerance]
    and holds quality_floor_pct, or the exact quality_pct to match.
    """
    qual, log_row = 0.0, None
    try:
        log_row = last_log_row(f"{work}/train-log.tsv")
        for value, key in zip(log_row, ("train_loss", "dev_metric")):
            ref, rtol = expect[key]
            checks.check(abs(value - ref) <= rtol * abs(ref),
                         f"final {key} {value!r} is not within {rtol} of the reference {ref!r}")
        scored = next(out for _, argv, _, out in outputs if argv[0] in ("evaluate", "dialect"))
        qual = quality(w.kind, scored)
        if "quality_pct" in expect:
            checks.check(qual == expect["quality_pct"], f"quality {qual} is not the reference {expect['quality_pct']}")
        else:
            checks.check(qual >= expect["quality_floor_pct"],
                         f"quality {qual} below floor {expect['quality_floor_pct']}")
        for _, _, grid, _ in outputs:
            if grid is not None:
                check_grid(checks, *grid)
        if w.kind == "geo":
            if predictions_in_process:
                batch_rows = check_predictions(checks, w, files, work)
            else:
                with open(f"{work}/predictions.tsv", encoding="utf-8") as f:
                    batch_rows = read_predictions(f.read())
            check_lookups(checks, [out for g, _, _, out in outputs if g == "lookup"], batch_rows)
    except (OSError, ValueError, StopIteration, IndexError, KeyError) as e:
        checks.check(False, f"cannot read the round trip's outputs: {type(e).__name__}: {e}")
    return qual, log_row


def setup_probe(args):
    """Timing (as ``call_cli``'s) of the set-up of a fresh set-up-only worker, started and waited for here."""
    work = os.path.join(args.work, "probe")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--work", work, "--setup-only"]
    ticks = hostspeed.cpu_ticks()
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], capture_output=True, text=True, timeout=60)
    stolen = hostspeed.stolen_share(ticks, hostspeed.cpu_ticks())
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return [setup_s, t0, t0 + setup_s, stolen]


def main(argv=None):
    args = parse_args(argv)
    from geomix import cli
    import corpus
    import workloads
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)
    files = corpus.generate(w.shape, args.seed, args.work)
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    checks = Checks()
    # Warm-up round, not measured: the reference seed's corpus, whose final
    # train-log row and quality must match the stored values exactly.
    ref_seed, ref = reference["seed"], reference[w.name]
    ref_work = os.path.join(args.work, "reference")
    os.makedirs(ref_work)
    ref_files = corpus.generate(w.shape, ref_seed, ref_work)
    _, outputs = round_trip(cli, w, ref_files, ref_seed, ref_work, checks)
    rtol = reference["exact_rtol"]
    exact = {"train_loss": [ref["exact"]["train_loss"], rtol], "dev_metric": [ref["exact"]["dev_metric"], rtol],
             "quality_pct": ref["exact"]["quality_pct"]}
    ref_quality, ref_log_row = check_round(checks, w, ref_files, ref_work, outputs, exact, True)
    shutil.rmtree(ref_work)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = []  # measured untraced rounds: {group: [timing per call]}
    setup_samples = []
    round_secs, qualities, log_rows = [], [], []
    traced_round = {}  # round -> {group: [timing per call]}, traced rounds
    start = time.monotonic()
    n = 0
    while True:
        t0 = time.monotonic()
        traced = tracer is not None and n % 2 == 1
        if tracer is not None:
            tracer.active, tracer.run = traced, n
        times, outputs = round_trip(cli, w, files, args.seed, args.work, checks)
        if tracer is not None:
            tracer.active = False
        qual, log_row = check_round(checks, w, files, args.work, outputs, ref["band"], n == 0)
        if traced:
            traced_round[n] = times
        else:
            rounds.append(times)
        # set-up samples are spread over the run rather than taken together
        setup_samples.append(setup_probe(args))
        qualities.append(qual)
        log_rows.append(log_row)
        round_secs.append(time.monotonic() - t0)
        n += 1
        # at least two measured rounds, and with tracing one traced round
        if n >= 2 and time.monotonic() - start + statistics.median(round_secs) > args.seconds:
            break
    checks.check(all(r == log_rows[0] for r in log_rows), "train log differs between round trips")
    checks.check(all(q == qualities[0] for q in qualities), "quality differs between round trips")
    result = {}
    if tracer is not None:
        runs = tracer.per_run({i: sum(c[0] for calls in times.values() for c in calls)
                               for i, times in traced_round.items()})
        keys = sorted({k for r in runs.values() for k in r})
        result["per_layer"] = {k: statistics.median(r.get(k, 0.0) for r in runs.values()) for k in keys}
        result["traced_rounds"] = list(traced_round.values())
        result["trace_missing"] = tracer.missing
        checks.check(tracer.nesting_ok(), "a child span lies outside its parent span")
        tracer.dump(os.path.join(args.work, "spans.jsonl"))

    result.update({
        "setup_samples": setup_samples,
        "rounds": rounds,
        "quality_pct": qualities[0],
        "final_log_row": log_rows[0],
        "reference_round": {"seed": ref_seed, "quality_pct": ref_quality, "final_log_row": ref_log_row},
        "measured_rounds": n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vocab_size": vocab_size(f"{args.work}/vocab.tsv"),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
