"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public geomix functions in the benchmark process.
A wrapped function is replaced under every name a geomix module holds for it
(``models.forward``, ``heads.kmeans``, ``dialect.component_log_pdf`` ...),
so calls are caught where the caller looks the name up, not only where it is
defined.  Names a later version of geomix no longer has are listed in
``Tracer.missing``, so a metric that reads 0 because its name is gone can
be told from a real 0.

Spans (name, start, end, parent, run id) are kept in memory; self time is a
span's duration minus that of its direct children.  It is reported as a
share of the round's time in CLI calls, so a function a workload never calls
reads 0 % rather than a time.  Hot scalar helpers get a call counter only,
since a span per call would cost more than the call.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _nbytes(x):
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (tuple, list)):
        return sum(_nbytes(v) for v in x)
    return 0


def _kernel_stats(args, kwargs, out):
    first = out[0] if isinstance(out, tuple) else out
    moved = sum(_nbytes(a) for a in args) + sum(_nbytes(v) for v in kwargs.values()) + _nbytes(out)
    return {"elems": int(np.size(first)), "bytes_computed": moved}


def _logsumexp_stats(args, kwargs, out):
    a = args[0] if args else next(iter(kwargs.values()))
    return {"elems": int(np.size(a)), "bytes_computed": _nbytes(a) + _nbytes(out)}


def _kmeans_stats(args, kwargs, out):
    return {"iters": len(getattr(out, "inertia_history", ()))}


def _file_stats(args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    return {"ckpt_bytes": os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0}


# module -> {function: extra-stats callback or None}
FUNCTIONS = {
    "cli": dict.fromkeys(["cmd_train", "cmd_evaluate", "cmd_predict", "cmd_dialect", "cmd_heatmap",
                          "heads_from_model"]),
    "network": dict.fromkeys(["train_loop", "forward", "backward", "adam_step", "regularization_penalty"]),
    "heads": dict.fromkeys(["mdn_nll", "shared_nll", "predict_arrays", "predictive_density_grid",
                            "init_shared"]),
    "kernels": {"component_log_pdf": _kernel_stats, "log_pdf_partials": _kernel_stats,
                "logsumexp_rows": _logsumexp_stats},
    "cluster": {"kmeans": _kmeans_stats},
    "data": {"save_model": _file_stats, "load_model": _file_stats, "read_corpus": None},
    "features": dict.fromkeys(["tokenize", "build_vocab", "vectorize", "vectorize_matrix", "load_vocab"]),
    "dialect": dict.fromkeys(["gaussian_layer_forward_batch", "gaussian_layer_backward", "dialect_loss",
                              "score_vocabulary", "dialect_rank"]),
    "geo": dict.fromkeys(["evaluate"]),
}
# methods of the classes in geomix.models, traced as models.<method>
METHODS = ("batch_loss_and_grads", "dev_metric", "to_checkpoint", "from_checkpoint", "word_log_probs")
# hot scalar helpers: call counts only
COUNTED = {"dialect": ["region_membership"], "geo": ["haversine_km"]}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.stack = []
        self.counts = defaultdict(float)  # (run id, metric) -> value
        self.run = 0
        self.active = False
        self.missing = []  # traced names not found in geomix

    def _span(self, name, fn, stats):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if stats is not None:
                for stat, value in stats(args, kwargs, out).items():
                    self.counts[(self.run, f"{name}.{stat}")] += value
            return out
        return traced

    def _counter(self, name, fn):
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            if self.active:
                self.counts[(self.run, key)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap the traced geomix functions under every name that refers to them."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "geomix" or name.startswith("geomix.")}
        replace = {}  # id(original) -> wrapper
        for mod_name, funcs in FUNCTIONS.items():
            mod = mods.get(f"geomix.{mod_name}")
            for fn_name, stats in funcs.items():
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                else:
                    replace[id(fn)] = self._span(f"{mod_name}.{fn_name}", fn, stats)
        for mod_name, funcs in COUNTED.items():
            mod = mods.get(f"geomix.{mod_name}")
            for fn_name in funcs:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                else:
                    replace[id(fn)] = self._counter(f"{mod_name}.{fn_name}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        models = getattr(mods.get("geomix.models"), "__dict__", {})
        found = set()
        for cls in [v for v in models.values() if isinstance(v, type)]:
            for meth in METHODS:
                raw = cls.__dict__.get(meth)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._span(f"models.{meth}", raw.__func__, None)))
                elif callable(raw):
                    setattr(cls, meth, self._span(f"models.{meth}", raw, None))
                else:
                    continue
                found.add(meth)
        self.missing += [f"models.{meth}" for meth in METHODS if meth not in found]

    def _covered(self):
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def per_run(self, run_seconds):
        """{run id: {metric: value}} for the runs in ``run_seconds``.

        Per traced name: self_s, calls and self_pct, the self time as a
        percentage of the run's ``run_seconds``.
        """
        out = {run: defaultdict(float) for run in run_seconds}
        for (name, start, end, _, run), covered in zip(self.spans, self._covered()):
            if run in out:
                out[run][f"{name}.self_s"] += (end - start) - covered
                out[run][f"{name}.calls"] += 1
        for (run, key), value in self.counts.items():
            if run in out:
                out[run][key] += value
        for run, metrics in out.items():
            for key in [k for k in metrics if k.endswith(".self_s")]:
                metrics[key[:-len("self_s")] + "self_pct"] = 100.0 * metrics[key] / run_seconds[run]
        return out

    def nesting_ok(self):
        """True when every span lies inside its parent and covers its children."""
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and not self.spans[parent][1] <= start <= end <= self.spans[parent][2]:
                return False
        return all(end - start >= covered
                   for (_, start, end, _, _), covered in zip(self.spans, self._covered()))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
