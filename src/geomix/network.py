"""Minimal feedforward network: dense layers, tanh, inverted dropout,
elastic-net regularization, Adam, early stopping, and a finite-difference
gradient checker.  Backpropagation is hand-derived so every gradient can be
audited against central differences.

``backward`` gives the gradient of the data loss alone; elastic net, its
penalty and its gradient, lives in ``regularization_penalty``, which adds
the gradient to the weight blocks in row blocks of W.
"""

import contextlib
import ctypes
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .kernels import row_blocks


# Adam runs a 2-D block of at least _SPLIT_ELEMS values as _WORKERS row ranges,
# all but one in a pool made on first use, the last on the calling thread.  Its
# seven passes are elementwise, so the ranges give the serial step's bits.  On
# 2 vCPUs one RowGrad step of 640 rows took 1.6 -> 1.1 ms at 1 024 x 128 (2^17
# values), 2.7 -> 1.6 ms at 3 030 x 100 and 7.5 -> 4.7 ms at 9 900 x 100, and
# gained nothing at 830 x 100, where handing a range to a thread costs about
# what it saves.
_SPLIT_ELEMS = 2 ** 17
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
               4)
_pool = None


class ContractError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


@dataclass
class NetworkSpec:
    layer_sizes: tuple  # (input, hidden..., output)
    dropout_rate: float = 0.0
    l1_coeff: float = 0.0
    l2_coeff: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"bad layer sizes: {self.layer_sizes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1): {self.dropout_rate}")
        for name in ("l1_coeff", "l2_coeff"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must be in (0, 1)")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass
class EarlyStopConfig:
    patience: int = 10

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def init_network_params(spec, rng=None):
    """Glorot-uniform weights, zero biases, as a name -> array dict."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    params = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.layer_sizes[:-1], spec.layer_sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[f"W{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
    return params


@dataclass
class Activations:
    layer_inputs: list  # input to each affine layer (post-dropout)
    hidden: list  # tanh output of each hidden layer (pre-dropout)
    masks: list  # dropout masks (None when not applied)
    output: np.ndarray


def forward(params, spec, X, train_mode=False, rng=None):
    """Hidden layers tanh (+ inverted dropout in train mode); final layer affine.

    X is dense or a scipy sparse matrix; a sparse X stays sparse, so the
    first layer is a sparse-dense product.
    """
    if not sparse.issparse(X):
        X = np.asarray(X, dtype=float)
    if X.shape[1] != spec.layer_sizes[0]:
        raise ContractError(f"batch width {X.shape[1]} != input size {spec.layer_sizes[0]}")
    n_layers = len(spec.layer_sizes) - 1
    h = X
    layer_inputs, hidden, masks = [], [], []
    for i in range(n_layers):
        layer_inputs.append(h)
        z = h @ params[f"W{i}"] + params[f"b{i}"]
        if i < n_layers - 1:
            h = np.tanh(z)
            hidden.append(h)
            if train_mode and spec.dropout_rate > 0.0:
                if rng is None:
                    raise ContractError("dropout in train mode needs an rng")
                keep = 1.0 - spec.dropout_rate
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            h = z
            masks.append(None)
    return Activations(layer_inputs=layer_inputs, hidden=hidden, masks=masks, output=h)


class RowGrad(NamedTuple):
    """A weight block's gradient that is exactly zero outside ``rows``:
    ``values[j]`` is the gradient of row ``rows[j]``, ``rows`` sorted and
    unique."""
    rows: np.ndarray
    values: np.ndarray


def dense_gradient(g, shape):
    """A gradient block as a dense array of ``shape``: a RowGrad with
    zeros on the rows it leaves out, any other block as it is."""
    if not isinstance(g, RowGrad):
        return g
    dense = np.zeros(shape)
    dense[g.rows] = g.values
    return dense


def row_gradient(X, delta):
    """``X.T @ delta`` of a CSR batch X as a RowGrad over the columns X uses.

    With the columns renumbered to ``0..len(rows)-1`` the product adds the
    same terms in the same order as ``X.T @ delta``, so each row is bit for
    bit the dense one, and no V-row array is made.
    """
    rows, cols = np.unique(X.indices, return_inverse=True)
    Xc_T = sparse.csc_matrix((X.data, cols, X.indptr), shape=(len(rows), X.shape[0]))
    return RowGrad(rows, Xc_T @ delta)


def backward(params, spec, acts, d_output, input_grad=False):
    """Reverse-mode gradients of the data loss; ``regularization_penalty``
    adds the elastic-net term.

    Returns (grads dict matching params, dLoss/dInput).  dLoss/dInput is
    computed only with ``input_grad``, and is None otherwise.  A CSR first
    layer input gives W0's gradient as a ``row_gradient``; every other block
    is dense.
    """
    n_layers = len(spec.layer_sizes) - 1
    grads = {}
    delta = np.asarray(d_output, dtype=float)
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:
            if acts.masks[i] is not None:
                delta = delta * acts.masks[i]
            delta = delta * (1.0 - acts.hidden[i] ** 2)
        W = params[f"W{i}"]
        h = acts.layer_inputs[i]
        if sparse.issparse(h) and h.format == "csr":
            grads[f"W{i}"] = row_gradient(h, delta)
        else:
            grads[f"W{i}"] = h.T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i == 0 and not input_grad:
            return grads, None
        delta = delta @ W.T
    return grads, delta


def regularization_penalty(params, spec, grads):
    """The elastic-net penalty sum of l1*|W| + l2*W*W over the weight blocks.

    Adds its gradient l1*sign(W) + 2*l2*W to each W block of ``grads``, in
    place, and sums the penalty in the same pass, one ``row_blocks`` slice
    of W at a time, so no W-sized temporary is made; a RowGrad block is
    first made dense.  A zero coefficient adds exactly 0.0, so its terms are
    skipped, and without elastic net ``grads`` is left as it is.
    """
    if not (spec.l1_coeff or spec.l2_coeff):
        return 0.0
    l1 = l2 = 0.0
    for i in range(len(spec.layer_sizes) - 1):
        W = params[f"W{i}"]
        g = grads[f"W{i}"] = dense_gradient(grads[f"W{i}"], W.shape)
        for rows in row_blocks(*W.shape):
            w = W[rows]
            if spec.l1_coeff:
                g[rows] += spec.l1_coeff * np.sign(w)
                l1 += np.abs(w).sum()
            if spec.l2_coeff:
                g[rows] += 2.0 * spec.l2_coeff * w
                l2 += np.sum(w * w)
    return spec.l1_coeff * l1 + spec.l2_coeff * l2


@dataclass
class AdamState:
    """Adam moments per block and one work array per block, holding the
    gradient terms, then the step: a dense block's step allocates nothing, a
    RowGrad block's ``m[rows] +=`` and ``v[rows] +=`` one len(rows) x H copy each."""
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    buffers: dict = field(default_factory=dict)


def adam_step(adam, params, grads, cfg):
    """Bias-corrected Adam update, in place on params.

    Every gradient is checked before any state changes.  Then, in place,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and the step in the
    order of Kingma & Ba (arXiv 1412.6980) Section 2, the textbook one in exact
    arithmetic: ``p -= lr_t*(m/(sqrt(v) + eps_hat))`` with ``lr_t = lr*sqrt(c2)/c1``
    and ``eps_hat = eps*sqrt(c2)``; seven passes over a block, one work array.
    Gradient terms are added on a RowGrad's rows (all rows of a dense block);
    elsewhere they would add exact zeros, so every row's moments still decay
    and every parameter still moves (this is not lazy Adam).  The check runs
    on the calling thread; a 2-D block of at least ``_SPLIT_ELEMS`` values
    then takes its passes in ``_WORKERS`` row ranges at once, bit for bit the
    serial step.
    """
    blocks = {name: (g.rows, g.values) if isinstance(g, RowGrad) else (slice(None), g)
              for name, g in grads.items()}
    for name, (_, g) in blocks.items():
        # min and max are NaN if any entry is NaN and infinite if any is;
        # a block of no rows reads 0
        if not (np.isfinite(g.min(initial=0.0)) and np.isfinite(g.max(initial=0.0))):
            raise TrainingError(f"non-finite gradient in block {name}")
    adam.t += 1
    lr_t = cfg.learning_rate * np.sqrt(1.0 - cfg.beta2 ** adam.t) / (1.0 - cfg.beta1 ** adam.t)
    eps_hat = cfg.epsilon * np.sqrt(1.0 - cfg.beta2 ** adam.t)
    coeffs = (cfg.beta1, cfg.beta2, lr_t, eps_hat)
    for name, (rows, g) in blocks.items():
        p = params[name]
        if name not in adam.m:
            adam.m[name] = np.zeros_like(p)
            adam.v[name] = np.zeros_like(p)
            adam.buffers[name] = np.empty_like(p)
        arrays = (p, adam.m[name], adam.v[name], adam.buffers[name])
        if p.ndim == 2 and p.size >= _SPLIT_ELEMS and _WORKERS > 1:
            _split_adam_passes(arrays, rows, g, coeffs)
        else:
            _adam_passes(*arrays, rows, g, coeffs)


def _adam_passes(p, m, v, b, rows, g, coeffs):
    """Adam's seven passes over one block or row range: ``g`` holds the
    gradient of rows ``rows`` of ``p`` (all rows for ``slice(None)``)."""
    beta1, beta2, lr_t, eps_hat = coeffs
    terms = b[:len(g)]  # all of b for a dense block
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=terms)
    m[rows] += terms
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=terms)
    terms *= g
    v[rows] += terms
    np.sqrt(v, out=b)
    b += eps_hat
    np.divide(m, b, out=b)
    b *= lr_t
    p -= b


def _split_adam_passes(arrays, rows, g, coeffs):
    """``_adam_passes`` over _WORKERS row ranges of one block, each range
    with its own share of a RowGrad's sorted rows, shifted to the range."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="geomix-adam")
    bounds = np.arange(_WORKERS + 1) * len(arrays[0]) // _WORKERS
    cuts = bounds if isinstance(rows, slice) else np.searchsorted(rows, bounds)
    ranges = [(*(a[lo:hi] for a in arrays), slice(None) if isinstance(rows, slice) else rows[c0:c1] - lo,
               g[c0:c1], coeffs) for lo, hi, c0, c1 in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:])]
    futures = [_pool.submit(_adam_passes, *r) for r in ranges[:-1]]
    try:
        _adam_passes(*ranges[-1])
    finally:
        wait(futures)  # no worker is left writing the block
    for f in futures:
        f.result()


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that ``/proc/self/maps``
    shows loaded (numpy's scipy-openblas build, or a plain OpenBLAS), or None
    where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone
            continue
        for get, set_ in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                          ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with the loaded OpenBLAS at one thread and restore its
    count after; where there is none, just run the body.  ``train_loop`` runs
    under it: a second BLAS thread mostly spin-waits on the core that Adam's
    row ranges use instead, and training then ignores ``OPENBLAS_NUM_THREADS``."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@_one_blas_thread()
def train_loop(model, train_data, dev_data, adam_cfg=None, stop_cfg=None,
               batch_size=32, max_epochs=100, seed=0, log_sink=None):
    """Minibatch Adam training with early stopping on the dev metric.

    ``model`` must provide num_examples / batch_loss_and_grads / dev_metric
    and expose its trainable arrays as ``model.params`` (a name -> array
    dict).  Leaves the params of the best dev metric in ``model.params`` and
    returns the log: one (epoch, train loss, dev metric, seconds) record per
    epoch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    adam_cfg = adam_cfg or AdamConfig()
    stop_cfg = stop_cfg or EarlyStopConfig()
    rng = np.random.default_rng(seed)
    adam = AdamState()
    n = model.num_examples(train_data)
    best_metric = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_epoch = -1
    log = []
    for epoch in range(max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = model.batch_loss_and_grads(train_data, idx, rng=rng, train_mode=True)
            if not np.isfinite(loss):
                raise TrainingError(f"NaN loss at epoch {epoch}, batch {start // batch_size}")
            adam_step(adam, model.params, grads, adam_cfg)
            del grads  # not held while the next batch's gradients are built
            epoch_loss += loss * len(idx)
        epoch_loss /= n
        metric = model.dev_metric(dev_data)
        record = (epoch, epoch_loss, metric, time.perf_counter() - t0)
        log.append(record)
        if log_sink is not None:
            log_sink(record)
        if metric < best_metric:
            best_metric = metric
            for k, v in model.params.items():
                np.copyto(best_params[k], v)  # in place: one best copy at a time
            best_epoch = epoch
        elif epoch - best_epoch >= stop_cfg.patience:
            break
    for k, v in best_params.items():
        model.params[k][...] = v
    return log


def gradient_check(model, data, h=1e-5):
    """Central-difference check of every parameter entry.

    Returns a dict: block name -> max relative error.  Relative error is
    |analytic - numeric| / max(|analytic| + |numeric|, 1e-8).
    """
    _, grads = model.batch_loss_and_grads(data, None, train_mode=False)
    report = {}
    for name, arr in model.params.items():
        g = dense_gradient(grads[name], arr.shape)
        worst = 0.0
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = model.batch_loss_and_grads(data, None, train_mode=False)
            flat[i] = orig - h
            lm, _ = model.batch_loss_and_grads(data, None, train_mode=False)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = g.ravel()[i]
            err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, err)
        report[name] = worst
    return report
