"""Trainable model wrappers tying the network core to the loss heads.

Each model exposes the same training surface (``params``, ``num_examples``,
``batch_loss_and_grads``, ``dev_metric``) consumed by ``network.train_loop``
and ``network.gradient_check``, plus checkpoint (de)serialization.

Training data is a ``(X, Y)`` pair: X dense or CSR features, Y an N x 2
coordinate array (geolocation) or N x V target matrix (dialectology).

Checkpoint format 2 stores each parameter block as ``{"shape": [...],
"data": "<base64 of little-endian float64 bytes>"}``; format 1 stored
``"data"`` as a JSON list of floats and is still read.  Every other field
is plain JSON.  This module owns both encodings.
"""

import base64
import binascii

import numpy as np
from scipy import sparse

from . import dialect as dl
from . import heads
from .geo import GeoPoint
from .network import NetworkSpec, backward, forward, init_network_params, regularization_penalty

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


class CheckpointError(ValueError):
    pass


def _dense(X, idx=None):
    sub = X if idx is None else X[idx]
    return sub.toarray() if sparse.issparse(sub) else np.asarray(sub, dtype=float)


def _take(Y, idx=None):
    return np.asarray(Y, dtype=float) if idx is None else np.asarray(Y, dtype=float)[idx]


class _BaseModel:
    model_name = None

    def __init__(self, spec, rng=None, params=None):
        """``params`` None draws fresh Glorot weights; ``from_checkpoint``
        passes ``{}`` and then fills every block from the file."""
        self.spec = spec
        self.params = init_network_params(spec, rng) if params is None else params
        self.vocab_hash = None

    def num_examples(self, data):
        return data[0].shape[0]

    def _data_loss(self, X, Y, train_mode, rng):
        raise NotImplementedError

    def batch_loss_and_grads(self, data, idx=None, rng=None, train_mode=False):
        X = _dense(data[0], idx)
        Y = _take(data[1], idx)
        loss, grads = self._data_loss(X, Y, train_mode, rng)
        return loss + regularization_penalty(self.params, self.spec), grads

    def dev_metric(self, data):
        X = _dense(data[0])
        Y = _take(data[1])
        loss, _ = self._data_loss(X, Y, train_mode=False, rng=None)
        return loss

    def _extra_checkpoint(self):
        return {}

    def to_checkpoint(self):
        ck = {
            "format_version": FORMAT_VERSION,
            "model": self.model_name,
            "slice_layout": heads.SLICE_LAYOUT,
            "network_spec": {
                "layer_sizes": list(self.spec.layer_sizes),
                "hidden_activation": self.spec.hidden_activation,
                "dropout_rate": self.spec.dropout_rate,
                "l1_coeff": self.spec.l1_coeff,
                "l2_coeff": self.spec.l2_coeff,
                "seed": self.spec.seed,
            },
            "vocab_hash": self.vocab_hash,
            "params": {name: _encode_block(arr) for name, arr in sorted(self.params.items())},
        }
        ck.update(self._extra_checkpoint())
        return ck

    @classmethod
    def _checkpoint_fields(cls, ck, spec):
        """Constructor arguments, besides spec and params, read from a checkpoint."""
        return {}

    @classmethod
    def from_checkpoint(cls, ck):
        spec = _build(NetworkSpec, _field(ck, "network_spec", dict), "network_spec")
        model = _build(cls, dict(spec=spec, params={}, **cls._checkpoint_fields(ck, spec)),
                       "model fields for this network_spec")
        model._load_params(ck)
        return model

    def _load_params(self, ck):
        """Set ``params`` from the checkpoint's blocks, which must be the
        network's blocks plus the extra blocks the constructor set."""
        sizes = self.spec.layer_sizes
        shapes = {}
        for i in range(len(sizes) - 1):
            shapes[f"W{i}"], shapes[f"b{i}"] = (sizes[i], sizes[i + 1]), (sizes[i + 1],)
        shapes.update((name, arr.shape) for name, arr in self.params.items())
        blocks = _field(ck, "params", dict)
        if set(blocks) != set(shapes):
            raise CheckpointError(f"parameter blocks {sorted(blocks)} do not match the "
                                  f"model's {sorted(shapes)}")
        v1 = ck.get("format_version") == 1
        params = {}
        for name, shape in shapes.items():
            arr = _decode_block_v1(name, blocks[name]) if v1 else _decode_block(name, blocks[name])
            if arr.shape != shape:
                raise CheckpointError(f"parameter {name} has shape {arr.shape}, "
                                      f"the model needs {shape}")
            params[name] = arr
        self.params = params
        self.vocab_hash = ck.get("vocab_hash")


def _encode_block(arr):
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(raw).decode("ascii")}


def _block_shape(name, entry):
    shape = entry.get("shape") if isinstance(entry, dict) else None
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise CheckpointError(f"parameter {name}: bad or missing shape")
    return tuple(shape)


def _decode_block(name, entry):
    shape = _block_shape(name, entry)
    try:
        raw = base64.b64decode(entry.get("data"), validate=True)
    except (TypeError, binascii.Error) as e:
        raise CheckpointError(f"parameter {name}: invalid base64 data: {e}") from e
    if len(raw) != 8 * int(np.prod(shape)):
        raise CheckpointError(f"parameter {name}: {len(raw)} bytes for shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def _decode_block_v1(name, entry):
    shape = _block_shape(name, entry)
    try:
        return np.array(entry.get("data"), dtype=float).reshape(shape)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"parameter {name}: bad float list: {e}") from e


def _field(ck, key, kind):
    value = ck.get(key)
    if not isinstance(value, kind):
        raise CheckpointError(f"checkpoint field {key!r} is missing or not a {kind.__name__}")
    return value


def _build(factory, fields, what):
    """``factory(**fields)``, with unknown or invalid fields as a CheckpointError."""
    try:
        return factory(**fields)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"bad {what} in checkpoint: {e}") from e


class RegressionGeolocator(_BaseModel):
    """Baseline MLP regressor with a 2-d linear output."""

    model_name = "regression"

    def _data_loss(self, X, Y, train_mode, rng):
        acts = forward(self.params, self.spec, X, train_mode=train_mode, rng=rng)
        loss, d_raw = heads.regression_loss(acts.output, Y)
        grads, _ = backward(self.params, self.spec, acts, d_raw)
        return loss, grads

    def predict_points(self, X):
        out = forward(self.params, self.spec, _dense(X)).output
        return out.copy()


class _MixtureGeolocator(_BaseModel):
    """Geolocator whose prediction for each user is a mixture of K bivariate
    Gaussians; subclasses differ in which mixture arrays the network emits."""

    def __init__(self, spec, head, rng=None, params=None):
        super().__init__(spec, rng, params)
        self.head = head

    def mixture_arrays(self, X):
        """(mu1, mu2, sigma1, sigma2, rho, pi) for the rows of X, each N x K."""
        raise NotImplementedError

    def predict_points(self, X, rule=None):
        mu1, mu2, s1, s2, rho, pi = self.mixture_arrays(X)
        return heads.predict_arrays(mu1, mu2, s1, s2, rho, pi,
                                    rule or self.head.selection_rule)

    def _extra_checkpoint(self):
        return {"head": {"K": self.head.K, "selection_rule": self.head.selection_rule}}

    @classmethod
    def _checkpoint_fields(cls, ck, spec):
        return {"head": _build(heads.MdnHeadConfig, _field(ck, "head", dict), "head")}


class MdnGeolocator(_MixtureGeolocator):
    """MDN head: the network emits all 6K mixture parameters per sample."""

    model_name = "mdn"

    def __init__(self, spec, head, rng=None, params=None):
        if spec.layer_sizes[-1] != 6 * head.K:
            raise ValueError(f"output size {spec.layer_sizes[-1]} != 6K = {6 * head.K}")
        super().__init__(spec, head, rng, params)

    def _data_loss(self, X, Y, train_mode, rng):
        acts = forward(self.params, self.spec, X, train_mode=train_mode, rng=rng)
        loss, d_raw = heads.mdn_nll(acts.output, Y, self.head.K)
        grads, _ = backward(self.params, self.spec, acts, d_raw)
        return loss, grads

    def init_output_bias_from_labels(self, train_labels, sigma=2.0, mode="mean", seed=0):
        """Seed the output bias so initial mus start at label scale.

        ``mode="mean"`` puts every component at the coordinate mean (the
        network must spread them); ``mode="kmeans"`` puts them on K-means
        centroids.  Sigmas start at ``sigma``; pi and rho start flat.
        """
        labels = np.asarray(train_labels, dtype=float)
        K = self.head.K
        if mode == "kmeans":
            from .cluster import kmeans
            centers = kmeans(labels, K, seed=seed).centroids
        elif mode == "mean":
            centers = np.tile(labels.mean(axis=0), (K, 1))
        else:
            raise ValueError(f"unknown bias init mode: {mode}")
        b = self.params[f"b{len(self.spec.layer_sizes) - 2}"]
        b[:K] = centers[:, 0]
        b[K:2 * K] = centers[:, 1]
        b[2 * K:4 * K] = float(heads.inv_softplus(sigma))
        b[4 * K:] = 0.0

    def mixture_arrays(self, X):
        raw = forward(self.params, self.spec, _dense(X)).output
        return heads.unpack_arrays(raw, self.head.K)


class SharedMdnGeolocator(_MixtureGeolocator):
    """MDN with globally shared mus/Sigmas; the network predicts only pi."""

    model_name = "mdn_shared"

    def __init__(self, spec, head, rng=None, params=None):
        if spec.layer_sizes[-1] != head.K:
            raise ValueError(f"output size {spec.layer_sizes[-1]} != K = {head.K}")
        super().__init__(spec, head, rng, params)
        self.params.update(heads.unit_components(head.K))

    def init_shared_from_labels(self, train_labels, seed=0):
        """K-means mus over the training labels, effective sigmas in (0, 10)."""
        self.params.update(heads.init_components(train_labels, self.head.K, (0.0, 10.0), seed))

    def _data_loss(self, X, Y, train_mode, rng):
        acts = forward(self.params, self.spec, X, train_mode=train_mode, rng=rng)
        loss, d_pi_raw, shared_grads = heads.shared_nll(acts.output, self.params, Y)
        grads, _ = backward(self.params, self.spec, acts, d_pi_raw)
        grads.update(shared_grads)
        return loss, grads

    def mixture_arrays(self, X):
        pi_raw = forward(self.params, self.spec, _dense(X)).output
        s1, s2, rho, _ = heads.component_transforms(self.params)
        mus = self.params["mus"]
        tile = lambda v: np.tile(v, (pi_raw.shape[0], 1))
        return (*map(tile, (mus[:, 0], mus[:, 1], s1, s2, rho)),
                np.exp(heads.log_softmax(pi_raw)))


class DialectModel(_BaseModel):
    """Coordinate -> Gaussian layer (K) -> tanh hidden -> SoftMax over V."""

    model_name = "dialect"

    def __init__(self, spec, terms, log_domain=False, rng=None, params=None):
        super().__init__(spec, rng, params)
        self.terms = list(terms)
        self.log_domain = log_domain
        self.params.update(heads.unit_components(spec.layer_sizes[0]))

    @classmethod
    def init(cls, K, hidden, terms, train_coords, seed=0, dropout_rate=0.0,
             l1_coeff=0.0, l2_coeff=0.0, log_domain=False):
        """K-means mus over training coordinates, effective sigmas in (1, 5)."""
        spec = NetworkSpec(layer_sizes=(K, hidden, len(terms)), dropout_rate=dropout_rate,
                           l1_coeff=l1_coeff, l2_coeff=l2_coeff, seed=seed)
        model = cls(spec, terms, log_domain=log_domain, rng=np.random.default_rng(seed + 1))
        model.params.update(heads.init_components(train_coords, K, (1.0, 5.0), seed))
        return model

    def _data_loss(self, X, Y, train_mode, rng):
        acts_in, cache = dl.gaussian_layer_forward_batch(self.params, X, self.log_domain)
        acts = forward(self.params, self.spec, acts_in, train_mode=train_mode, rng=rng)
        loss, d_logits = dl.dialect_loss(acts.output, Y)
        grads, d_input = backward(self.params, self.spec, acts, d_logits)
        grads.update(dl.gaussian_layer_backward(self.params, cache, d_input))
        return loss, grads

    def word_log_probs(self, coords):
        """N x V log-probabilities over the vocabulary for N coordinates."""
        acts_in, _ = dl.gaussian_layer_forward_batch(self.params, _dense(coords), self.log_domain)
        logits = forward(self.params, self.spec, acts_in).output
        return heads.log_softmax(logits)

    def _extra_checkpoint(self):
        return {"terms": self.terms, "log_domain": self.log_domain}

    @classmethod
    def _checkpoint_fields(cls, ck, spec):
        terms = _field(ck, "terms", list)
        if len(terms) != spec.layer_sizes[-1]:
            raise CheckpointError(f"{len(terms)} terms for an output layer of {spec.layer_sizes[-1]}")
        return {"terms": terms, "log_domain": ck.get("log_domain", False)}


MODEL_CLASSES = {
    cls.model_name: cls
    for cls in (RegressionGeolocator, MdnGeolocator, SharedMdnGeolocator, DialectModel)
}


def points_from_array(arr):
    return [GeoPoint(float(a), float(b)) for a, b in np.asarray(arr, dtype=float)]
