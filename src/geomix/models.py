"""Trainable model wrappers tying the network core to the loss heads.

Each model exposes the same training surface (``params``, ``num_examples``,
``batch_loss_and_grads``, ``dev_metric``) consumed by ``network.train_loop``
and ``network.gradient_check``, plus checkpoint (de)serialization.  A
geolocator supplies only its ``_head``: one forward -> head -> backward step
trains it, and the head's loss on one forward pass is its dev metric.  The
dialect model, whose network sits on a Gaussian layer, has its own step.

Training data is a ``(X, Y)`` pair of row-indexable arrays.  Geolocation
models take X as an N x V CSR feature matrix, kept sparse through the first
layer (``backward`` gives W0's gradient as a ``network.RowGrad`` of the
batch's rows, which ``network.regularization_penalty`` makes dense only
under elastic net), and Y as an N x 2 coordinate array; the dialect model takes
X as a dense N x 2 coordinate array and Y as an N x V CSR target matrix,
which the loss and the dev metric read as it is.  The dialect model's V-wide
outputs (logits, the dev loss) are computed in ``kernels.row_blocks``, never
for all rows at once; its region scores are weighted sums of each distinct
point's hidden layer and log-normalizer, never a P x V log-probability matrix.

``to_checkpoint`` gives a model's checkpoint as a dict: every field is
plain JSON except ``params``, which maps each block name to its float64
array.  ``from_checkpoint`` takes the same dict with each array replaced by
a block that has a ``shape`` and a ``read()``, so the file format's reader
(``data.load_model``: format 4, a zip of ``.npy`` members) reads a block's
data only after its shape has been checked against the network.  A
checkpoint stores only what varies between models: the model name, the
network spec, the vocabulary hash, the blocks and, for the dialect model, its
terms.  A mixture geolocator's K is implied by its output width, 6K for the
MDN and K for the shared MDN, and its selection rule is chosen at query time.
"""

from dataclasses import asdict

import numpy as np

from . import dialect as dl
from . import heads
from .geo import clip_points
from .kernels import inv_softplus, log_softmax, logsumexp_rows, row_blocks
from .network import NetworkSpec, backward, forward, init_network_params, regularization_penalty

FORMAT_VERSION = 4


class CheckpointError(ValueError):
    pass


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

    def _head(self, out, Y):
        """(loss, dLoss/dOut, gradients of the blocks outside the network) of
        the network output ``out`` against the targets Y."""
        raise NotImplementedError

    def _data_loss(self, X, Y, train_mode, rng):
        acts = forward(self.params, self.spec, X, train_mode=train_mode, rng=rng)
        loss, d_out, head_grads = self._head(acts.output, Y)
        grads, _ = backward(self.params, self.spec, acts, d_out)
        grads.update(head_grads)
        return loss, grads

    def batch_loss_and_grads(self, data, idx=None, rng=None, train_mode=False):
        X, Y = data if idx is None else (data[0][idx], data[1][idx])
        loss, grads = self._data_loss(X, Y, train_mode, rng)
        return loss + regularization_penalty(self.params, self.spec, grads), grads

    def dev_metric(self, data):
        """The head's loss on one forward pass; no backward."""
        X, Y = data
        return self._head(forward(self.params, self.spec, X).output, Y)[0]

    def _extra_checkpoint(self):
        return {}

    def to_checkpoint(self):
        ck = {
            "format_version": FORMAT_VERSION,
            "model": self.model_name,
            "network_spec": asdict(self.spec),
            "vocab_hash": self.vocab_hash,
            "params": dict(sorted(self.params.items())),
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
                       "network_spec for this model")
        model._load_params(ck)
        return model

    def _load_params(self, ck):
        """Set ``params`` from the checkpoint's blocks, which must be the
        network's blocks plus the extra blocks the constructor set.  A
        block is read only once its shape matches, and must be finite."""
        sizes = self.spec.layer_sizes
        shapes = {}
        for i in range(len(sizes) - 1):
            shapes[f"W{i}"], shapes[f"b{i}"] = (sizes[i], sizes[i + 1]), (sizes[i + 1],)
        shapes.update((name, arr.shape) for name, arr in self.params.items())
        blocks = _field(ck, "params", dict)
        if set(blocks) != set(shapes):
            raise CheckpointError(f"parameter blocks {sorted(blocks)} do not match the "
                                  f"model's {sorted(shapes)}")
        params = {}
        for name, shape in shapes.items():
            if blocks[name].shape != shape:
                raise CheckpointError(f"parameter {name} has shape {blocks[name].shape}, "
                                      f"the model needs {shape}")
            params[name] = blocks[name].read()
            if not np.isfinite(params[name]).all():
                raise CheckpointError(f"parameter {name} holds a non-finite value")
        self.params = params
        self.vocab_hash = ck.get("vocab_hash")


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

    def _head(self, out, Y):
        return (*heads.regression_loss(out, Y), {})

    def predict_points(self, X):
        return clip_points(forward(self.params, self.spec, X).output)


class _MixtureGeolocator(_BaseModel):
    """Geolocator whose prediction for each user is a mixture of K bivariate
    Gaussians; subclasses differ in which mixture the network emits, the
    component rows and raw pi that ``_rows`` reads off its output."""

    def _rows(self, out):
        """(the five component rows, raw pi) of the network output ``out``."""
        raise NotImplementedError

    def mixture_rows(self, X):
        """(the five component rows, raw pi) of one forward pass over the N rows
        of X: each N x K, or 1 x K rows when all users share them."""
        return self._rows(forward(self.params, self.spec, X).output)

    def dev_metric(self, data):
        """The head's loss on one forward pass, its mixture log-likelihood
        taken in row blocks; no backward, no gradients."""
        X, Y = data
        return -float(np.mean(heads.predictive_density_grid(*self.mixture_rows(X), Y)))

    def predict_points(self, X, rule=None):
        """``heads.predict_arrays`` under ``rule``; None is strongest_pi."""
        return heads.predict_arrays(*heads.mixture_arrays(*self.mixture_rows(X)),
                                    rule or "strongest_pi")


class MdnGeolocator(_MixtureGeolocator):
    """MDN head: the network emits all 6K mixture parameters per sample."""

    model_name = "mdn"

    def __init__(self, spec, rng=None, params=None):
        if spec.layer_sizes[-1] % 6:
            raise ValueError(f"output size {spec.layer_sizes[-1]} is not a multiple of 6")
        super().__init__(spec, rng, params)
        self.K = spec.layer_sizes[-1] // 6

    def _head(self, out, Y):
        return (*heads.mdn_nll(out, Y, self.K), {})

    def _rows(self, out):
        return heads.mdn_rows(out, self.K)

    def init_output_bias_from_labels(self, train_labels, sigma=2.0, mode="mean", seed=0):
        """Seed the output bias so initial mus start at label scale.

        ``mode="mean"`` puts every component at the coordinate mean (the
        network must spread them); ``mode="kmeans"`` puts them on K-means
        centroids.  Sigmas start at ``sigma``; pi and rho start flat.
        """
        labels = np.asarray(train_labels, dtype=float)
        K = self.K
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
        b[2 * K:4 * K] = float(inv_softplus(sigma))
        b[4 * K:] = 0.0


class SharedMdnGeolocator(_MixtureGeolocator):
    """MDN with globally shared mus/Sigmas; the network predicts only pi."""

    model_name = "mdn_shared"

    def __init__(self, spec, rng=None, params=None):
        super().__init__(spec, rng, params)
        self.K = spec.layer_sizes[-1]
        self.params.update(heads.unit_components(self.K))

    def init_shared_from_labels(self, train_labels, seed=0):
        """K-means mus over the training labels, effective sigmas in (0, 10)."""
        self.params.update(heads.init_components(train_labels, self.K, (0.0, 10.0), seed))

    def _head(self, out, Y):
        return heads.shared_nll(out, self.params, Y)

    def _rows(self, out):
        return heads.component_rows(self.params), out


class DialectModel(_BaseModel):
    """Coordinate -> Gaussian layer (K) -> tanh hidden -> SoftMax over V."""

    model_name = "dialect"

    def __init__(self, spec, terms, rng=None, params=None):
        super().__init__(spec, rng, params)
        self.terms = list(terms)
        self.params.update(heads.unit_components(spec.layer_sizes[0]))

    @classmethod
    def init(cls, K, hidden, terms, train_coords, seed=0, dropout_rate=0.0,
             l1_coeff=0.0, l2_coeff=0.0):
        """K-means mus over training coordinates, effective sigmas in (1, 5)."""
        spec = NetworkSpec(layer_sizes=(K, hidden, len(terms)), dropout_rate=dropout_rate,
                           l1_coeff=l1_coeff, l2_coeff=l2_coeff, seed=seed)
        model = cls(spec, terms, rng=np.random.default_rng(seed + 1))
        model.params.update(heads.init_components(train_coords, K, (1.0, 5.0), seed))
        return model

    def _data_loss(self, X, Y, train_mode, rng):
        acts_in, cache = dl.gaussian_layer_forward_batch(self.params, X)
        acts = forward(self.params, self.spec, acts_in, train_mode=train_mode, rng=rng)
        loss, d_logits = dl.dialect_loss(acts.output, Y)
        grads, d_input = backward(self.params, self.spec, acts, d_logits, input_grad=True)
        grads.update(dl.gaussian_layer_backward(self.params, cache, d_input))
        return loss, grads

    def dev_metric(self, data):
        """Mean cross-entropy over the target rows with positive mass, one
        row block at a time; no gradients."""
        coords, Y = data
        ll, n_active = 0.0, 0
        for start, _, logits in self.logit_blocks(coords):
            block_ll, active, _ = dl.target_log_likelihood(log_softmax(logits), Y[start:start + len(logits)])
            ll += block_ll
            n_active += int(active.sum())
        return -float(ll / n_active) if n_active else 0.0

    def logit_blocks(self, coords):
        """``(start, h, logits)`` for the V-wide ``kernels.row_blocks`` of the
        N x 2 ``coords``: the hidden layer h (rows x H) and the logits
        h @ W_out + b_out (rows x V), whose log-softmax is the word
        log-probabilities."""
        coords = np.asarray(coords, dtype=float)
        for rows in row_blocks(len(coords), len(self.terms)):
            yield rows.start, *self._hidden_and_logits(coords[rows])

    def _hidden_and_logits(self, coords):
        acts_in, _ = dl.gaussian_layer_forward_batch(self.params, coords)
        acts = forward(self.params, self.spec, acts_in)
        return acts.layer_inputs[-1], acts.output

    def region_scores(self, points, weights):
        """``weights @ log_p`` (R x V) for the R x D ``weights``
        (``dialect.region_weights``) and the word log-probabilities log_p at
        the D ``points``, without a D x V matrix: log_p = h @ W_out + b_out - lse
        is linear in h and the log-normalizers lse, so each row block adds its
        weighted h and lse into one R x (H+1) sum s, projected as
        s[:, :H] @ W_out - s[:, H:] (b_out drops out: each weight row sums to 0).
        """
        H = self.spec.layer_sizes[-2]
        s = np.zeros((len(weights), H + 1))
        for start, h, logits in self.logit_blocks(points):
            w = weights[:, start:start + len(h)]
            s[:, :H] += w @ h
            s[:, H] += w @ logsumexp_rows(logits)
        W_out = self.params[f"W{len(self.spec.layer_sizes) - 2}"]
        return s[:, :H] @ W_out - s[:, H:]

    def _extra_checkpoint(self):
        return {"terms": self.terms}

    @classmethod
    def _checkpoint_fields(cls, ck, spec):
        terms = _field(ck, "terms", list)
        if not all(isinstance(t, str) for t in terms) or len(set(terms)) != len(terms):
            raise CheckpointError("checkpoint field 'terms' is not a list of distinct strings")
        if len(terms) != spec.layer_sizes[-1]:
            raise CheckpointError(f"{len(terms)} terms for an output layer of {spec.layer_sizes[-1]}")
        return {"terms": terms}


MODEL_CLASSES = {
    cls.model_name: cls
    for cls in (RegressionGeolocator, MdnGeolocator, SharedMdnGeolocator, DialectModel)
}
