"""Feedforward core: forward oracle, backprop vs finite differences, the
first layer's row gradient, Adam, dropout, elastic net and the training
loop."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from geomix import kernels, models, network
from geomix.network import (AdamConfig, AdamState, ContractError, EarlyStopConfig,
                            NetworkSpec, RowGrad, TrainingError, adam_step, backward,
                            dense_gradient, forward, init_network_params,
                            regularization_penalty, row_gradient, train_loop)


def small_net(seed=0, **kw):
    spec = NetworkSpec((3, 4, 2), seed=seed, **kw)
    return init_network_params(spec), spec


def test_forward_matches_manual_computation():
    params, spec = small_net()
    X = np.array([[0.2, -1.0, 0.5], [1.5, 0.0, -0.3]])
    acts = forward(params, spec, X)
    h = np.tanh(X @ params["W0"] + params["b0"])
    out = h @ params["W1"] + params["b1"]
    np.testing.assert_allclose(acts.output, out, atol=1e-12)


def test_forward_width_contract():
    params, spec = small_net()
    with pytest.raises(ContractError):
        forward(params, spec, np.zeros((2, 5)))


def test_backward_matches_finite_differences():
    """``backward`` plus ``regularization_penalty``'s gradient."""
    check_backward_against_finite_differences(dropout_rate=0.0)


def test_backward_matches_finite_differences_under_dropout():
    """The same with dropout: every forward pass draws the same masks."""
    check_backward_against_finite_differences(dropout_rate=0.5)


def check_backward_against_finite_differences(dropout_rate):
    rng = np.random.default_rng(0)
    spec = NetworkSpec((3, 5, 4, 2), dropout_rate=dropout_rate, l1_coeff=1e-3, l2_coeff=1e-3, seed=1)
    params = init_network_params(spec)
    X = rng.normal(size=(6, 3))
    Y = rng.normal(size=(6, 2))

    def fwd():
        return forward(params, spec, X, train_mode=True, rng=np.random.default_rng(2))

    def loss_fn():
        out = fwd().output
        weights = [params["W0"], params["W1"], params["W2"]]
        return np.mean((out - Y) ** 2) + sum(1e-3 * np.abs(W).sum() + 1e-3 * np.sum(W * W)
                                             for W in weights)

    acts = fwd()
    if dropout_rate:
        assert all((m == 0.0).any() for m in acts.masks[:2])
    d_out = 2.0 * (acts.output - Y) / Y.size
    grads, _ = backward(params, spec, acts, d_out)
    regularization_penalty(params, spec, grads)
    h = 1e-5
    for name, arr in params.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = grads[name].ravel()[i]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            assert rel < 1e-4, (name, i, rel)


def test_backward_input_gradient():
    rng = np.random.default_rng(1)
    params, spec = small_net(seed=2)
    X = rng.normal(size=(4, 3))
    acts = forward(params, spec, X)
    d_out = np.ones_like(acts.output)
    _, d_input = backward(params, spec, acts, d_out, input_grad=True)
    h = 1e-6
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            numeric = (forward(params, spec, Xp).output.sum()
                       - forward(params, spec, Xm).output.sum()) / (2 * h)
            assert abs(d_input[i, j] - numeric) < 1e-6


def test_backward_input_gradient_only_on_request():
    rng = np.random.default_rng(3)
    params, spec = small_net(seed=4)
    acts = forward(params, spec, rng.normal(size=(4, 3)))
    d_out = rng.normal(size=acts.output.shape)
    grads, d_input = backward(params, spec, acts, d_out)
    assert d_input is None
    asked, d_input = backward(params, spec, acts, d_out, input_grad=True)
    assert d_input.shape == (4, 3)
    for name in params:
        np.testing.assert_array_equal(grads[name], asked[name])


@st.composite
def csr_batches(draw):
    """(a CSR batch of rows drawn with repeats, a delta for it); a sparse
    density leaves rows empty, a zero density leaves the whole batch empty."""
    n, V, H = draw(st.integers(1, 12)), draw(st.integers(1, 30)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = sparse.random(n, V, density=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
                      format="csr", random_state=rng)
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16))
    return X[idx], rng.normal(size=(len(idx), H))


@settings(max_examples=200, deadline=None)
@given(csr_batches())
@example((sparse.csr_matrix((3, 5)), np.ones((3, 2))))  # an all-empty batch: zero rows
def test_row_gradient_is_the_dense_gradient_bitwise(batch):
    X, delta = batch
    g = row_gradient(X, delta)
    want = X.T @ delta
    np.testing.assert_array_equal(g.rows, np.unique(X.indices))
    assert g.values.shape == (len(g.rows), delta.shape[1])
    assert g.values.tobytes() == want[g.rows].tobytes()
    # and exactly zero on every row the batch leaves out
    assert dense_gradient(g, want.shape).tobytes() == want.tobytes()


def test_dropout_zero_equals_eval_mode():
    params, spec = small_net(seed=3, dropout_rate=0.0)
    X = np.random.default_rng(2).normal(size=(5, 3))
    train_out = forward(params, spec, X, train_mode=True,
                        rng=np.random.default_rng(0)).output
    eval_out = forward(params, spec, X).output
    np.testing.assert_array_equal(train_out, eval_out)


def test_dropout_inverted_scaling():
    spec = NetworkSpec((3, 200, 2), dropout_rate=0.5, seed=4)
    params = init_network_params(spec)
    X = np.ones((1, 3))
    rng = np.random.default_rng(5)
    acts = forward(params, spec, X, train_mode=True, rng=rng)
    mask = acts.masks[0]
    assert set(np.unique(mask)).issubset({0.0, 2.0})  # kept units scaled by 1/keep
    with pytest.raises(ContractError):
        forward(params, spec, X, train_mode=True)  # dropout needs an rng


def test_regularization_penalty_zero_when_disabled():
    params, spec = small_net(seed=6)
    grads = {"W0": RowGrad(np.array([1]), np.ones((1, 4))), "W1": np.ones((4, 2))}
    held = dict(grads)
    assert regularization_penalty(params, spec, grads) == 0.0
    assert all(grads[k] is held[k] for k in held)  # no pass, nothing made dense


def test_backward_ignores_elastic_net():
    """A CSR first layer's gradient is a RowGrad under elastic net too, and
    no block depends on the coefficients."""
    rng = np.random.default_rng(20)
    X = sparse.random(8, 50, density=0.05, format="csr", random_state=rng)
    d_out = rng.normal(size=(8, 2))
    plain = NetworkSpec((50, 4, 2), seed=21)
    params = init_network_params(plain)
    elastic = NetworkSpec((50, 4, 2), l1_coeff=1e-3, l2_coeff=2e-3, seed=21)
    want, _ = backward(params, plain, forward(params, plain, X), d_out)
    grads, _ = backward(params, elastic, forward(params, elastic, X), d_out)
    assert isinstance(grads["W0"], RowGrad)
    np.testing.assert_array_equal(grads["W0"].rows, want["W0"].rows)
    assert grads["W0"].values.tobytes() == want["W0"].values.tobytes()
    for k in ("b0", "W1", "b1"):
        assert grads[k].tobytes() == want[k].tobytes()


@settings(max_examples=200, deadline=None)
@given(csr_batches(), st.integers(1, 4), st.sampled_from([(1e-3, 2e-3), (5e-6, 5e-6), (1e-3, 0.0),
                                                          (0.0, 2e-3)]),
       st.booleans(), st.integers(0, 2 ** 16))
def test_penalty_gradient_in_row_blocks_is_the_whole_formula_bitwise(batch, block_rows, l1_l2,
                                                                    as_rows, seed):
    X, delta = batch
    (V, H), (l1, l2) = (X.shape[1], delta.shape[1]), l1_l2
    W = np.random.default_rng(seed).normal(size=(V, H))
    W[::3, 0] = 0.0  # sign 0
    spec = NetworkSpec((V, H), l1_coeff=l1, l2_coeff=l2)
    grads = {"W0": row_gradient(X, delta) if as_rows else X.T @ delta}
    with mock.patch.object(kernels, "ROW_BLOCK_ELEMS", block_rows * H):  # blocks of block_rows rows
        penalty = regularization_penalty({"W0": W}, spec, grads)
    want = X.T @ delta
    if l1:
        want = want + l1 * np.sign(W)
    if l2:
        want = want + 2.0 * l2 * W
    assert grads["W0"].tobytes() == want.tobytes()
    # the value is summed block by block in the same pass, so only its low bits may differ
    want_penalty = (l1 * np.abs(W).sum() if l1 else 0.0) + (l2 * np.sum(W * W) if l2 else 0.0)
    assert abs(penalty - want_penalty) <= 1e-12 * want_penalty


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, -0.1, 2.0])}
    adam = AdamState()
    cfg = AdamConfig(learning_rate=0.01, epsilon=1e-12)
    adam_step(adam, params, grads, cfg)
    expected = np.array([1.0, -2.0, 3.0]) - 0.01 * np.sign(grads["w"])
    np.testing.assert_allclose(params["w"], expected, atol=1e-9)


def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([1.0, 2.0])}
    adam = AdamState()
    adam_step(adam, params, {"w": np.zeros(2)}, AdamConfig())
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])


def test_adam_rejects_non_finite():
    with pytest.raises(TrainingError):
        adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])},
                  AdamConfig())


def textbook_step(m, v, t, cfg):
    """The step of Kingma & Ba's Algorithm 1: ``lr*m_hat / (sqrt(v_hat) + eps)``."""
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    return (cfg.learning_rate * m_hat) / (np.sqrt(v_hat) + cfg.epsilon)


def reordered_step(m, v, t, cfg):
    """The same step as Kingma & Ba reorder it in their Section 2."""
    lr_t = cfg.learning_rate * np.sqrt(1.0 - cfg.beta2 ** t) / (1.0 - cfg.beta1 ** t)
    eps_hat = cfg.epsilon * np.sqrt(1.0 - cfg.beta2 ** t)
    return lr_t * (m / (np.sqrt(v) + eps_hat))


def textbook_adam(params, grads_seq, cfg, step=textbook_step):
    """Bias-corrected Adam written out step by step, one new array per term.

    Returns the params, m, v and each entry's travel: the sum of the sizes
    of its steps."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    travel = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grads_seq, 1):
        for k, g in grads.items():
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + ((1.0 - cfg.beta2) * g) * g
            delta = step(m[k], v[k], t, cfg)
            params[k] = params[k] - delta
            travel[k] = travel[k] + np.abs(delta)
    return params, m, v, travel


# The reordered step rounds differently from the textbook one: a step's
# size differs by at most ~14 roundings (2**-53 each) of itself, and each of
# up to 100 steps rounds p - step on its own in each path, by at most 2**-53
# of |p| <= |p0| + travel.  Together that is below 3e-14 of |p0| + travel.
ROUNDING_RTOL = 1e-13


def assert_within_rounding(params, want, start, travel):
    for k in start:
        bound = ROUNDING_RTOL * (np.abs(start[k]) + travel[k])
        assert np.all(np.abs(params[k] - want[k]) <= bound), k


def two_blocks(rng):
    return {"W": rng.normal(size=(7, 5)), "b": rng.normal(size=5)}


def scaled_two_block_steps(seed):
    rng = np.random.default_rng(seed)
    start = two_blocks(rng)
    grads_seq = [{k: rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3)
                  for k, a in start.items()} for _ in range(6)]
    return start, grads_seq


def run_adam(start, grads_seq, cfg):
    """(params, AdamState) after adam_step over ``grads_seq`` from ``start``."""
    params = {k: a.copy() for k, a in start.items()}
    adam = AdamState()
    for grads in grads_seq:
        adam_step(adam, params, grads, cfg)
    return params, adam


ADAM_CFG = AdamConfig(learning_rate=0.03, beta1=0.8, beta2=0.99, epsilon=1e-7)


def test_adam_matches_reordered_formula_bitwise():
    start, grads_seq = scaled_two_block_steps(11)
    params, adam = run_adam(start, grads_seq, ADAM_CFG)
    want, m, v, _ = textbook_adam(start, grads_seq, ADAM_CFG, step=reordered_step)
    assert adam.t == len(grads_seq)
    for k in start:
        np.testing.assert_array_equal(params[k], want[k])
        np.testing.assert_array_equal(adam.m[k], m[k])
        np.testing.assert_array_equal(adam.v[k], v[k])


def test_adam_is_the_textbook_formula_up_to_rounding():
    start, grads_seq = scaled_two_block_steps(11)
    params, adam = run_adam(start, grads_seq, ADAM_CFG)
    want, m, v, travel = textbook_adam(start, grads_seq, ADAM_CFG)
    assert_within_rounding(params, want, start, travel)
    for k in start:
        np.testing.assert_array_equal(adam.m[k], m[k])
        np.testing.assert_array_equal(adam.v[k], v[k])


@st.composite
def adam_runs(draw):
    """(config, start params, 50-100 steps of gradients, never-touched rows):
    a RowGrad block "W" whose row sets may be empty and leave its last rows
    untouched at every step, and a dense block "b"; each block's gradient at
    each step is scaled by 10**s, s in [-12, 3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    V, H, T = draw(st.integers(2, 12)), draw(st.integers(1, 4)), draw(st.integers(50, 100))
    n_never = draw(st.integers(1, V - 1))
    cfg = AdamConfig(learning_rate=draw(st.sampled_from([1e-3, 0.03, 0.1])),
                     beta1=draw(st.sampled_from([0.8, 0.9])),
                     beta2=draw(st.sampled_from([0.99, 0.999])),
                     epsilon=draw(st.sampled_from([1e-8, 1e-7])))
    start = {"W": rng.normal(size=(V, H)), "b": rng.normal(size=H)}
    empty_at = draw(st.integers(0, T - 1))
    steps = []
    for t in range(T):
        size = 0 if t == empty_at else rng.integers(0, V - n_never + 1)
        rows = np.sort(rng.choice(V - n_never, size=size, replace=False))
        steps.append({"W": RowGrad(rows, rng.normal(size=(len(rows), H)) * 10.0 ** rng.uniform(-12, 3)),
                      "b": rng.normal(size=H) * 10.0 ** rng.uniform(-12, 3)})
    return cfg, start, steps, np.arange(V - n_never, V)


@settings(max_examples=100, deadline=None)
@given(adam_runs())
def test_reordered_adam_tracks_the_textbook_step(run):
    cfg, start, steps, never = run
    params, adam = run_adam(start, steps, cfg)
    want, m, v, travel = textbook_adam(start, [{k: dense_gradient(g, start[k].shape)
                                                for k, g in grads.items()} for grads in steps], cfg)
    assert_within_rounding(params, want, start, travel)
    for k in start:
        np.testing.assert_array_equal(adam.m[k], m[k])
        np.testing.assert_array_equal(adam.v[k], v[k])
    # a row no gradient touched has m = 0, so neither form moves it
    assert params["W"][never].tobytes() == want["W"][never].tobytes() == start["W"][never].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_last_block_changes_nothing(bad):
    rng = np.random.default_rng(12)
    params = two_blocks(rng)
    adam = AdamState()
    adam_step(adam, params, {k: rng.normal(size=a.shape) for k, a in params.items()},
              AdamConfig())
    before = ({k: a.copy() for k, a in params.items()},
              {k: a.copy() for k, a in adam.m.items()},
              {k: a.copy() for k, a in adam.v.items()})
    grads = {k: rng.normal(size=a.shape) for k, a in params.items()}
    grads["b"][2] = bad  # "b" is the last block adam_step visits
    with pytest.raises(TrainingError, match="block b"):
        adam_step(adam, params, grads, AdamConfig())
    assert adam.t == 1
    for now, then in zip((params, adam.m, adam.v), before):
        for k in then:
            np.testing.assert_array_equal(now[k], then[k])


def test_adam_keeps_its_moment_arrays():
    rng = np.random.default_rng(13)
    params = two_blocks(rng)
    adam = AdamState()
    adam_step(adam, params, {k: rng.normal(size=a.shape) for k, a in params.items()},
              AdamConfig())

    def arrays():
        return [arr for k in params for arr in (adam.m[k], adam.v[k], adam.buffers[k])]

    held = arrays()
    assert all(adam.buffers[k].shape == params[k].shape for k in params)  # one work array a block
    for _ in range(3):
        adam_step(adam, params, {k: rng.normal(size=a.shape) for k, a in params.items()},
                  AdamConfig())
        assert all(now is then for now, then in zip(arrays(), held))


def test_adam_row_gradients_match_their_dense_expansion():
    rng = np.random.default_rng(14)
    V, H = 9, 4
    start = {"W0": rng.normal(size=(V, H)), "b0": rng.normal(size=H)}
    cfg = AdamConfig(learning_rate=0.03, beta1=0.8, beta2=0.99, epsilon=1e-7)
    steps = []
    for t in range(40):
        # rows 7 and 8 only at the first step, row 6 only in the first six
        pool = np.arange(V if t == 0 else 7 if t < 6 else 6)
        rows = np.sort(rng.choice(pool, size=rng.integers(0, len(pool) + 1), replace=False))
        values = rng.normal(size=(len(rows), H)) * 10.0 ** rng.integers(-6, 3)
        steps.append({"W0": RowGrad(rows, values), "b0": rng.normal(size=H)})
    assert any(len(g["W0"].rows) == 0 for g in steps)
    by_rows, by_dense = ({k: a.copy() for k, a in start.items()} for _ in range(2))
    adam_rows, adam_dense = AdamState(), AdamState()
    for grads in steps:
        adam_step(adam_rows, by_rows, grads, cfg)
        adam_step(adam_dense, by_dense, {k: dense_gradient(g, start[k].shape)
                                         for k, g in grads.items()}, cfg)
    for k in start:
        assert by_rows[k].tobytes() == by_dense[k].tobytes()
        # under ==: the sign of an underflowed zero is all that may differ
        np.testing.assert_array_equal(adam_rows.m[k], adam_dense.m[k])
        np.testing.assert_array_equal(adam_rows.v[k], adam_dense.v[k])

    before = [{k: a.copy() for k, a in d.items()} for d in (by_rows, adam_rows.m, adam_rows.v)]
    values = rng.normal(size=(2, H))
    values[1, 3] = np.inf
    with pytest.raises(TrainingError, match="block W0"):
        adam_step(adam_rows, by_rows, {"W0": RowGrad(np.array([1, 6]), values),
                                       "b0": rng.normal(size=H)}, cfg)
    assert adam_rows.t == len(steps)
    for now, then in zip((by_rows, adam_rows.m, adam_rows.v), before):
        for k in then:
            assert now[k].tobytes() == then[k].tobytes()


def test_sparse_batch_step_makes_no_first_layer_sized_array():
    V, H, K = 20000, 100, 3
    rng = np.random.default_rng(15)
    X = sparse.random(64, V, density=0.003, format="csr", random_state=rng)
    Y = np.stack([rng.normal(40.0, 4.0, 64), rng.normal(-100.0, 8.0, 64)], axis=1)
    spec = NetworkSpec((V, H, 6 * K), dropout_rate=0.5, seed=16)
    model = models.MdnGeolocator(spec)
    adam, cfg = AdamState(), AdamConfig()

    def step(idx):
        _, grads = model.batch_loss_and_grads((X, Y), idx, rng=rng, train_mode=True)
        adam_step(adam, model.params, grads, cfg)

    step(np.arange(32))  # the first step makes Adam's moments and work arrays
    tracemalloc.start()
    try:
        step(np.arange(32, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V * H * 8, peak


def test_train_loop_holds_four_first_layer_arrays():
    """Above what exists before it, training a CSR-input MDN with dev
    evaluation holds one best copy and Adam's m, v and work array of the
    V x H first layer, with one best copy refreshed in place."""
    check_train_loop_peak(regul=0.0, bound=4.1)


def test_train_loop_holds_five_first_layer_arrays_under_elastic_net():
    """Elastic net adds one dense gradient of W0, its penalty term added in
    row blocks."""
    check_train_loop_peak(regul=5e-6, bound=5.25)


def check_train_loop_peak(regul, bound):
    V, H, K = 20000, 100, 4
    rng = np.random.default_rng(17)
    # about 20 terms a user: a batch's row gradients are about 640 x H
    X = sparse.random(96, V, density=0.001, format="csr", random_state=rng)
    Y = np.stack([rng.normal(40.0, 4.0, 96), rng.normal(-100.0, 8.0, 96)], axis=1)
    model = models.MdnGeolocator(NetworkSpec((V, H, 6 * K), l1_coeff=regul, l2_coeff=regul, seed=18))
    model.init_output_bias_from_labels(Y[:64], mode="kmeans", seed=18)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        log = train_loop(model, (X[:64], Y[:64]), (X[64:], Y[64:]), AdamConfig(learning_rate=0.01),
                         batch_size=32, max_epochs=3, seed=19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dev = [record[2] for record in log]
    assert len(dev) == 3 and min(dev[1:]) < dev[0]  # the best copy is refreshed
    assert peak - start <= bound * V * H * 8, (peak - start) / (V * H * 8)


def test_adam_descends_quadratic():
    params = {"w": np.array([5.0, -4.0])}
    adam = AdamState()
    cfg = AdamConfig(learning_rate=0.1)
    for _ in range(500):
        adam_step(adam, params, {"w": 2.0 * params["w"]}, cfg)
    assert np.all(np.abs(params["w"]) < 1e-2)


class QuadraticModel:
    """Loss = mean ||w - targets||^2 over the selected batch rows."""

    def __init__(self, dim, n):
        self.params = {"w": np.zeros(dim)}
        self.targets = np.linspace(1.0, 2.0, n * dim).reshape(n, dim)

    def num_examples(self, data):
        return len(self.targets)

    def batch_loss_and_grads(self, data, idx=None, rng=None, train_mode=False):
        t = self.targets if idx is None else self.targets[idx]
        diff = self.params["w"][None, :] - t
        return float(np.mean(diff ** 2)), {"w": 2.0 * diff.mean(axis=0) / diff.shape[1]}

    def dev_metric(self, data):
        return self.batch_loss_and_grads(data)[0]


def test_train_loop_zero_epochs_is_noop():
    model = QuadraticModel(3, 8)
    before = model.params["w"].copy()
    log = train_loop(model, None, None, max_epochs=0)
    assert log == []
    np.testing.assert_array_equal(model.params["w"], before)


def test_train_loop_converges_and_restores_best():
    model = QuadraticModel(2, 16)
    log = train_loop(model, None, None, AdamConfig(learning_rate=0.05),
                     EarlyStopConfig(patience=10), batch_size=4,
                     max_epochs=200, seed=0)
    target = model.targets.mean(axis=0)
    assert np.linalg.norm(model.params["w"] - target) < 0.05
    dev = [r[2] for r in log]
    assert model.dev_metric(None) == min(dev)  # best params restored


def test_train_loop_patience_stops_early():
    model = QuadraticModel(2, 8)
    # huge lr oscillates; dev metric stops improving and patience triggers
    log = train_loop(model, None, None, AdamConfig(learning_rate=5.0),
                     EarlyStopConfig(patience=3), max_epochs=500, seed=0)
    assert len(log) < 500


def test_train_loop_deterministic():
    runs = []
    for _ in range(2):
        model = QuadraticModel(3, 10)
        train_loop(model, None, None, AdamConfig(learning_rate=0.05),
                   EarlyStopConfig(patience=5), batch_size=3, max_epochs=20, seed=42)
        runs.append(model.params["w"].copy())
    np.testing.assert_array_equal(runs[0], runs[1])


@pytest.mark.parametrize("coeff", ["l1_coeff", "l2_coeff"])
@pytest.mark.parametrize("value", [-1.0, -1e-300, np.inf, np.nan])
def test_spec_refuses_a_negative_or_non_finite_penalty(coeff, value):
    with pytest.raises(ValueError, match=f"{coeff} must be finite and >= 0"):
        NetworkSpec((5, 3), **{coeff: value})
    NetworkSpec((5, 3), **{coeff: 0.0})


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((5,))
    with pytest.raises(ValueError):
        NetworkSpec((5, 0, 2))
    with pytest.raises(ValueError):
        NetworkSpec((5, 3), dropout_rate=1.0)
    with pytest.raises(ValueError):
        EarlyStopConfig(patience=0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    for epsilon in (0.0, -1e-3, np.nan, np.inf):  # eps 0 makes an untouched row 0/0
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            AdamConfig(epsilon=epsilon)
    for lr in (0.0, -1e-3, np.nan, np.inf):  # an infinite lr leaves non-finite params after one step
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            AdamConfig(learning_rate=lr)


def test_glorot_init_bounds():
    spec = NetworkSpec((10, 20, 5), seed=0)
    params = init_network_params(spec)
    bound0 = np.sqrt(6.0 / 30)
    assert np.all(np.abs(params["W0"]) <= bound0)
    assert np.all(params["b0"] == 0.0)
