"""Property test of the component bank's gradients and stop-gradient zones.

``heads.component_grads`` is checked against central differences through
both of its callers: ``heads.shared_nll`` and the dialect layer, in both
activation domains.  Some drawn components sit in a clamp zone: a raw sigma
far below the SIGMA_MIN edge or a raw rho past the Q_MIN edge, where the
gradient must be exactly 0.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomix import dialect as dl
from geomix import heads
from geomix.gaussian import inv_softplus, softplus, softsign
from geomix.kernels import Q_MIN, SIGMA_MIN, component_log_pdf

H = 1e-5  # central-difference step
SIGMA_EDGE = float(inv_softplus(SIGMA_MIN))  # raw sigma below which SIGMA_MIN clamps
COORD = st.floats(-3.0, 3.0)
# live components are wide enough for a step of H to resolve
LIVE_SIGMA = st.floats(-1.0, 2.0)
LIVE_RHO = st.floats(-5.0, 5.0)
CLAMPED_SIGMA = st.floats(-60.0, SIGMA_EDGE)
# |raw rho| >= 1e10 gives 1 - rho^2 <= 2e-10, past Q_MIN = 1e-9
SATURATED_RHO = st.floats(1e10, 1e12) | st.floats(-1e12, -1e10)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def bank_and_points(draw):
    """(params, X, zone): 1-4 live and 0-3 clamp-zone components, 1-5 points,
    and the mask of the components in a clamp zone."""
    n_live, n_zone = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    mus, raw_sigmas, raw_rhos = [], [], []
    for k in range(n_live + n_zone):
        clamp = draw(st.sets(st.sampled_from(["sigma1", "sigma2", "rho"]), min_size=1)) \
            if k >= n_live else set()
        mus.append([draw(COORD), draw(COORD)])
        raw_sigmas.append([draw(CLAMPED_SIGMA if f"sigma{j}" in clamp else LIVE_SIGMA) for j in (1, 2)])
        raw_rhos.append(draw(SATURATED_RHO if "rho" in clamp else LIVE_RHO))
    X = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=5)))
    params = {"mus": np.array(mus), "raw_sigmas": np.array(raw_sigmas), "raw_rhos": np.array(raw_rhos)}
    zone = np.arange(n_live + n_zone) >= n_live
    # a central difference at raw spans [raw - H, raw + H]; keep it off the kink
    assume(np.all(np.abs(params["raw_sigmas"] - SIGMA_EDGE) > 2 * H))
    # a clamp-zone component is narrower than H resolves, so it must sit far from every point
    log_n = component_log_pdf(*heads.component_terms(params, X)[:5])
    assume(np.all(log_n[:, zone] < -1e6))
    return params, X, zone


def central_difference(loss, arr, idx):
    orig = arr[idx]
    arr[idx] = orig + H
    lp = loss()
    arr[idx] = orig - H
    lm = loss()
    arr[idx] = orig
    return (lp - lm) / (2 * H)


def check_component_grads(grads, params, loss_of_component):
    """Analytic gradients against central differences of ``loss_of_component(k)``,
    and exact zeros in the stop-gradient zones."""
    for name, arr in params.items():
        for idx in np.ndindex(arr.shape):
            loss = lambda: loss_of_component(idx[0])
            numeric = central_difference(loss, arr, idx)
            # rounding in a loss of size L puts about eps * L / H into a difference
            roundoff = 10 * np.finfo(float).eps * abs(loss()) / H
            np.testing.assert_allclose(grads[name][idx], numeric, rtol=1e-4, atol=1e-6 + roundoff,
                                       err_msg=f"{name}{idx}")
    clamped_sigma = softplus(params["raw_sigmas"]) <= SIGMA_MIN
    assert np.all(grads["raw_sigmas"][clamped_sigma] == 0.0)
    rho = softsign(params["raw_rhos"])
    assert np.all(grads["raw_rhos"][1.0 - rho * rho <= Q_MIN] == 0.0)


@PROPERTY
@given(bank_and_points(), st.data())
def test_shared_nll_component_grads(drawn, data):
    params, X, zone = drawn
    pi_raw = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=zone.size * len(X),
                                         max_size=zone.size * len(X)))).reshape(len(X), zone.size)
    _, _, grads = heads.shared_nll(pi_raw, params, X)
    check_component_grads(grads, params, lambda k: heads.shared_nll(pi_raw, params, X)[0])


@PROPERTY
@given(bank_and_points(), st.data(), st.booleans())
def test_dialect_layer_component_grads(drawn, data, log_domain):
    params, X, zone = drawn
    w = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=zone.size * len(X),
                                    max_size=zone.size * len(X)))).reshape(len(X), zone.size)
    _, cache = dl.gaussian_layer_forward_batch(params, X, log_domain)
    grads = dl.gaussian_layer_backward(params, cache, w)

    def loss_of_component(k):
        # column k of the layer depends on component k alone; summing only it
        # keeps a clamp-zone column's huge log-density out of the others' differences
        acts, _ = dl.gaussian_layer_forward_batch(params, X, log_domain)
        return float(np.sum(w[:, k] * acts[:, k]))

    check_component_grads(grads, params, loss_of_component)
