"""Property test of the component gradients and stop-gradient zones.

``heads.component_grads`` is checked against central differences through
each of its callers: ``heads.mdn_nll`` on N x K component rows, and on the
shared bank's 1 x K rows ``heads.shared_nll`` and the dialect layer, in both
activation domains.  Some drawn components sit in a clamp zone: a raw sigma
far below the SIGMA_MIN edge or a raw rho past the Q_MIN edge, where the
gradient must be exactly 0.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomix import dialect as dl
from geomix import heads
from geomix.kernels import (Q_MIN, SIGMA_MIN, component_log_pdf, inv_softplus, log_pdf_partials,
                            softplus, softsign)

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


def draw_component(draw, clamped):
    """(mu1, mu2, raw sigma1, raw sigma2, raw rho) of one component, in a
    clamp zone of one or more of its transforms if ``clamped``."""
    clamp = draw(st.sets(st.sampled_from(["sigma1", "sigma2", "rho"]), min_size=1)) if clamped else set()
    return (draw(COORD), draw(COORD),
            *(draw(CLAMPED_SIGMA if f"sigma{j}" in clamp else LIVE_SIGMA) for j in (1, 2)),
            draw(SATURATED_RHO if "rho" in clamp else LIVE_RHO))


def assume_resolvable(rows, X, zone):
    # a central difference at raw spans [raw - H, raw + H]; keep it off the kink
    assume(all(np.all(np.abs(r - SIGMA_EDGE) > 2 * H) for r in rows[2:4]))
    # a clamp-zone component is narrower than H resolves, so it must sit far from its points
    log_n = component_log_pdf(*heads.component_terms(rows, X)[:5])
    assume(np.all(log_n[np.broadcast_to(zone, log_n.shape)] < -1e6))


@st.composite
def bank_and_points(draw):
    """(params, X, zone): 1-4 live and 0-3 clamp-zone components, 1-5 points,
    and the mask of the components in a clamp zone."""
    n_live, n_zone = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    zone = np.arange(n_live + n_zone) >= n_live
    comps = np.array([draw_component(draw, clamped) for clamped in zone])
    X = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=5)))
    params = {"mus": comps[:, 0:2], "raw_sigmas": comps[:, 2:4], "raw_rhos": comps[:, 4]}
    assume_resolvable(heads.component_rows(params), X, zone)
    return params, X, zone


@st.composite
def mdn_output_and_points(draw):
    """(raw, X, zone): an N x 6K MDN output for 1-4 points, whose every point
    has K = 1-4 live and 0-3 clamp-zone components of its own and K raw
    mixing weights, and the N x K mask of the components in a clamp zone."""
    N, n_live, n_zone = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    zone = np.tile(np.arange(n_live + n_zone) >= n_live, (N, 1))
    for n in range(N):
        zone[n] = zone[n, draw(st.permutations(range(zone.shape[1])))]
    comps = np.array([[draw_component(draw, clamped) for clamped in row] for row in zone])
    raw = np.concatenate([*np.moveaxis(comps, 2, 0), np.array(draw(st.lists(
        st.floats(-3.0, 3.0), min_size=zone.size, max_size=zone.size))).reshape(zone.shape)], axis=1)
    X = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=N, max_size=N)))
    assume_resolvable(heads.mdn_rows(raw, zone.shape[1])[0], X, zone)
    return raw, X, zone


def central_difference(loss, arr, idx):
    orig = arr[idx]
    arr[idx] = orig + H
    lp = loss()
    arr[idx] = orig - H
    lm = loss()
    arr[idx] = orig
    return (lp - lm) / (2 * H)


def check_against_differences(grads, params, loss_of_component):
    """Analytic gradients against central differences of ``loss_of_component(k)``."""
    for name, arr in params.items():
        for idx in np.ndindex(arr.shape):
            loss = lambda: loss_of_component(idx[0])
            numeric = central_difference(loss, arr, idx)
            # rounding in a loss of size L puts about eps * L / H into a difference
            roundoff = 10 * np.finfo(float).eps * abs(loss()) / H
            np.testing.assert_allclose(grads[name][idx], numeric, rtol=1e-4, atol=1e-6 + roundoff,
                                       err_msg=f"{name}{idx}")


def check_stop_gradient_zones(d_raw_sigmas, raw_sigmas, d_raw_rhos, raw_rhos):
    assert np.all(d_raw_sigmas[softplus(raw_sigmas) <= SIGMA_MIN] == 0.0)
    rho = softsign(raw_rhos)
    assert np.all(d_raw_rhos[1.0 - rho * rho <= Q_MIN] == 0.0)


def check_component_grads(grads, params, loss_of_component):
    """``check_against_differences``, and exact zeros in the stop-gradient zones."""
    check_against_differences(grads, params, loss_of_component)
    check_stop_gradient_zones(grads["raw_sigmas"], params["raw_sigmas"],
                              grads["raw_rhos"], params["raw_rhos"])


@PROPERTY
@given(mdn_output_and_points())
def test_mdn_nll_component_grads(drawn):
    raw, X, zone = drawn
    K = zone.shape[1]
    _, d_raw = heads.mdn_nll(raw, X, K)
    check_against_differences({"raw": d_raw}, {"raw": raw}, lambda _: heads.mdn_nll(raw, X, K)[0])
    # the sigma and rho blocks, 2K:4K and 4K:5K
    check_stop_gradient_zones(d_raw[:, 2 * K:4 * K], raw[:, 2 * K:4 * K],
                              d_raw[:, 4 * K:5 * K], raw[:, 4 * K:5 * K])


def test_mdn_clamped_component_on_its_point_gets_zero_gradient():
    # far from its point a clamp-zone component has no responsibility, so a zero
    # gradient there shows nothing; on its point it holds all of it
    K = 2
    X = np.array([[1.0, -2.0], [0.5, 0.5]])
    raw = np.zeros((2, 6 * K))  # blocks mu1 0:2, mu2 2:4, sigma1 4:6, sigma2 6:8, rho 8:10, pi 10:12
    raw[:, [0, 2]] = X  # component 0 sits on each point, component 1 at (3, 3)
    raw[:, [1, 3]] = 3.0
    raw[0, 4] = -60.0  # point 0: component 0's sigma1 clamped to SIGMA_MIN
    raw[1, 8] = 1e11  # point 1: component 0's rho past the Q_MIN edge
    _, d_raw = heads.mdn_nll(raw, X, K)
    assert np.all(d_raw[:, 10] < -0.2)  # gamma ~ 1 against pi = 1/2
    assert d_raw[0, 4] == 0.0 and d_raw[1, 8] == 0.0


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


@PROPERTY
@given(bank_and_points())
def test_component_rows_compute_like_broadcast_views(drawn):
    # the bank's sigma and rho reach the kernels as 1 x K rows; N x K
    # broadcast views of the same rows are the bitwise reference
    params, X, _ = drawn
    d1, d2, *rows, _ = heads.component_terms(heads.component_rows(params), X)
    assert all(r.shape == (1, d1.shape[1]) for r in rows)
    views = [np.broadcast_to(r, d1.shape) for r in rows]
    got = [component_log_pdf(d1, d2, *rows), *log_pdf_partials(d1, d2, *rows)]
    want = [component_log_pdf(d1, d2, *views), *log_pdf_partials(d1, d2, *views)]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
