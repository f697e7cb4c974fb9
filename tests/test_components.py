"""Property test of the component gradients and stop-gradient zones.

``heads.component_grads`` is checked against central differences through
each of its callers: ``heads.mdn_nll`` on N x K component rows, and on the
shared bank's 1 x K rows ``heads.shared_nll`` and the dialect layer, in both
activation domains.  Some drawn components sit in a clamp zone: a raw sigma
far below the SIGMA_MIN edge or a raw rho past the Q_MIN edge, where the
gradient must be exactly 0.  ``kernels.log_pdf_partials`` takes weighted
moments of the offsets; the per-point partials it once returned are kept
here as ``reference_partials``, and the moment form must equal their
weighted sum within a rounding bound.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomix import dialect as dl
from geomix import heads
from geomix.kernels import (Q_MIN, SIGMA_MIN, component_log_pdf, inv_softplus, log_pdf_partials,
                            softplus, softplus_grad, softsign, softsign_grad)

H = 1e-5  # central-difference step
SIGMA_EDGE = float(inv_softplus(SIGMA_MIN))  # raw sigma below which SIGMA_MIN clamps
COORD = st.floats(-3.0, 3.0)
# live components are wide enough for a step of H to resolve
LIVE_SIGMA = st.floats(-1.0, 2.0)
LIVE_RHO = st.floats(-5.0, 5.0)
CLAMPED_SIGMA = st.floats(-60.0, SIGMA_EDGE)
# |raw rho| >= 1e10 gives 1 - rho^2 <= 2e-10, past Q_MIN = 1e-9
SATURATED_RHO = st.floats(1e10, 1e12) | st.floats(-1e12, -1e10)
# 0, or large enough that no product with an offset or a scale leaves the
# normal range, where a rounding error is relative to what it rounds
NORMAL_WEIGHT = st.just(0.0) | st.floats(1e-100, 2.0) | st.floats(-2.0, -1e-100)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# either form rounds each term under ten times, and the sum over at most five
# points adds four roundings; measured errors stay below 4 eps of the magnitudes
ROUNDING = 16 * np.finfo(float).eps


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


def reference_partials(d1, d2, s1, s2, rho):
    """Per-point partials of ``component_log_pdf`` w.r.t. (mu1, mu2, s1, s2,
    rho) at offsets d = x - mu, with 0 for rho where Q_MIN clamps."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    z = d1 * d1 / (s1 * s1) - 2.0 * rho * d1 * d2 / (s1 * s2) + d2 * d2 / (s2 * s2)
    cross = d1 * d2 / (s1 * s2)
    dmu1 = (d1 / (s1 * s1) - rho * d2 / (s1 * s2)) / q
    dmu2 = (d2 / (s2 * s2) - rho * d1 / (s1 * s2)) / q
    ds1 = -1.0 / s1 + (d1 * d1 / (s1 * s1 * s1) - rho * cross / s1) / q
    ds2 = -1.0 / s2 + (d2 * d2 / (s2 * s2 * s2) - rho * cross / s2) / q
    drho = rho / q + cross / q - rho * z / (q * q)
    return dmu1, dmu2, ds1, ds2, np.where(1.0 - rho * rho > Q_MIN, drho, 0.0)


def partial_magnitudes(d1, d2, s1, s2, rho):
    """``reference_partials`` with every term by its absolute value: the
    scale of the rounding in either form of a partial."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    a1, a2, r = np.abs(d1), np.abs(d2), np.abs(rho)
    cross = a1 * a2 / (s1 * s2)
    z = a1 * a1 / (s1 * s1) + 2.0 * r * cross + a2 * a2 / (s2 * s2)
    return ((a1 / (s1 * s1) + r * a2 / (s1 * s2)) / q, (a2 / (s2 * s2) + r * a1 / (s1 * s2)) / q,
            1.0 / s1 + (a1 * a1 / (s1 * s1 * s1) + r * cross / s1) / q,
            1.0 / s2 + (a2 * a2 / (s2 * s2 * s2) + r * cross / s2) / q,
            r / q + cross / q + r * z / (q * q))


def draw_weights(data, shape, weight=st.floats(-2.0, 2.0)):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(weight, min_size=size, max_size=size))).reshape(shape)


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
@given(bank_and_points(), st.data())
def test_dialect_layer_component_grads(drawn, data):
    params, X, zone = drawn
    w = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=zone.size * len(X),
                                    max_size=zone.size * len(X)))).reshape(len(X), zone.size)
    _, cache = dl.gaussian_layer_forward_batch(params, X)
    grads = dl.gaussian_layer_backward(params, cache, w)

    def loss_of_component(k):
        # column k of the layer depends on component k alone; summing only it
        # keeps a clamp-zone column's huge log-density out of the others' differences
        acts, _ = dl.gaussian_layer_forward_batch(params, X)
        return float(np.sum(w[:, k] * acts[:, k]))

    check_component_grads(grads, params, loss_of_component)


@PROPERTY
@given(st.booleans(), st.data())
def test_moment_form_is_the_weighted_sum_of_reference_partials(shared, data):
    # the shared bank's 1 x K rows sum the moments over the points, the MDN's
    # N x K rows keep one per point; either way the chain rule that follows
    # multiplies both sides by the same factors
    if shared:
        params, X, _ = data.draw(bank_and_points())
        rows = heads.component_rows(params)
    else:
        raw, X, zone = data.draw(mdn_output_and_points())
        rows = heads.mdn_rows(raw, zone.shape[1])[0]
    terms = heads.component_terms(rows, X)
    d1, d2, s1, s2, rho, (live1, live2) = terms
    w = draw_weights(data, d1.shape, NORMAL_WEIGHT)

    def reduce(g):
        return g.sum(axis=0, keepdims=True) if shared else g

    got = heads.component_grads(rows, terms, w)
    _, _, rs1, rs2, rr = rows
    chain = (1.0, 1.0, softplus_grad(rs1) * live1, softplus_grad(rs2) * live2, softsign_grad(rr))
    for g, p, m, c in zip(got, reference_partials(*terms[:5]), partial_magnitudes(*terms[:5]), chain):
        want = reduce(w * p) * c
        # an offset so small that its products underflow errs by about 1e-323
        # times a scale of at most 1e21 (1 / SIGMA_MIN^3 times 1 / q)
        bound = ROUNDING * reduce(np.abs(w) * m) * np.abs(c) + 1e-300
        assert g.shape == want.shape == rr.shape
        assert np.all(np.abs(g - want) <= bound), np.max(np.abs(g - want) / bound)
    for d_raw_sigma, raw_sigma in ((got[2], rs1), (got[3], rs2)):
        check_stop_gradient_zones(d_raw_sigma, raw_sigma, got[4], rr)


@PROPERTY
@given(bank_and_points(), st.data())
def test_component_rows_compute_like_broadcast_views(drawn, data):
    # the bank's sigma and rho reach the kernels as 1 x K rows; N x K
    # broadcast views of the same rows are the bitwise reference, for the
    # density and for the partials of per-point moments
    params, X, _ = drawn
    d1, d2, *rows, _ = heads.component_terms(heads.component_rows(params), X)
    assert all(r.shape == (1, d1.shape[1]) for r in rows)
    views = [np.broadcast_to(r, d1.shape) for r in rows]
    w = draw_weights(data, d1.shape)
    moments = (w, w * d1, w * d2, w * d1 * d1, w * d2 * d2, w * d1 * d2)
    got = [component_log_pdf(d1, d2, *rows), *log_pdf_partials(*moments, *rows)]
    want = [component_log_pdf(d1, d2, *views), *log_pdf_partials(*moments, *views)]
    for g, v in zip(got, want):
        assert g.shape == v.shape and g.tobytes() == v.tobytes()
