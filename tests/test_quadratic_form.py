"""Property tests of the 1 x K component bank's quadratic-feature contraction.

A bank that every point shares reaches its log-density through
``kernels.bank_log_pdf``: the points' features F = [y1^2, y2^2, y1*y2, y1, y2, 1]
with y = x - centre, contracted with the bank's 6 x K coefficients C.  The
elementwise ``kernels.component_log_pdf`` of the offsets d = x - mu is the
oracle.  The two are not bitwise equal, so each entry is held to a bound
derived from the arithmetic: c * eps * (M_C + M_O), where M_C sums the
absolute values of every monomial the contraction adds (|F_nf| times the
absolute terms of C_fk, its log terms included) and M_O sums the absolute
terms of the oracle (its log terms and those of z / 2q).

Counting roundings, with sigma, rho, q, the logs and the centre as inputs both
sides share: a feature carries at most 3 roundings (the offset and a
product), a coefficient of C at most 15 (a quadratic term of the constant: 9
for c11 * m1 * m1, 2 for the sum of the three, 4 for the subtractions of the
log terms), and the contraction's product and five additions 6 more, 21 in
all.  The oracle rounds each of its terms at most 10 times (the last, z / 2q:
5-6 for a term of z, 2 for its sum, 1 for the division and 1 subtraction).
So the difference is within 21 eps (M_C + M_O) to first order; the bound
takes c = 22, one more for the second-order terms and the rounding of the
magnitudes themselves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geomix import heads
from geomix.kernels import (LOG_2PI, Q_MIN, SIGMA_MIN, bank_log_pdf, bank_moments, component_log_pdf,
                            inv_softplus, quadratic_coefficients, quadratic_features, quadratic_form)

EPS = np.finfo(float).eps
C_DENSITY = 22
# a product that underflows errs by about 5e-324 times a coefficient of at
# most 5e20 (0.5 / Q_MIN over SIGMA_MIN^2)
TINY = 1e-290
SIGMA_EDGE = float(inv_softplus(SIGMA_MIN))  # raw sigma below which SIGMA_MIN clamps
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
# a bank over the contiguous US, as the benchmark corpora have it
MU = st.tuples(st.floats(25.0, 50.0), st.floats(-125.0, -65.0))
LIVE_SIGMA = st.floats(-3.0, 3.0)
CLAMPED_SIGMA = st.floats(-60.0, SIGMA_EDGE)
LIVE_RHO = st.floats(-5.0, 5.0)
# |raw rho| >= 1e10 gives 1 - rho^2 <= 2e-10, past Q_MIN = 1e-9
SATURATED_RHO = st.floats(1e10, 1e12) | st.floats(-1e12, -1e10)


@st.composite
def banks(draw):
    """1 x K component rows (mu1, mu2, raw sigma1, raw sigma2, raw rho), K = 1-6,
    some in the SIGMA_MIN or Q_MIN clamp zone."""
    comps = [(*draw(MU), draw(LIVE_SIGMA | CLAMPED_SIGMA), draw(LIVE_SIGMA | CLAMPED_SIGMA),
              draw(LIVE_RHO | SATURATED_RHO)) for _ in range(draw(st.integers(1, 6)))]
    return [np.array([c]) for c in zip(*comps)]


@st.composite
def bank_and_points(draw):
    """A bank and 1-8 points, each within a degree of one of its mus or
    anywhere on the globe, far from every mu."""
    rows = draw(banks())
    K = rows[0].shape[1]
    near = st.tuples(st.integers(0, K - 1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda t: (rows[0][0, t[0]] + t[1], rows[1][0, t[0]] + t[2]))
    anywhere = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
    X = np.array(draw(st.lists(near | anywhere, min_size=1, max_size=8)))
    return rows, X


def contraction_magnitudes(X, centre, m1, m2, s1, s2, rho):
    """M_C: ``quadratic_features`` times ``quadratic_coefficients`` with every
    monomial by its absolute value."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    y1, y2 = np.abs(X[:, 0:1] - centre[0]), np.abs(X[:, 1:2] - centre[1])
    m1, m2 = np.abs(m1), np.abs(m2)
    c11, c22, c12 = 0.5 / q / (s1 * s1), 0.5 / q / (s2 * s2), np.abs(rho) / q / (s1 * s2)
    const = (c11 * m1 * m1 + c22 * m2 * m2 + c12 * m1 * m2
             + LOG_2PI + np.abs(np.log(s1)) + np.abs(np.log(s2)) + 0.5 * np.abs(np.log(q)))
    return (c11 * y1 * y1 + c22 * y2 * y2 + c12 * y1 * y2 + (2.0 * c11 * m1 + c12 * m2) * y1
            + (2.0 * c22 * m2 + c12 * m1) * y2 + const)


def oracle_magnitudes(d1, d2, s1, s2, rho):
    """M_O: ``component_log_pdf`` with every term by its absolute value."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    z = d1 * d1 / (s1 * s1) + 2.0 * np.abs(rho * d1 * d2) / (s1 * s2) + d2 * d2 / (s2 * s2)
    return LOG_2PI + np.abs(np.log(s1)) + np.abs(np.log(s2)) + 0.5 * np.abs(np.log(q)) + z / (2.0 * q)


def transformed(rows, X):
    """The oracle's N x K log-densities and its offsets, sigmas and rhos."""
    d1, d2, s1, s2, rho, _ = heads.component_terms(rows, X)
    return component_log_pdf(d1, d2, s1, s2, rho), (d1, d2, s1, s2, rho)


def error_ratio(rows, X, centre):
    """|contraction - oracle| over its bound, per entry, with the features
    offset to ``centre``."""
    want, (d1, d2, s1, s2, rho) = transformed(rows, X)
    m1, m2 = rows[0] - centre[0], rows[1] - centre[1]
    got = bank_log_pdf(quadratic_features(X, centre), quadratic_coefficients(m1, m2, s1, s2, rho))
    bound = C_DENSITY * EPS * (contraction_magnitudes(X, centre, m1, m2, s1, s2, rho)
                               + oracle_magnitudes(d1, d2, s1, s2, rho)) + TINY
    return np.abs(got - want) / bound


@PROPERTY
@given(bank_and_points())
def test_contraction_is_the_elementwise_density(drawn):
    rows, X = drawn
    want, _ = transformed(rows, X)
    form = heads.shared_form(rows)
    got, _ = heads.component_log_pdfs(rows, X, form)
    assert form[0] == (np.mean(rows[0]), np.mean(rows[1]))
    assert got.shape == want.shape
    ratio = error_ratio(rows, X, form[0])
    assert np.all(ratio <= 1.0), np.max(ratio)


@PROPERTY
@given(bank_and_points())
def test_contraction_without_centring_is_within_its_own_bound(drawn):
    # the bound holds in any frame; what the origin costs is a larger M_C
    rows, X = drawn
    ratio = error_ratio(rows, X, (0.0, 0.0))
    assert np.all(ratio <= 1.0), np.max(ratio)


def test_centring_on_the_bank_keeps_the_grid_error_small():
    """The mixture grids of ``test_density_grid_matches_the_renormalised_reference``
    (tests/test_heads.py) against the elementwise arithmetic.  Features about
    the origin are up to 125^2 for a US grid, about the bank's mean a few
    hundred, and the cancellation between the contraction's terms scales
    with them.  Worst relative grid error measured: 3.1e-10 about the bank's
    mean, 5.8e-9 about the origin."""
    rng = np.random.default_rng(12)
    _, _, points = heads.grid_cells((25.0, 50.0, -125.0, -65.0), 20)
    worst = {"mean": 0.0, "origin": 0.0}
    for K in [1, 2, 7, 50, 300, 900] * 8 + [900, 900]:
        rows = [rng.normal(38.0, 6.0, (1, K)), rng.normal(-95.0, 12.0, (1, K)),
                rng.normal(0.5, 1.5, (1, K)), rng.normal(0.5, 1.5, (1, K)), rng.normal(0.0, 2.0, (1, K))]
        raw_pi = rng.uniform(-15.0, 15.0, (1, K))
        oracle = heads.mixture_log_likelihood(rows, raw_pi, points, None)[0]
        centre, C, terms = heads.shared_form(rows)
        m1, m2, s1, s2, rho, live = terms
        origin = ((0.0, 0.0), quadratic_coefficients(rows[0], rows[1], s1, s2, rho),
                  (rows[0], rows[1], s1, s2, rho, live))
        for name, form in (("mean", (centre, C, terms)), ("origin", origin)):
            grid = heads.mixture_log_likelihood(rows, raw_pi, points, form)[0]
            worst[name] = max(worst[name], np.max(np.abs(grid - oracle) / np.abs(oracle)))
            assert np.all(error_ratio(rows, points, form[0]) <= 1.0)
    assert worst["mean"] < 1e-9 < worst["origin"], worst


def test_sigma_min_component_at_its_own_mean():
    """A known limit.  At a SIGMA_MIN component's own mean the offsets are 0
    and the oracle is exact, while the contraction cancels terms of size
    (r / SIGMA_MIN)^2, r the distance from that mean to the bank's centre:
    M_C is about 2 (r / sigma)^2 there, so the bound is 44 eps (r / sigma)^2.
    Measured on a log-density of 25.79: errors of 3.6e-6, 3.1e-4 and 4.1e-3 at
    r = 0.24, 2.4 and 9.4 degrees, 0.2-0.3 eps (r / sigma)^2."""
    raw_min = np.array([[-60.0]])
    X = np.array([[40.0, -100.0]])
    for spread in (0.5, 5.0, 20.0):
        rows = [np.array([[40.0, 40.0 + 2.0 * spread, 40.0 - spread]]),
                np.array([[-100.0, -100.0 - spread, -100.0 + 2.0 * spread]]),
                np.hstack([raw_min, [[0.5, 0.5]]]), np.hstack([raw_min, [[0.5, 0.5]]]), np.zeros((1, 3))]
        want, _ = transformed(rows, X)
        assert want[0, 0] == -LOG_2PI - 2.0 * np.log(SIGMA_MIN)
        form = heads.shared_form(rows)
        got, _ = heads.component_log_pdfs(rows, X, form)
        centre = form[0]
        r = np.hypot(X[0, 0] - centre[0], X[0, 1] - centre[1])
        assert abs(got[0, 0] - want[0, 0]) <= 44.0 * EPS * (r / SIGMA_MIN) ** 2
        assert np.all(error_ratio(rows, X, centre) <= 1.0)


@PROPERTY
@given(bank_and_points(), st.data())
def test_bank_moments_are_the_per_point_moments(drawn, data):
    """``kernels.bank_moments``, w^T F shifted to each mean, against the sums
    of w times each point's offsets.  In scales D = |y| + |m| (the terms of the
    shift: w y^2, 2 w y m, w m^2 for the second moments), the bank's side rounds
    each term at most N + 6 times (3 in a feature, 1 in a product, N - 1 in
    the sum over the points, 2 in m times a sum, 3 in the shift) and the
    per-point side at most N + 3; c = N + 7 adds one for the second order."""
    rows, X = drawn
    mu1, mu2 = rows[:2]
    _, _, s1, s2, rho, _ = heads.component_terms(rows, X)
    N, K = len(X), mu1.shape[1]
    w = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=N * K, max_size=N * K))).reshape(N, K)
    centre, m1, m2, _ = quadratic_form(mu1, mu2, s1, s2, rho)
    got = bank_moments(w, quadratic_features(X, centre), m1, m2)
    d1, d2 = X[:, 0:1] - mu1, X[:, 1:2] - mu2
    want = [np.sum(w * t, axis=0, keepdims=True) for t in (1.0, d1, d2, d1 * d1, d2 * d2, d1 * d2)]
    D1, D2 = np.abs(X[:, 0:1] - centre[0]) + np.abs(m1), np.abs(X[:, 1:2] - centre[1]) + np.abs(m2)
    a = np.abs(w)
    scales = [np.sum(a * t, axis=0, keepdims=True) for t in (1.0, D1, D2, D1 * D1, D2 * D2, D1 * D2)]
    for g, v, s in zip(got, want, scales):
        assert g.shape == v.shape == (1, K)
        assert np.all(np.abs(g - v) <= (N + 7) * EPS * s + TINY), np.max(np.abs(g - v) / s)
