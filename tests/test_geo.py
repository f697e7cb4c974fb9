"""Haversine distance and evaluation metrics against independent oracles."""

import numpy as np
import pytest

from geomix.geo import (ACC_RADIUS_KM, EARTH_RADIUS_KM, GeoPoint, evaluate,
                        haversine_km, median_lower, write_error_tsv)

NYC = np.array([40.7128, -74.0060])
LA = np.array([34.0522, -118.2437])


def random_points(rng, n):
    """n x 2 uniform (lat, lon) rows, drawn row by row."""
    return rng.uniform([-90.0, -180.0], [90.0, 180.0], size=(n, 2))


def law_of_cosines_km(a, b):
    lat1, lon1 = np.radians(a[..., 0]), np.radians(a[..., 1])
    lat2, lon2 = np.radians(b[..., 0]), np.radians(b[..., 1])
    c = np.sin(lat1) * np.sin(lat2) + np.cos(lat1) * np.cos(lat2) * np.cos(lon2 - lon1)
    return EARTH_RADIUS_KM * np.arccos(np.clip(c, -1.0, 1.0))


def test_nyc_la_against_spherical_law_of_cosines():
    d = haversine_km(NYC, LA)
    assert abs(d - law_of_cosines_km(NYC, LA)) < 1.0
    assert 3900 < d < 3970


def test_zero_symmetry_antipodal():
    assert haversine_km(NYC, NYC) == 0.0
    assert abs(haversine_km(NYC, LA) - haversine_km(LA, NYC)) < 1e-9
    a = np.array([10.0, 20.0])
    b = np.array([-10.0, -160.0])
    # arcsin loses a few digits at the antipodal boundary; sub-km is plenty
    assert abs(haversine_km(a, b) - np.pi * EARTH_RADIUS_KM) < 0.5


def test_random_pairs_against_spherical_law_of_cosines():
    rng = np.random.default_rng(0)
    a, b = random_points(rng, 200), random_points(rng, 200)
    d = haversine_km(a, b)
    assert d.shape == (200,)
    np.testing.assert_allclose(d, law_of_cosines_km(a, b), rtol=0.0, atol=1e-6)


def test_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        pts = random_points(rng, 3)
        ab = haversine_km(pts[0], pts[1])
        bc = haversine_km(pts[1], pts[2])
        ac = haversine_km(pts[0], pts[2])
        assert ac <= ab + bc + 1e-6


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)
    GeoPoint(90.0, 180.0)  # boundary values allowed


def test_median_lower_convention():
    assert median_lower([100.0, 200.0, 600.0]) == 200.0
    assert median_lower([4.0, 1.0, 3.0, 2.0]) == 2.0  # lower-middle for even counts
    assert median_lower([7.0]) == 7.0


def _point_at_km(origin, km):
    # move east along a parallel
    dlon = np.degrees(km / (EARTH_RADIUS_KM * np.cos(np.radians(origin[0]))))
    return origin + [0.0, dlon]


def test_evaluate_fixed_errors():
    truth = np.zeros(2)
    preds = np.array([_point_at_km(truth, km) for km in (100.0, 200.0, 600.0)])
    rep = evaluate(preds, np.tile(truth, (3, 1)))
    assert abs(rep.mean_km - 300.0) < 1e-6
    assert abs(rep.median_km - 200.0) < 1e-6
    assert abs(rep.acc_at_161 - 100.0 / 3.0) < 1e-9


def test_acc_boundary_inclusive():
    truth = np.zeros(2)
    exactly = _point_at_km(truth, ACC_RADIUS_KM)
    just_out = _point_at_km(truth, ACC_RADIUS_KM + 0.001)
    assert evaluate([exactly], [truth]).acc_at_161 == 100.0
    assert evaluate([just_out], [truth]).acc_at_161 == 0.0


def test_evaluate_against_brute_force():
    rng = np.random.default_rng(2)
    preds, truths = random_points(rng, 501), random_points(rng, 501)
    rep = evaluate(preds, truths)
    errs = sorted(haversine_km(p, t) for p, t in zip(preds, truths))
    assert abs(rep.mean_km - np.mean(errs)) < 1e-9 * max(1.0, rep.mean_km)
    assert abs(rep.median_km - errs[len(errs) // 2]) < 1e-9
    acc = 100.0 * np.mean([e <= ACC_RADIUS_KM for e in errs])
    assert abs(rep.acc_at_161 - acc) < 1e-9


def test_evaluate_errors():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate(np.array([NYC]), np.array([NYC, LA]))


def test_write_error_tsv(tmp_path):
    path = tmp_path / "err.tsv"
    preds, truths = np.array([NYC]), np.array([LA])
    write_error_tsv(path, ["u1"], preds, truths, evaluate(preds, truths).errors_km)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("user_id\t")
    fields = lines[2].split("\t")
    assert fields[0] == "u1"
    assert fields[1:5] == [repr(x) for x in (*LA.tolist(), *NYC.tolist())]
    assert abs(float(fields[5]) - haversine_km(NYC, LA)) < 1e-9
