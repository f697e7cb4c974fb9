"""Geodesic distance and the geolocation evaluation metrics.

Coordinates are ``(..., 2)`` arrays of (latitude, longitude) in degrees;
``GeoPoint`` only validates coordinates parsed from input files.
"""

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
ACC_RADIUS_KM = 161.0


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def clip_points(points):
    """N x 2 (lat, lon) points clipped to [-90, 90] x [-180, 180]."""
    return np.clip(points, [-90.0, -180.0], [90.0, 180.0])


@dataclass
class EvalReport:
    acc_at_161: float  # percent
    mean_km: float
    median_km: float
    errors_km: np.ndarray  # per-user great-circle error, in input order


def haversine_km(a, b):
    """Great-circle distance in kilometres between broadcastable ``(..., 2)``
    arrays of (lat, lon) degrees."""
    a, b = np.radians(np.asarray(a, dtype=float)), np.radians(np.asarray(b, dtype=float))
    lat1, lon1, lat2, lon2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    h = np.sin((lat2 - lat1) / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))


def median_lower(values):
    """Median using the lower-middle element for even counts."""
    s = np.sort(np.asarray(values, dtype=float))
    return float(s[(len(s) - 1) // 2])


def evaluate(predictions, truths):
    """Acc@161 (inclusive boundary), mean and median error in km for N x 2
    prediction and truth arrays."""
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths")
    if len(predictions) == 0:
        raise ValueError("empty evaluation set")
    errors = haversine_km(predictions, truths)
    return EvalReport(
        acc_at_161=100.0 * int(np.count_nonzero(errors <= ACC_RADIUS_KM)) / len(errors),
        mean_km=float(np.mean(errors)),
        median_km=median_lower(errors),
        errors_km=errors,
    )


def write_error_tsv(path, user_ids, predictions, truths, errors_km):
    """Per-user error export: uid, true lat/lon, pred lat/lon, km error."""
    rows = zip(user_ids, np.asarray(truths, dtype=float).tolist(),
               np.asarray(predictions, dtype=float).tolist(), np.asarray(errors_km, dtype=float).tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write("# median convention: lower-middle element for even counts\n")
        f.write("user_id\ttrue_lat\ttrue_lon\tpred_lat\tpred_lon\terror_km\n")
        for uid, (t_lat, t_lon), (p_lat, p_lon), err in rows:
            f.write(f"{uid}\t{t_lat!r}\t{t_lon!r}\t{p_lat!r}\t{p_lon!r}\t{err!r}\n")
