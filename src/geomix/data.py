"""Corpus reading/writing, the synthetic corpus generator, and checkpoint
persistence.

Corpus files are TSV: user id, latitude, longitude, text.  Synthetic corpora
make the inverse-problem and dialect-region claims testable at desk scale:
users are sampled around mode centers and their text drawn from per-mode
exclusive tokens, shared ambiguous tokens and location-independent noise.
"""

import json
from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint
from .models import MODEL_CLASSES, READABLE_VERSIONS, CheckpointError


class CorpusError(ValueError):
    pass


@dataclass
class UserRecord:
    user_id: str
    location: GeoPoint
    text: str

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("empty user id")


def read_corpus(path, report=None):
    """TSV rows: id, lat, lon, text.  Malformed rows are skipped and counted;
    more than 10% malformed is a hard error."""
    records = []
    bad = []
    total = 0
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            parts = line.split("\t")
            try:
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {len(parts)}")
                uid, lat, lon, text = parts
                records.append(UserRecord(uid, GeoPoint(float(lat), float(lon)), text))
            except ValueError as e:
                bad.append((ln, str(e)))
    if total and len(bad) / total > 0.10:
        raise CorpusError(f"{len(bad)} of {total} rows malformed in {path}")
    if report is not None:
        report.extend(bad)
    return records


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(f"{r.user_id}\t{r.location.lat!r}\t{r.location.lon!r}\t{r.text}\n")


@dataclass
class SyntheticSpec:
    mode_centers: list  # GeoPoints
    mode_stddev: float = 0.5  # degrees
    users_per_mode: int = 100  # int, or one count per mode
    tokens_per_user: int = 30
    exclusive_tokens_per_mode: int = 5
    ambiguous_tokens: int = 2  # each tied to every mode
    noise_tokens: int = 20
    ambiguous_only_fraction: float = 0.25  # users whose text has no exclusive tokens
    seed: int = 0

    def __post_init__(self):
        if len(self.mode_centers) < 2:
            raise ValueError("need at least 2 modes")
        if self.ambiguous_tokens < 1:
            raise ValueError("need at least 1 ambiguous token")

    def vocabulary_plan(self):
        exclusive = {m: [f"mode{m}tok{i}" for i in range(self.exclusive_tokens_per_mode)]
                     for m in range(len(self.mode_centers))}
        ambiguous = [f"ambtok{i}" for i in range(self.ambiguous_tokens)]
        noise = [f"noisetok{i}" for i in range(self.noise_tokens)]
        return exclusive, ambiguous, noise


def generate_synthetic(spec):
    """Returns (train, dev, test) UserRecord lists, split 80/10/10 by seed.

    Ambiguous-token-only users carry an ``amb-`` id prefix so the
    inverse-problem split can be selected downstream.
    """
    rng = np.random.default_rng(spec.seed)
    exclusive, ambiguous, noise = spec.vocabulary_plan()
    records = []
    per_mode = spec.users_per_mode
    if isinstance(per_mode, int):
        per_mode = [per_mode] * len(spec.mode_centers)
    for m, center in enumerate(spec.mode_centers):
        for u in range(per_mode[m]):
            lat = float(np.clip(center.lat + spec.mode_stddev * rng.standard_normal(), -90, 90))
            lon = float(np.clip(center.lon + spec.mode_stddev * rng.standard_normal(), -180, 180))
            amb_only = rng.random() < spec.ambiguous_only_fraction
            if amb_only:
                # guarantee at least one ambiguous token so the user is a
                # genuine inverse-problem case rather than pure noise
                pool = ambiguous + noise
                toks = [ambiguous[int(rng.integers(len(ambiguous)))]]
            else:
                pool = exclusive[m] + ambiguous + noise
                toks = list(exclusive[m])
            extra = spec.tokens_per_user - len(toks)
            if extra > 0:
                toks += [pool[i] for i in rng.integers(len(pool), size=extra)]
            prefix = "amb" if amb_only else "mix"
            records.append(UserRecord(f"{prefix}-m{m}-u{u}", GeoPoint(lat, lon), " ".join(toks)))
    order = rng.permutation(len(records))
    n = len(records)
    n_train = int(0.8 * n)
    n_dev = int(0.1 * n)
    train = [records[i] for i in order[:n_train]]
    dev = [records[i] for i in order[n_train:n_train + n_dev]]
    test = [records[i] for i in order[n_train + n_dev:]]
    return train, dev, test


def coords_array(records):
    return np.array([[r.location.lat, r.location.lon] for r in records])


def save_model(path, model):
    text = json.dumps(model.to_checkpoint())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_model(path):
    try:
        with open(path, encoding="utf-8") as f:
            ck = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"cannot load checkpoint {path}: {e}") from e
    if not isinstance(ck, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if ck.get("format_version") not in READABLE_VERSIONS:
        raise CheckpointError(f"unsupported checkpoint version: {ck.get('format_version')}")
    name = ck.get("model")
    if name not in MODEL_CLASSES:
        raise CheckpointError(f"unknown model type: {name!r}")
    from .heads import SLICE_LAYOUT
    if ck.get("slice_layout") != SLICE_LAYOUT:
        raise CheckpointError(
            f"slice layout mismatch: {ck.get('slice_layout')!r} vs {SLICE_LAYOUT!r}")
    return MODEL_CLASSES[name].from_checkpoint(ck)
