"""Corpus reading/writing, the synthetic corpus generator, and checkpoint
persistence.

Corpus files are TSV: user id, latitude, longitude, text.  Synthetic corpora
make the inverse-problem and dialect-region claims testable at desk scale:
users are sampled around mode centers and their text drawn from per-mode
exclusive tokens, shared ambiguous tokens and location-independent noise.
"""

import json
import re
import zipfile
from dataclasses import dataclass

import numpy as np

from .features import text_lines
from .geo import GeoPoint
from .models import FORMAT_VERSION, MODEL_CLASSES, CheckpointError


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


def read_corpus(path):
    """TSV rows: id, lat, lon, text.  Malformed rows are skipped and counted;
    more than 10% malformed, or a byte that is not UTF-8, is a hard error."""
    records = []
    bad = total = 0
    for _, line in text_lines(path, CorpusError):
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
        except ValueError:
            bad += 1
    if total and bad / total > 0.10:
        raise CorpusError(f"{bad} of {total} rows malformed in {path}")
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
        counts = self.mode_counts()
        if len(counts) != len(self.mode_centers):
            raise ValueError(f"{len(counts)} users_per_mode counts for {len(self.mode_centers)} modes")
        if min(counts) < 1:
            raise ValueError(f"users_per_mode must be >= 1, got {self.users_per_mode}")
        if not 0.0 <= self.ambiguous_only_fraction <= 1.0:
            raise ValueError(f"ambiguous_only_fraction must be in [0, 1], got {self.ambiguous_only_fraction}")
        if self.noise_tokens < 0:
            raise ValueError(f"noise_tokens must be >= 0, got {self.noise_tokens}")
        if not (np.isfinite(self.mode_stddev) and self.mode_stddev >= 0.0):
            raise ValueError(f"mode_stddev must be finite and >= 0, got {self.mode_stddev}")

    def mode_counts(self):
        """Users per mode, one count per mode centre."""
        n = self.users_per_mode
        return [n] * len(self.mode_centers) if isinstance(n, int) else list(n)

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
    per_mode = spec.mode_counts()
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
    return np.array([[r.location.lat, r.location.lon] for r in records]).reshape(-1, 2)


ZIP_MAGIC = b"PK\x03\x04"
META_MEMBER = "checkpoint.json"


def save_model(path, model):
    write_checkpoint(path, model.to_checkpoint())


def write_checkpoint(path, ck):
    """Write the checkpoint dict ``ck`` to ``path`` as format 4: an
    uncompressed zip holding one ``<name>.npy`` member per entry of
    ``ck["params"]`` (``<f8``, C order) and the other fields as the JSON
    member ``checkpoint.json``.  ``ZipFile.open(name, "w")`` dates every
    member 1980-01-01, so equal models give equal bytes; writing through an
    open file keeps the file at exactly ``path``."""
    meta = {key: value for key, value in ck.items() if key != "params"}
    with open(path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in ck["params"].items():
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.ascontiguousarray(arr, dtype="<f8"),
                                          allow_pickle=False)
        with zf.open(META_MEMBER, "w") as member:
            member.write(json.dumps(meta).encode("utf-8"))


def load_model(path):
    """The model in the format-4 checkpoint at ``path``.  Any other file, and
    any unreadable or inconsistent one, is a CheckpointError."""
    try:
        with open(path, "rb") as f:
            if f.read(4) != ZIP_MAGIC:
                raise CheckpointError(f"{path} is not a format {FORMAT_VERSION} checkpoint "
                                      f"(a zip); only format {FORMAT_VERSION} is read")
            with zipfile.ZipFile(f) as zf:
                return _model_from(_read_zip_checkpoint(zf))
    except CheckpointError:
        raise
    # zipfile refuses an unknown zip version with NotImplementedError, and
    # json.loads JSON nested too deep with RecursionError
    except (EOFError, KeyError, NotImplementedError, OSError, RecursionError, ValueError,
            zipfile.BadZipFile) as e:
        raise CheckpointError(f"cannot load checkpoint {path}: {e}") from e


def _model_from(ck):
    version = ck.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {version!r} "
                              f"(only format {FORMAT_VERSION} is read)")
    name = ck.get("model")
    if name not in MODEL_CLASSES:
        raise CheckpointError(f"unknown model type: {name!r}")
    return MODEL_CLASSES[name].from_checkpoint(ck)


def _read_zip_checkpoint(zf):
    """The metadata of a checkpoint zip, with ``params`` mapping each block
    name to its ``_NpyBlock``."""
    infos = zf.infolist()
    names = [info.filename for info in infos]
    if len(set(names)) != len(names):
        raise CheckpointError("checkpoint zip has duplicate members")
    for info in infos:
        if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
            raise CheckpointError(f"checkpoint member {info.filename} is compressed or encrypted")
    if META_MEMBER not in names:
        raise CheckpointError(f"checkpoint zip has no {META_MEMBER} member")
    ck = json.loads(zf.read(META_MEMBER).decode("utf-8"))
    if not isinstance(ck, dict):
        raise CheckpointError(f"{META_MEMBER} is not a JSON object")
    blocks = {}
    for info in infos:
        if info.filename == META_MEMBER:
            continue
        if not info.filename.endswith(".npy"):
            raise CheckpointError(f"unexpected checkpoint member {info.filename}")
        blocks[info.filename[:-len(".npy")]] = _NpyBlock(zf, info)
    ck["params"] = blocks
    return ck


_READ_CHUNK = 1 << 18
_NPY_MAGIC = b"\x93NUMPY\x01\x00"  # .npy 1.0, which write_array writes for short headers
_NPY_F8_HEADER = re.compile(
    r"\{'descr': '<f8', 'fortran_order': False, 'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n")


class _NpyBlock:
    """A checkpoint's parameter block.  Making it reads only the member's
    ``.npy`` header, which must be the one ``np.lib.format.write_array``
    writes for a <f8 C-order array; ``read`` reads the data, which the model
    calls once ``shape`` matches its network, so a forged header allocates
    nothing.  The header is matched, not evaluated: the member's CRC is
    checked only at its end, so the header may be corrupt."""

    def __init__(self, zf, info):
        self.name, self._zf, self._info = info.filename, zf, info
        with zf.open(info) as fp:
            magic = fp.read(len(_NPY_MAGIC) + 2)
            header = fp.read(int.from_bytes(magic[len(_NPY_MAGIC):], "little")).decode("latin1")
        match = _NPY_F8_HEADER.fullmatch(header) if magic[:len(_NPY_MAGIC)] == _NPY_MAGIC else None
        if match is None:
            raise CheckpointError(f"member {self.name} is not a .npy 1.0 array of <f8 in C order: "
                                  f"{(magic + header.encode('latin1'))[:80]!r}")
        self.shape = tuple(int(d) for d in match[1].split(",") if d)
        self._data_start = len(magic) + len(header)

    def read(self):
        arr = np.empty(self.shape)
        view = memoryview(arr.reshape(-1)).cast("B")
        with self._zf.open(self._info) as fp:
            fp.read(self._data_start)  # read, not seek, so the CRC covers the header too
            # in chunks, as np.lib.format.read_array: one big read is slower
            got = sum(fp.readinto(view[start:start + _READ_CHUNK])
                      for start in range(0, len(view), _READ_CHUNK))
            trailing = fp.read(1)
        if got != len(view) or trailing:
            raise CheckpointError(f"member {self.name}: data size does not match shape "
                                  f"{list(self.shape)}")
        return arr
