"""Corpus I/O, the synthetic corpus generator, and checkpoint persistence."""

import base64
import io
import json
import re
import zipfile

import numpy as np
import pytest

from dialect_reference import word_log_probs
from geomix import data, models, network
from geomix.data import (CheckpointError, CorpusError, SyntheticSpec, UserRecord,
                         coords_array, generate_synthetic, load_model, read_corpus,
                         save_model, write_corpus)
from geomix.geo import GeoPoint


def sample_records():
    return [UserRecord("u1", GeoPoint(40.5, -74.2), "hello world"),
            UserRecord("u2", GeoPoint(-33.9, 151.2), "g'day   mate")]


def test_corpus_round_trip(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(path, sample_records())
    back = read_corpus(path)
    assert back == sample_records()


def test_malformed_rows_skipped_and_reported(tmp_path):
    path = tmp_path / "c.tsv"
    rows = [f"u{i}\t10.0\t20.0\tok text" for i in range(20)]
    rows[3] = "bad\t91.0\t20.0\tlatitude out of range"
    rows[7] = "only\tthree\tfields"
    path.write_text("\n".join(rows) + "\n")
    back = read_corpus(path)
    assert [r.user_id for r in back] == [f"u{i}" for i in range(20) if i not in (3, 7)]


def test_too_many_malformed_is_hard_error(tmp_path):
    path = tmp_path / "c.tsv"
    rows = ["u\t10.0\t20.0\tok"] * 5 + ["broken line"] * 2
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CorpusError):
        read_corpus(path)


def test_user_record_validation():
    with pytest.raises(ValueError):
        UserRecord("", GeoPoint(0, 0), "text")


def two_mode_spec(**kw):
    base = dict(mode_centers=[GeoPoint(30.0, -100.0), GeoPoint(50.0, -100.0)],
                users_per_mode=50, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_synthetic_split_sizes_and_ids():
    train, dev, test = generate_synthetic(two_mode_spec())
    n = len(train) + len(dev) + len(test)
    assert n == 100
    assert len(train) == 80 and len(dev) == 10 and len(test) == 10
    for r in train + dev + test:
        assert r.user_id.startswith(("amb-", "mix-"))
        toks = r.text.split()
        assert len(toks) == 30
        if r.user_id.startswith("amb-"):
            assert not any(t.startswith("mode") for t in toks)
            assert any(t.startswith("ambtok") for t in toks)
        else:
            m = int(r.user_id.split("-")[1][1:])
            assert all(f"mode{m}tok{i}" in toks for i in range(5))


def test_synthetic_mode_geometry():
    spec = two_mode_spec(users_per_mode=200, mode_stddev=0.3)
    train, dev, test = generate_synthetic(spec)
    for r in train + dev + test:
        m = int(r.user_id.split("-")[1][1:])
        center = spec.mode_centers[m]
        assert abs(r.location.lat - center.lat) < 0.3 * 6
        assert abs(r.location.lon - center.lon) < 0.3 * 6


def test_synthetic_deterministic(tmp_path):
    a = generate_synthetic(two_mode_spec())
    b = generate_synthetic(two_mode_spec())
    assert a == b
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_corpus(pa, a[0])
    write_corpus(pb, b[0])
    assert pa.read_bytes() == pb.read_bytes()
    c = generate_synthetic(two_mode_spec(seed=1))
    assert c != a


def test_synthetic_per_mode_counts():
    train, dev, test = generate_synthetic(two_mode_spec(users_per_mode=[30, 10]))
    counts = [0, 0]
    for r in train + dev + test:
        counts[int(r.user_id.split("-")[1][1:])] += 1
    assert counts == [30, 10]


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(mode_centers=[GeoPoint(0, 0)])
    with pytest.raises(ValueError):
        two_mode_spec(ambiguous_tokens=0)


def test_coords_array():
    arr = coords_array(sample_records())
    np.testing.assert_array_equal(arr, [[40.5, -74.2], [-33.9, 151.2]])
    assert coords_array([]).shape == (0, 2)


def all_model_instances():
    rng = np.random.default_rng(0)
    coords = rng.normal(scale=3.0, size=(20, 2)) + [40.0, -100.0]
    reg = models.RegressionGeolocator(network.NetworkSpec((6, 5, 2), seed=1))
    mdn = models.MdnGeolocator(network.NetworkSpec((6, 5, 12), dropout_rate=0.25, l1_coeff=1e-4,
                                                   l2_coeff=3e-4, seed=2))
    sh = models.SharedMdnGeolocator(network.NetworkSpec((6, 5, 2), seed=3))
    sh.init_shared_from_labels(coords, seed=0)
    dia = models.DialectModel.init(2, 4, ["alpha", "beta", "gamma"], coords, seed=4)
    return [(reg, (6,)), (mdn, (6,)), (sh, (6,)), (dia, None)], coords


def zip_members(path):
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def write_zip(path, members):
    with zipfile.ZipFile(path, "w") as zf:
        for name, raw in members.items():
            zf.writestr(name, raw)


def npy_bytes(arr, allow_pickle=False):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


def test_checkpoint_round_trip_bitwise(tmp_path):
    instances, coords = all_model_instances()
    rng = np.random.default_rng(1)
    for i, (model, in_shape) in enumerate(instances):
        model.vocab_hash = "cafe0123"
        path = tmp_path / f"m{i}.json"
        save_model(path, model)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        members = zip_members(path)
        assert json.loads(members["checkpoint.json"])["format_version"] == 4
        assert sorted(members) == sorted(["checkpoint.json", *(f"{n}.npy" for n in model.params)])
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert loaded.spec == model.spec
        assert getattr(loaded, "K", None) == getattr(model, "K", None)
        assert loaded.vocab_hash == "cafe0123"
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        if in_shape is not None:
            X = rng.normal(size=(5, *in_shape))
            np.testing.assert_array_equal(loaded.predict_points(X),
                                          model.predict_points(X))
        else:
            np.testing.assert_array_equal(word_log_probs(loaded, coords[:5]),
                                          word_log_probs(model, coords[:5]))
            assert loaded.terms == model.terms
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"m{i}.json" for i in range(len(instances))]


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "m.json"
    model = models.RegressionGeolocator(network.NetworkSpec((4, 3, 2), seed=0))
    save_model(path, model)

    truncated = tmp_path / "trunc.json"
    truncated.write_bytes(path.read_bytes()[:50])
    with pytest.raises(CheckpointError):
        load_model(truncated)
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "missing.json")

    for key, value in (("format_version", 99), ("format_version", 3), ("format_version", 2),
                       ("model", "transformer")):
        ck = model.to_checkpoint()
        ck[key] = value
        bad = tmp_path / "bad.json"
        data.write_checkpoint(bad, ck)
        with pytest.raises(CheckpointError):
            load_model(bad)


def test_v1_checkpoint_is_refused(tmp_path):
    """Format-1 (float lists) and format-2 (base64) JSON files are refused
    by their first bytes, as every file that is not a zip is."""
    model, _ = all_model_instances()[0][0]
    blocks = {1: lambda arr: arr.ravel().tolist(),
              2: lambda arr: base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
    for version, block in blocks.items():
        ck = model.to_checkpoint()
        ck["format_version"] = version
        ck["params"] = {name: {"shape": list(arr.shape), "data": block(arr)}
                        for name, arr in model.params.items()}
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(ck))
        with pytest.raises(CheckpointError, match="only format 4 is read"):
            load_model(path)


V4_BREAKAGES = {
    "drop network_spec": "network_spec", "unknown spec key": "bad network_spec",
    "negative l2_coeff": "l2_coeff must be finite and >= 0",
    "output width not 6K": "output size 13 is not a multiple of 6", "missing member": "do not match",
    "extra member": "do not match", "stray member": "unexpected checkpoint member",
    "wrong member shape": "has shape", "forged huge shape": "has shape",
    "nan member": "parameter b1 holds a non-finite value",
    "inf member": "parameter W0 holds a non-finite value",
    "big-endian member": "'>f8'", "float32 member": "'<f4'",
    "fortran member": "'fortran_order': True",
    "pickled member": "'|O'", "short member": "data size", "long member": "data size",
    "not npy": "not a .npy 1.0 array", "no metadata": "no checkpoint.json",
    "metadata not an object": "not a JSON object", "metadata not JSON": "cannot load",
    "metadata nested too deep": "cannot load",
    "compressed member": "compressed", "duplicate member": "duplicate",
    "version 2 in zip": "unsupported checkpoint version: 2",
    "dialect integer terms": "not a list of distinct strings",
    "dialect repeated terms": "not a list of distinct strings",
}


@pytest.mark.parametrize("breakage", sorted(V4_BREAKAGES))
def test_malformed_v3_checkpoint_is_checkpoint_error(tmp_path, breakage):
    if breakage.startswith("dialect "):
        model = all_model_instances()[0][3][0]
    else:
        model = models.MdnGeolocator(network.NetworkSpec((6, 5, 12), seed=0))
    path = tmp_path / "bad.json"
    save_model(path, model)
    members = zip_members(path)
    meta = json.loads(members["checkpoint.json"])
    W0 = model.params["W0"]
    if breakage == "dialect integer terms":
        meta["terms"] = list(range(len(meta["terms"])))
    elif breakage == "dialect repeated terms":
        meta["terms"][-1] = meta["terms"][0]
    elif breakage.startswith("drop "):
        del meta[breakage[len("drop "):]]
    elif breakage == "unknown spec key":
        meta["network_spec"]["learning_rate"] = 0.5
    elif breakage == "negative l2_coeff":
        meta["network_spec"]["l2_coeff"] = -1e-5
    elif breakage == "output width not 6K":  # the blocks match the width; only the width is wrong
        meta["network_spec"]["layer_sizes"][-1] = 13
        members["W1.npy"] = npy_bytes(np.zeros((5, 13)))
        members["b1.npy"] = npy_bytes(np.zeros(13))
    elif breakage == "version 2 in zip":
        meta["format_version"] = 2
    elif breakage == "missing member":
        del members["b1.npy"]
    elif breakage == "extra member":
        members["W9.npy"] = members["b1.npy"]
    elif breakage == "stray member":
        members["notes.txt"] = b"hello"
    elif breakage == "wrong member shape":
        members["W0.npy"] = npy_bytes(W0.T.copy())
    elif breakage == "nan member":
        b1 = model.params["b1"].copy()
        b1[0] = np.nan
        members["b1.npy"] = npy_bytes(b1)
    elif breakage == "inf member":
        members["W0.npy"] = npy_bytes(np.where(W0 == W0.max(), -np.inf, W0))
    elif breakage == "forged huge shape":  # refused from the header, before any allocation
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": (10 ** 12, 5)})
        members["W0.npy"] = buf.getvalue()
    elif breakage == "big-endian member":
        members["W0.npy"] = npy_bytes(W0.astype(">f8"))
    elif breakage == "float32 member":
        members["W0.npy"] = npy_bytes(W0.astype("<f4"))
    elif breakage == "fortran member":
        members["W0.npy"] = npy_bytes(np.asfortranarray(W0))
    elif breakage == "pickled member":
        members["W0.npy"] = npy_bytes(np.array([{"W0": 1}], dtype=object), allow_pickle=True)
    elif breakage == "short member":
        members["W0.npy"] = members["W0.npy"][:-8]
    elif breakage == "long member":
        members["W0.npy"] += bytes(8)
    elif breakage == "not npy":
        members["W0.npy"] = b"this is not an array"
    elif breakage == "no metadata":
        del members["checkpoint.json"]
    elif breakage == "metadata not an object":
        meta = [meta]
    elif breakage == "metadata not JSON":
        members["checkpoint.json"] = b"{oops"
    elif breakage == "metadata nested too deep":
        members["checkpoint.json"] = b"[" * 200_000
    if "checkpoint.json" in members and breakage not in ("metadata not JSON", "metadata nested too deep"):
        members["checkpoint.json"] = json.dumps(meta).encode("utf-8")
    if breakage == "compressed member":
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, raw in members.items():
                zf.writestr(name, raw)
    elif breakage == "duplicate member":
        with pytest.warns(UserWarning, match="Duplicate name"), zipfile.ZipFile(path, "w") as zf:
            for name, raw in [*members.items(), ("b0.npy", members["b0.npy"])]:
                zf.writestr(name, raw)
    else:
        write_zip(path, members)
    with pytest.raises(CheckpointError, match=re.escape(V4_BREAKAGES[breakage])):
        load_model(path)


def test_load_runs_no_init_draw(tmp_path, monkeypatch):
    instances, _ = all_model_instances()

    def no_draw(*args, **kwargs):
        raise AssertionError("init_network_params called while loading")

    monkeypatch.setattr(models, "init_network_params", no_draw)
    for i, (model, _) in enumerate(instances):
        path = tmp_path / f"m{i}.json"
        save_model(path, model)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert list(loaded.params) == list(model.params)
        for name, arr in model.params.items():
            assert loaded.params[name].tobytes() == arr.tobytes()
