"""Corpus I/O, the synthetic corpus generator, and checkpoint persistence."""

import json

import numpy as np
import pytest

from geomix import data, heads, models, network
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
    report = []
    back = read_corpus(path, report=report)
    assert len(back) == 18
    assert sorted(ln for ln, _ in report) == [4, 8]


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


def all_model_instances():
    rng = np.random.default_rng(0)
    coords = rng.normal(scale=3.0, size=(20, 2)) + [40.0, -100.0]
    reg = models.RegressionGeolocator(network.NetworkSpec((6, 5, 2), seed=1))
    mdn = models.MdnGeolocator(network.NetworkSpec((6, 5, 12), seed=2),
                               heads.MdnHeadConfig(2))
    sh = models.SharedMdnGeolocator(network.NetworkSpec((6, 5, 2), seed=3),
                                    heads.MdnHeadConfig(2))
    sh.init_shared_from_labels(coords, seed=0)
    dia = models.DialectModel.init(2, 4, ["alpha", "beta", "gamma"], coords, seed=4)
    return [(reg, (6,)), (mdn, (6,)), (sh, (6,)), (dia, None)], coords


def test_checkpoint_round_trip_bitwise(tmp_path):
    instances, coords = all_model_instances()
    rng = np.random.default_rng(1)
    for i, (model, in_shape) in enumerate(instances):
        model.vocab_hash = "cafe0123"
        path = tmp_path / f"m{i}.json"
        save_model(path, model)
        assert json.loads(path.read_text())["format_version"] == 2
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert loaded.vocab_hash == "cafe0123"
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        if in_shape is not None:
            X = rng.normal(size=(5, *in_shape))
            np.testing.assert_array_equal(loaded.predict_points(X),
                                          model.predict_points(X))
        else:
            np.testing.assert_array_equal(loaded.word_log_probs(coords[:5]),
                                          model.word_log_probs(coords[:5]))
            assert loaded.terms == model.terms


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "m.json"
    model = models.RegressionGeolocator(network.NetworkSpec((4, 3, 2), seed=0))
    save_model(path, model)

    truncated = tmp_path / "trunc.json"
    truncated.write_text(path.read_text()[:50])
    with pytest.raises(CheckpointError):
        load_model(truncated)
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "missing.json")

    ck = json.loads(path.read_text())
    ck["format_version"] = 99
    bad = tmp_path / "ver.json"
    bad.write_text(json.dumps(ck))
    with pytest.raises(CheckpointError):
        load_model(bad)

    ck = json.loads(path.read_text())
    ck["slice_layout"] = "pi|mu1|mu2|sigma1|sigma2|rho"
    bad2 = tmp_path / "layout.json"
    bad2.write_text(json.dumps(ck))
    with pytest.raises(CheckpointError):
        load_model(bad2)

    ck = json.loads(path.read_text())
    ck["model"] = "transformer"
    bad3 = tmp_path / "name.json"
    bad3.write_text(json.dumps(ck))
    with pytest.raises(CheckpointError):
        load_model(bad3)


def test_v1_checkpoint_still_loads_bitwise(tmp_path):
    instances, _ = all_model_instances()
    for i, (model, _) in enumerate(instances):
        ck = model.to_checkpoint()
        ck["format_version"] = 1
        ck["params"] = {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                        for name, arr in model.params.items()}
        path = tmp_path / f"v1-{i}.json"
        path.write_text(json.dumps(ck))
        loaded = load_model(path)
        assert type(loaded) is type(model)
        for name, arr in model.params.items():
            assert loaded.params[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("breakage", [
    "drop network_spec", "drop params", "drop head", "unknown spec key", "bad base64",
    "short block", "missing block", "wrong block shape", "head K mismatch", "not an object"])
def test_malformed_checkpoint_is_checkpoint_error(tmp_path, breakage):
    mdn = models.MdnGeolocator(network.NetworkSpec((6, 5, 12), seed=0), heads.MdnHeadConfig(2))
    ck = mdn.to_checkpoint()
    block = ck["params"]["W0"]
    if breakage.startswith("drop "):
        del ck[breakage[len("drop "):]]
    elif breakage == "unknown spec key":
        ck["network_spec"]["learning_rate"] = 0.5
    elif breakage == "bad base64":
        block["data"] = "not base64!"
    elif breakage == "short block":
        block["data"] = block["data"][:-12]
    elif breakage == "missing block":
        del ck["params"]["b1"]
    elif breakage == "wrong block shape":
        block["shape"] = [5, 6]
    elif breakage == "head K mismatch":
        ck["head"]["K"] = 3
    else:
        ck = [ck]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ck))
    with pytest.raises(CheckpointError):
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
