"""Draw store persistence: byte-exact round trips and corruption detection."""

import json
import os

import numpy as np
import pytest

from mssvar.config import ModelConfig
from mssvar.data import build_design
from mssvar.engine import run_chain
from mssvar.store import FORMAT_VERSION, block_layout, load_store, persist_store


@pytest.fixture(scope="module")
def small_store():
    rng = np.random.default_rng(100)
    ds = build_design(rng.normal(size=(25, 2)), np.ones((25, 1)), 1)
    config = ModelConfig(N=2, p=1, M=2, draws=6, burnin=2, seed=5)
    return config, ds, run_chain(config, ds)


def test_layout_covers_every_recorded_block(small_store):
    config, ds, store = small_store
    layout = block_layout(config, ds.T)
    assert set(store.blocks) == set(layout)
    for name, shape in layout.items():
        assert store.blocks[name].shape == (6, *shape), name
    assert store.n_draws == 6


def test_round_trip_is_byte_exact(small_store, tmp_path):
    config, ds, store = small_store
    path = str(tmp_path / "chain0")
    persist_store(store, path)
    loaded = load_store(path)
    assert loaded.T == ds.T
    assert loaded.chain_id == 0
    assert loaded.config.digest() == config.digest()
    for name in store.blocks:
        assert store.blocks[name].tobytes() == loaded.blocks[name].tobytes(), name
    # persisting the loaded store reproduces identical files
    path2 = str(tmp_path / "again")
    persist_store(loaded, path2)
    for name in store.blocks:
        with open(os.path.join(path, f"{name}.f64"), "rb") as fa:
            a = fa.read()
        with open(os.path.join(path2, f"{name}.f64"), "rb") as fb:
            assert a == fb.read(), name


def test_truncated_block_detected(small_store, tmp_path):
    _, _, store = small_store
    path = str(tmp_path / "trunc")
    persist_store(store, path)
    fpath = os.path.join(path, "h.f64")
    data = open(fpath, "rb").read()
    with open(fpath, "wb") as fh:
        fh.write(data[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_store(path)


def test_corrupted_block_fails_checksum(small_store, tmp_path):
    _, _, store = small_store
    path = str(tmp_path / "corrupt")
    persist_store(store, path)
    fpath = os.path.join(path, "A.f64")
    arr = np.fromfile(fpath, dtype="<f8")
    arr[3] += 1e-9
    arr.astype("<f8").tofile(fpath)
    with pytest.raises(ValueError, match="checksum"):
        load_store(path)


def test_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_store(str(tmp_path / "nowhere"))


def test_unsupported_format_version(small_store, tmp_path):
    _, _, store = small_store
    path = str(tmp_path / "future")
    persist_store(store, path)
    mpath = os.path.join(path, "manifest.json")
    manifest = json.load(open(mpath))
    manifest["format_version"] = FORMAT_VERSION + 1
    json.dump(manifest, open(mpath, "w"))
    with pytest.raises(ValueError, match="format"):
        load_store(path)


def test_expected_config_guard(small_store, tmp_path):
    config, _, store = small_store
    path = str(tmp_path / "guard")
    persist_store(store, path)
    load_store(path, expected_config=config)  # matching digest passes silently
    other = config.with_updates(seed=123)
    with pytest.raises(ValueError, match="different config"):
        load_store(path, expected_config=other)


def _fail_json_dump(*args, **kwargs):
    raise OSError("disk full")


def test_failed_write_leaves_no_store(small_store, tmp_path, monkeypatch):
    _, _, store = small_store
    monkeypatch.setattr("mssvar.store.json.dump", _fail_json_dump)
    with pytest.raises(OSError, match="disk full"):
        persist_store(store, str(tmp_path / "fresh"))
    assert os.listdir(tmp_path) == []


def test_failed_overwrite_keeps_the_old_store(small_store, tmp_path, monkeypatch):
    config, ds, store = small_store
    path = str(tmp_path / "chain0")
    persist_store(store, path)
    before = {name: open(os.path.join(path, name), "rb").read() for name in os.listdir(path)}
    other = run_chain(config.with_updates(seed=6), ds)
    monkeypatch.setattr("mssvar.store.json.dump", _fail_json_dump)
    with pytest.raises(OSError, match="disk full"):
        persist_store(other, path)
    assert os.listdir(tmp_path) == ["chain0"]
    after = {name: open(os.path.join(path, name), "rb").read() for name in os.listdir(path)}
    assert after == before
    loaded = load_store(path)
    for name in store.blocks:
        assert loaded.blocks[name].tobytes() == store.blocks[name].tobytes(), name


def test_overwrite_replaces_the_store(small_store, tmp_path):
    config, ds, store = small_store
    path = str(tmp_path / "chain0")
    persist_store(store, path)
    other = run_chain(config.with_updates(seed=6), ds)
    persist_store(other, path)
    assert os.listdir(tmp_path) == ["chain0"]
    loaded = load_store(path)
    assert loaded.config.seed == 6
    assert loaded.blocks["A"].tobytes() == other.blocks["A"].tobytes()


def test_refuses_to_replace_a_directory_that_is_not_a_store(small_store, tmp_path):
    _, _, store = small_store
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(ValueError, match="not a draw store"):
        persist_store(store, str(tmp_path))
    assert os.listdir(tmp_path) == ["notes.txt"]
