"""On-disk posterior sample layout: JSON manifest plus flat float64 blocks.

Each parameter block lives in its own little-endian binary file in
draw-major order, so a stored chain round-trips bit for bit.  The manifest
pins dimensions, chain provenance, the config digest, and per-block
checksums that are verified on load.  Which blocks a store holds, and
their per-draw shapes, is defined once, by the table ``state.BLOCKS``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import shutil
import uuid
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .state import BLOCKS, ParameterState, block_sizes

FORMAT_VERSION = 1


@dataclass
class DrawStore:
    config: ModelConfig
    T: int
    chain_id: int = 0
    blocks: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        if not self.blocks:
            return 0
        return next(iter(self.blocks.values())).shape[0]

    def block(self, name: str) -> np.ndarray:
        if name not in self.blocks:
            raise KeyError(f"store has no block {name!r}")
        return self.blocks[name]


def block_layout(config: ModelConfig, T: int) -> dict[str, tuple[int, ...]]:
    """Per-draw shapes of every stored block (scalars take one element)."""
    sizes = block_sizes(config, T)
    return {blk.name: blk.shape(sizes) or (1,) for blk in BLOCKS}


def allocate_store(config: ModelConfig, T: int, n_draws: int, chain_id: int = 0) -> DrawStore:
    blocks = {
        name: np.empty((n_draws, *shape))
        for name, shape in block_layout(config, T).items()
    }
    return DrawStore(config=config, T=T, chain_id=chain_id, blocks=blocks)


_GETTERS = tuple((blk.name, operator.attrgetter(blk.attr)) for blk in BLOCKS)


def record_draw(store: DrawStore, i: int, state: ParameterState) -> None:
    """Copy every table block of ``state`` into draw ``i`` of ``store``."""
    for name, get in _GETTERS:
        store.blocks[name][i] = get(state)


def _block_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def persist_store(store: DrawStore, path: str) -> None:
    """Write ``store`` to the directory ``path``, replacing a store already there.

    The files are written into a temporary sibling directory, which is then
    renamed to ``path``, so ``path`` never holds a half-written store.  An
    old store is moved aside first and deleted only after the rename.  On
    any error the temporary directory is removed and the old store is put
    back.  A non-empty directory that is not a store is left alone.
    """
    path = os.path.normpath(os.path.abspath(path))
    if (os.path.isdir(path) and os.listdir(path)
            and not os.path.exists(os.path.join(path, "manifest.json"))):
        raise ValueError(f"{path}: not a draw store; refusing to replace it")
    parent, name = os.path.split(path)
    os.makedirs(parent, exist_ok=True)
    # os.mkdir, unlike tempfile.mkdtemp, gives the store the usual permissions
    tmp = os.path.join(parent, f".{name}.{uuid.uuid4().hex}")
    old = tmp + ".old"
    os.mkdir(tmp)
    try:
        _write_store(store, tmp)
        if os.path.lexists(path):
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.lexists(old) and not os.path.lexists(path):
            os.rename(old, path)
        raise
    shutil.rmtree(old, ignore_errors=True)


def _write_store(store: DrawStore, path: str) -> None:
    """Block files, then the manifest, into the existing directory ``path``."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "config_digest": store.config.digest(),
        "config": store.config.to_dict(),
        "T": store.T,
        "chain_id": store.chain_id,
        "n_draws": store.n_draws,
        "blocks": {},
    }
    for name, arr in store.blocks.items():
        flat = np.ascontiguousarray(arr, dtype="<f8")
        fname = f"{name}.f64"
        with open(os.path.join(path, fname), "wb") as fh:
            fh.write(flat.tobytes())
        manifest["blocks"][name] = {
            "file": fname,
            "shape": list(arr.shape),
            "sha256": _block_digest(arr),
        }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_store(path: str, expected_config: ModelConfig | None = None) -> DrawStore:
    """Read and verify a store; one made under a config other than ``expected_config`` raises."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"{path}: not a draw store (missing manifest.json)")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported store format {manifest.get('format_version')}")
    config = ModelConfig.from_dict(manifest["config"])
    if config.digest() != manifest["config_digest"]:
        raise ValueError(f"{path}: config digest mismatch; manifest corrupted")
    if expected_config is not None and expected_config.digest() != manifest["config_digest"]:
        raise ValueError(f"{path}: store was produced under a different config")
    blocks = {}
    for name, meta in manifest["blocks"].items():
        shape = tuple(meta["shape"])
        fpath = os.path.join(path, meta["file"])
        raw = np.fromfile(fpath, dtype="<f8")
        expected = int(np.prod(shape))
        if raw.size != expected:
            raise ValueError(
                f"{path}: block {name!r} holds {raw.size} values, expected {expected}; "
                "file is truncated or padded"
            )
        arr = raw.reshape(shape)
        if _block_digest(arr) != meta["sha256"]:
            raise ValueError(f"{path}: block {name!r} fails its checksum")
        blocks[name] = arr
    return DrawStore(config=config, T=manifest["T"], chain_id=manifest["chain_id"], blocks=blocks)
