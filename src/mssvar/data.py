"""Data containers, column transforms, and lagged design construction."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

VALID_TRANSFORMS = ("none", "log", "logdiff")


@dataclass(frozen=True)
class ColumnTransform:
    """Per-column preparation: level, log level, or log difference.

    ``scale100`` multiplies the transformed column by 100 (e.g. to turn a
    log difference into an approximate percentage growth rate).
    """

    kind: str = "none"
    scale100: bool = False

    def __post_init__(self) -> None:
        if self.kind not in VALID_TRANSFORMS:
            raise ValueError(f"unknown transform {self.kind!r}")

    @classmethod
    def parse(cls, token: str) -> "ColumnTransform":
        token = token.strip().lower()
        scale = token.endswith("_x100")
        if scale:
            token = token[: -len("_x100")]
        return cls(kind=token, scale100=scale)

    def __str__(self) -> str:
        return self.kind + ("_x100" if self.scale100 else "")


@dataclass(frozen=True)
class Dataset:
    """Aligned observation block for the conditional-likelihood model.

    ``y`` holds the effective sample (after dropping ``p`` presample rows)
    and ``x`` the matching design rows ``[y_{t-1}, ..., y_{t-p}, d_t]``,
    whose last ``d_dim`` columns are the deterministic terms.  ``presample``
    holds the ``p`` dropped rows, oldest first.  ``dates`` are opaque row
    labels.
    """

    y: np.ndarray
    x: np.ndarray
    p: int
    presample: np.ndarray
    names: tuple[str, ...] = ()
    dates: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        y, x = np.asarray(self.y), np.asarray(self.x)
        if y.ndim != 2 or x.ndim != 2:
            raise ValueError("y and x must be 2-D arrays")
        T, N = y.shape
        if x.shape[0] != T or x.shape[1] < N * self.p:
            raise ValueError(
                f"design shape {x.shape} needs {T} rows and at least N*p = {N * self.p} columns"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("non-finite values in dataset")

    @property
    def T(self) -> int:
        return self.y.shape[0]

    @property
    def N(self) -> int:
        return self.y.shape[1]

    @property
    def d_dim(self) -> int:
        return self.x.shape[1] - self.N * self.p

    @property
    def n_coefficients(self) -> int:
        return self.N * self.p + self.d_dim


def apply_transforms(raw: np.ndarray, transforms: list[ColumnTransform]) -> np.ndarray:
    """Apply per-column transforms; log differencing drops the first row globally."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != len(transforms):
        raise ValueError("one transform per column required")
    needs_diff = any(tr.kind == "logdiff" for tr in transforms)
    cols = []
    for j, tr in enumerate(transforms):
        col = raw[:, j]
        if tr.kind in ("log", "logdiff"):
            if np.any(col <= 0):
                raise ValueError(f"column {j} not strictly positive, cannot take logs")
            col = np.log(col)
        if tr.kind == "logdiff":
            col = np.diff(col)
        elif needs_diff:
            col = col[1:]
        if tr.scale100:
            col = 100.0 * col
        cols.append(col)
    return np.column_stack(cols)


def build_design(
    y_raw: np.ndarray,
    d_raw: np.ndarray,
    p: int,
    *,
    names: tuple[str, ...] = (),
    dates: tuple[str, ...] = (),
) -> Dataset:
    """Trim ``p`` presample rows and assemble lagged design rows."""
    y_raw = np.asarray(y_raw, dtype=float)
    d_raw = np.asarray(d_raw, dtype=float)
    T_raw, N = y_raw.shape
    d_dim = d_raw.shape[1]
    if d_raw.shape[0] != T_raw:
        raise ValueError(f"deterministic block has {d_raw.shape[0]} rows but y has {T_raw}")
    if p < 1:
        raise ValueError("at least one lag required")
    if T_raw <= N * p + d_dim:
        raise ValueError(
            f"sample of {T_raw} rows too short for N={N}, p={p}, d_dim={d_dim}"
        )
    T = T_raw - p
    x = np.empty((T, N * p + d_dim))
    for lag in range(1, p + 1):
        x[:, (lag - 1) * N : lag * N] = y_raw[p - lag : T_raw - lag]
    x[:, N * p :] = d_raw[p:]
    return Dataset(
        y=y_raw[p:],
        x=x,
        p=p,
        names=tuple(names),
        dates=tuple(dates[p:]) if dates else (),
        presample=y_raw[:p].copy(),
    )


def empty_dataset(N: int, p: int) -> Dataset:
    """Zero-length dataset with an intercept, used for prior-only runs of the sampler."""
    return Dataset(
        y=np.zeros((0, N)),
        x=np.zeros((0, N * p + 1)),
        p=p,
        names=tuple(f"y{i + 1}" for i in range(N)),
        presample=np.zeros((p, N)),
    )


def read_csv_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a headed CSV with a leading date column; returns (names, dates, values)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a date column plus at least one series")
        names = [h.strip() for h in header[1:]]
        dates: list[str] = []
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            dates.append(row[0].strip())
            parsed = []
            for j, cell in enumerate(row[1:], start=2):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i}, column {j}: cannot parse {cell!r} as a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, dates, np.asarray(rows)


def load_dataset(
    path: str,
    p: int,
    transforms: dict[str, ColumnTransform] | None = None,
    *,
    variables: list[str] | None = None,
    det_columns: list[str] | None = None,
) -> Dataset:
    """Load a CSV, apply transforms, and build the lagged design.

    ``variables`` selects and orders the modelled series (default: every
    non-deterministic column in file order).  Deterministic terms are an
    intercept column plus any columns named in ``det_columns``.
    """
    names, dates, values = read_csv_table(path)
    det_columns = det_columns or []
    for c in det_columns:
        if c not in names:
            raise ValueError(f"deterministic column {c!r} not in file")
    if variables is None:
        variables = [c for c in names if c not in det_columns]
    missing = [c for c in variables if c not in names]
    if missing:
        raise ValueError(f"variables not in file: {missing}")
    transforms = transforms or {}
    unknown = [c for c in transforms if c not in names]
    if unknown:
        raise ValueError(f"transforms reference unknown columns: {unknown}")
    col_idx = [names.index(c) for c in variables]
    trs = [transforms.get(c, ColumnTransform()) for c in variables]
    y_raw = apply_transforms(values[:, col_idx], trs)
    rows_lost = values.shape[0] - y_raw.shape[0]
    dates = dates[rows_lost:]
    det = np.ones((y_raw.shape[0], 1 + len(det_columns)))
    for k, c in enumerate(det_columns):
        det[:, 1 + k] = values[rows_lost:, names.index(c)]
    return build_design(y_raw, det, p, names=tuple(variables), dates=tuple(dates))
