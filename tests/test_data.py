"""Column transforms, lagged-design assembly, and CSV loading."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mssvar.data import (
    ColumnTransform,
    Dataset,
    apply_transforms,
    build_design,
    empty_dataset,
    load_dataset,
    read_csv_table,
)


def test_transform_none_is_identity():
    raw = np.array([[1.0, -2.0], [3.0, 4.0]])
    out = apply_transforms(raw, [ColumnTransform(), ColumnTransform()])
    assert_allclose(out, raw)


def test_logdiff_x100_single_step():
    raw = np.array([[100.0], [101.0]])
    out = apply_transforms(raw, [ColumnTransform.parse("logdiff_x100")])
    expected = 100.0 * (np.log(101.0) - np.log(100.0))
    assert out.shape == (1, 1)
    assert_allclose(out[0, 0], expected)
    assert abs(out[0, 0] - 0.99503) < 5e-6


def test_logdiff_trims_every_column():
    # one differenced column shortens the whole panel by a row
    raw = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 40.0]])
    out = apply_transforms(raw, [ColumnTransform(), ColumnTransform.parse("logdiff")])
    assert out.shape == (2, 2)
    assert_allclose(out[:, 0], [2.0, 3.0])
    assert_allclose(out[:, 1], [np.log(2.0), np.log(2.0)])


def test_log_requires_positive_values():
    raw = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="positive"):
        apply_transforms(raw, [ColumnTransform.parse("log")])


def test_transform_parse_round_trip():
    for token in ("none", "log", "logdiff", "log_x100", "logdiff_x100"):
        assert str(ColumnTransform.parse(token)) == token
    with pytest.raises(ValueError):
        ColumnTransform.parse("difference")


def test_build_design_layout():
    # N=2, p=2, 10 raw rows: effective sample of 8, rows [y_{t-1}, y_{t-2}, 1]
    y_raw = np.arange(20, dtype=float).reshape(10, 2)
    d_raw = np.ones((10, 1))
    ds = build_design(y_raw, d_raw, p=2)
    assert ds.T == 8
    assert ds.x.shape == (8, 5)
    assert_allclose(ds.y[0], y_raw[2])
    assert_allclose(ds.x[0], np.concatenate([y_raw[1], y_raw[0], [1.0]]))
    assert_allclose(ds.x[3], np.concatenate([y_raw[4], y_raw[3], [1.0]]))
    assert_allclose(ds.presample, y_raw[:2])


def test_build_design_rejects_short_samples():
    y_raw = np.ones((5, 2))
    with pytest.raises(ValueError, match="too short"):
        build_design(y_raw, np.ones((5, 1)), p=2)
    with pytest.raises(ValueError, match="lag"):
        build_design(np.ones((10, 2)), np.ones((10, 1)), p=0)


def test_dataset_shape_validation():
    with pytest.raises(ValueError, match="design shape"):
        Dataset(y=np.ones((4, 2)), x=np.ones((4, 3)), p=2, presample=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="design shape"):
        Dataset(y=np.ones((4, 2)), x=np.ones((3, 5)), p=2, presample=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(y=np.array([[np.nan, 1.0]]), x=np.ones((1, 3)), p=1, presample=np.zeros((1, 2)))
    assert Dataset(y=np.ones((4, 2)), x=np.ones((4, 4)), p=2,
                   presample=np.zeros((2, 2))).d_dim == 0


def test_build_design_rejects_misaligned_deterministic_terms():
    with pytest.raises(ValueError, match="deterministic block has 7 rows but y has 8"):
        build_design(np.ones((8, 2)), np.ones((7, 1)), p=1)
    # a single row would broadcast over the design without the check
    with pytest.raises(ValueError, match="deterministic block has 2 rows but y has 8"):
        build_design(np.ones((8, 2)), np.ones((2, 1)), p=1)


def test_empty_dataset_supports_prior_runs():
    ds = empty_dataset(3, 2)
    assert ds.T == 0
    assert ds.N == 3
    assert ds.n_coefficients == 7
    assert ds.presample.shape == (2, 3)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "date,a,b\n"
        "2000-01,1.5,2.0\n"
        "2000-02,2.5,3.0\n"
        "2000-03,3.5,4.5\n"
        "2000-04,4.0,5.0\n"
    )
    names, dates, values = read_csv_table(str(path))
    assert names == ["a", "b"]
    assert dates[0] == "2000-01"
    assert_allclose(values, [[1.5, 2.0], [2.5, 3.0], [3.5, 4.5], [4.0, 5.0]])

    ds = load_dataset(str(path), p=1)
    assert ds.names == ("a", "b")
    assert ds.T == 3
    assert ds.dates == ("2000-02", "2000-03", "2000-04")
    assert_allclose(ds.x[0], [1.5, 2.0, 1.0])


def test_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a\n2000-01,1.0\n2000-02,oops\n")
    with pytest.raises(ValueError, match="row 3, column 2"):
        read_csv_table(str(path))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("date,a,b\n2000-01,1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        read_csv_table(str(ragged))


def test_load_dataset_variable_selection(tmp_path):
    path = tmp_path / "sel.csv"
    rows = ["date,a,b,dum"]
    for i in range(8):
        rows.append(f"r{i},{float(i)},{float(2 * i)},{float(i % 2)}")
    path.write_text("\n".join(rows) + "\n")

    ds = load_dataset(str(path), p=1, variables=["b", "a"], det_columns=["dum"])
    assert ds.names == ("b", "a")
    assert ds.d_dim == 2
    assert_allclose(ds.x[:, 2], 1.0)  # intercept first after the lags
    assert_allclose(ds.x[:, 3], [1, 0, 1, 0, 1, 0, 1])
    assert_allclose(ds.y[:, 0], 2.0 * np.arange(1, 8))

    with pytest.raises(ValueError, match="not in file"):
        load_dataset(str(path), p=1, variables=["zz"])
    with pytest.raises(ValueError, match="deterministic column"):
        load_dataset(str(path), p=1, det_columns=["zz"])
