"""Model configuration and the flat key-value config file format."""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, fields, replace

from .data import ColumnTransform
from .patterns import PatternSet, build_pattern_set, parse_pattern


@dataclass(frozen=True)
class ModelConfig:
    """Everything a chain needs besides the data.

    Hyperparameter defaults follow the benchmark setup: heavy-tailed
    hierarchical shrinkage on both the structural and autoregressive
    coefficients, a persistent-regime Dirichlet prior, and a unit-scale
    gamma prior on the volatility-loading variance.
    """

    N: int
    p: int = 1
    M: int = 1
    d_dim: int = 1
    patterns: PatternSet | None = None
    # structural-coefficient shrinkage chain
    nu_B: float = 10.0
    nu_gamma_B: float = 10.0
    s_s_B: float = 100.0
    nu_s_B: float = 1.0
    # autoregressive shrinkage chain
    nu_A: float = 10.0
    nu_gamma_A: float = 10.0
    s_s_A: float = 10.0
    nu_s_A: float = 10.0
    # regime persistence: prior adds d_m to the diagonal transition count
    d_m: float = 11.0
    # volatility loading variance prior, Gamma(shape, scale)
    omega_shape: float = 1.0
    omega_scale: float = 1.0
    fix_omega_at_zero: bool = False
    # chain controls
    draws: int = 10_000
    burnin: int = 5_000
    thin: int = 1
    seed: int = 0
    chains: int = 1
    variables: tuple[str, ...] = ()
    det_columns: tuple[str, ...] = ()
    transforms: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.N < 1 or self.p < 1 or self.M < 1 or self.d_dim < 1:
            raise ValueError("N, p, M and d_dim must be positive")
        if self.draws < 1 or self.burnin < 0 or self.thin < 1 or self.chains < 1:
            raise ValueError("invalid chain controls")
        if self.patterns is None:
            object.__setattr__(self, "patterns", build_pattern_set(None, self.N))
        if self.patterns.N != self.N:
            raise ValueError("pattern set does not match N")
        for f in fields(self):
            if type(f.default) is float and f.name != "d_m" and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.d_m < 0:
            raise ValueError("d_m must be non-negative")

    @property
    def n_coefficients(self) -> int:
        return self.N * self.p + self.d_dim

    def transform_map(self) -> dict[str, ColumnTransform]:
        return {name: ColumnTransform.parse(tok) for name, tok in self.transforms}

    def with_updates(self, **kw) -> "ModelConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON-ready fields: tuples become lists, patterns their spec strings."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        out["patterns"] = [[pat.spec for pat in eq] for eq in self.patterns.equations]
        return out

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        pats = d.pop("patterns", None)
        if pats is not None:
            d["patterns"] = PatternSet(
                equations=tuple(tuple(parse_pattern(p) for p in eq) for eq in pats)
            )
        for f in fields(cls):
            if isinstance(f.default, tuple) and f.name in d:
                d[f.name] = _tupled(d[f.name])
        return cls(**d)


def _plain(val):
    return [_plain(v) for v in val] if isinstance(val, tuple) else val


def _tupled(val):
    return tuple(_tupled(v) for v in val) if isinstance(val, (list, tuple)) else val


_PARSERS = {
    bool: lambda val: val.strip().lower() in ("1", "true", "yes"),
    int: int,
    float: float,
}
# [model] sets N, p, M and d_dim; every other field with a number or flag
# default is a [priors] or [chain] key, read as the type of its default
_SECTION_KEYS = {
    f.name: _PARSERS[type(f.default)]
    for f in fields(ModelConfig)
    if type(f.default) in _PARSERS and f.name not in ("p", "M", "d_dim")
}
_MODEL_KEYS = ("variables", "lags", "regimes", "det_columns")
_SECTIONS = ("model", "priors", "chain", "transforms", "patterns")


def parse_config(text: str) -> ModelConfig:
    """Parse the sectioned key-value config format.

    Sections: ``[model]`` (variables, lags, regimes, det_columns),
    ``[priors]``, ``[chain]``, ``[transforms]`` (column = kind, kinds are
    none / log / logdiff with optional ``_x100`` suffix), and
    ``[patterns]`` (eq<i> = comma-separated pattern strings over ``{*, 0}``).
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}]; the sections are "
                             + ", ".join(f"[{name}]" for name in _SECTIONS))
    kw: dict = {}
    model = cp["model"] if cp.has_section("model") else {}
    for key in model:
        if key not in _MODEL_KEYS:
            raise ValueError(f"unknown key {key!r} in [model]; the keys are "
                             + ", ".join(_MODEL_KEYS))
    if "variables" not in model:
        raise ValueError("config needs [model] variables = ...")
    variables = tuple(v.strip() for v in model["variables"].split(",") if v.strip())
    kw["variables"] = variables
    kw["N"] = len(variables)
    kw["p"] = int(model.get("lags", 1))
    kw["M"] = int(model.get("regimes", 1))
    det = tuple(v.strip() for v in model.get("det_columns", "").split(",") if v.strip())
    kw["det_columns"] = det
    kw["d_dim"] = 1 + len(det)

    for section in ("priors", "chain"):
        if not cp.has_section(section):
            continue
        for key, val in cp[section].items():
            if key not in _SECTION_KEYS:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            kw[key] = _SECTION_KEYS[key](val)

    if cp.has_section("transforms"):
        trs = []
        for key, val in cp["transforms"].items():
            if key not in variables:
                raise ValueError(f"[transforms] references unknown variable {key!r}")
            ColumnTransform.parse(val)  # validate
            trs.append((key, val.strip().lower()))
        kw["transforms"] = tuple(trs)

    declarations: dict[int, list[str]] = {}
    if cp.has_section("patterns"):
        for key, val in cp["patterns"].items():
            if not key.startswith("eq"):
                raise ValueError(f"[patterns] keys look like eq<i>, got {key!r}")
            try:
                n = int(key[2:]) - 1
            except ValueError:
                raise ValueError(f"[patterns] keys look like eq<i>, got {key!r}") from None
            declarations[n] = [s.strip() for s in val.split(",") if s.strip()]
    kw["patterns"] = build_pattern_set(declarations, kw["N"])

    return ModelConfig(**kw)


def load_config(path: str) -> ModelConfig:
    with open(path) as fh:
        return parse_config(fh.read())
