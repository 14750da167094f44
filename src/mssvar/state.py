"""Complete parameter snapshot for the Gibbs sampler, and the table of its
stored blocks."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .priors import ShrinkageChain


@dataclass(frozen=True)
class Block:
    """One per-draw block of the sampler state.

    ``attr`` is the (possibly dotted) attribute path on ``ParameterState``.
    ``dims`` are symbols over N, M, J (coefficients per equation) and T; an
    empty ``dims`` is a scalar, stored as a one-element row.  Every ``M``
    axis indexes regimes, and ``labels`` marks values that are regime labels.
    """

    name: str
    attr: str
    dims: tuple[str, ...]
    labels: bool = False

    def shape(self, sizes: dict[str, int]) -> tuple[int, ...]:
        return tuple(sizes[d] for d in self.dims)


# the single definition of what a stored draw holds, in store order
BLOCKS = (
    Block("A", "A", ("N", "J")),
    Block("B", "B", ("M", "N", "N")),
    Block("kappa", "kappa", ("N", "M")),  # pattern indices, zero for fixed equations
    Block("s", "s", ("T",), labels=True),
    Block("P", "P", ("M", "M")),
    Block("pi0", "pi0", ("M",)),
    Block("h", "h", ("N", "T")),
    Block("omega", "omega", ("N", "M")),
    Block("rho", "rho", ("N",)),
    Block("sigma2_omega", "sigma2_omega", ("N",)),
    Block("gamma_B", "shrink_B.gamma", ("N",)),
    Block("s_B", "shrink_B.s", ("N",)),
    Block("s_gamma_B", "shrink_B.s_gamma", ()),
    Block("gamma_A", "shrink_A.gamma", ("N",)),
    Block("s_A", "shrink_A.s", ("N",)),
    Block("s_gamma_A", "shrink_A.s_gamma", ()),
    Block("omega_mean", "omega_mean", ("N", "M")),  # conditional posterior moments
    Block("omega_var", "omega_var", ("N", "M")),    # of the loadings at the draw
    Block("logml", "logml", ()),
)


def block_sizes(config: ModelConfig, T: int) -> dict[str, int]:
    """Values of the dimension symbols used in ``Block.dims``."""
    return {"N": config.N, "M": config.M, "J": config.n_coefficients, "T": T}


@dataclass
class ParameterState:
    """One full set of model unknowns, latent paths included.

    Field shapes are given by ``BLOCKS``.
    """

    A: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    s: np.ndarray
    P: np.ndarray
    pi0: np.ndarray
    h: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    sigma2_omega: np.ndarray
    shrink_B: ShrinkageChain
    shrink_A: ShrinkageChain
    omega_mean: np.ndarray
    omega_var: np.ndarray
    logml: float = 0.0

    def validate(self, config: ModelConfig, T: int) -> None:
        """Raise if any structural invariant is broken."""
        N, M = config.N, config.M
        sizes = block_sizes(config, T)
        for blk in BLOCKS:
            arr = np.asarray(operator.attrgetter(blk.attr)(self))
            shape = blk.shape(sizes)
            if arr.shape != shape:
                raise ValueError(f"{blk.name} has shape {arr.shape}, expected {shape}")
            if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
                raise ValueError(f"{blk.name} contains non-finite values")
        if np.any(np.abs(self.P.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition matrix rows must sum to one")
        if np.any(self.P < 0) or np.any(self.pi0 < 0):
            raise ValueError("negative probabilities")
        if abs(self.pi0.sum() - 1.0) > 1e-12:
            raise ValueError("initial regime probabilities must sum to one")
        if T and (self.s.min() < 0 or self.s.max() >= M):
            raise ValueError("regime path out of range")
        if np.any(self.sigma2_omega <= 0):
            raise ValueError("loading variances must be positive")
        if np.any(np.abs(self.rho) >= 1.0):
            raise ValueError("volatility persistence must lie in (-1, 1)")
        for n in range(N):
            K = config.patterns.K(n)
            if self.kappa[n].min() < 0 or self.kappa[n].max() >= K:
                raise ValueError(f"equation {n + 1}: pattern index out of range")
            for m in range(M):
                pat = config.patterns.equations[n][self.kappa[n, m]]
                restricted = ~np.asarray(pat.mask)
                if np.any(self.B[m, n, restricted] != 0.0):
                    raise ValueError(
                        f"equation {n + 1}, regime {m + 1}: restricted entries are non-zero"
                    )
        for m in range(M):
            sign, _ = np.linalg.slogdet(self.B[m])
            if sign == 0:
                raise ValueError(f"structural matrix for regime {m + 1} is singular")
