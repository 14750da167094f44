"""Joint-distribution test of the sampler (prior simulator vs. Gibbs cycle).

Two routes to the same joint law of (parameters, data): independent draws
from prior and data simulator, versus successive-conditional runs that
alternate one Gibbs sweep with a fresh data simulation given the current
parameters (Geweke 2004, "Getting it right", JASA 99).  Each run starts
from an exact joint draw, so under a correct sampler it is stationary from
its first sweep and the run means are independent and identically
distributed.  Matching moments of monitored statistics (z-scores from the
iid standard error of the prior side and the between-run standard error of
the Gibbs side) is a necessary condition for every conditional update being
correct.

The prior side is one batch: ``prior_draws`` draws every state at once, one
distribution at a time, and ``prior_draw`` is that batch with one state, so
the Gibbs side's starts consume the generator as a single draw does.  The
Gibbs side records each cycle's state in a draw store, and ``_statistics``
takes the stacked draws of either side, with the bits of the statistics of
one draw taken alone.

The test has power only if it fails a broken sampler.  A mutation test
corrupts one conditional on the Gibbs side by substituting its module
attribute while the test runs, for example
``functools.partial(sv.draw_omega, sd_inflation=2 ** 0.5)`` for
``sv.draw_omega``; the prior side never calls the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import regimes
from .config import ModelConfig
from .data import Dataset, build_design
from .engine import gibbs_sweep
from .priors import ShrinkageChain, category_sum, sample_gamma, sample_ig2
from .simulate import DgpTruth, simulate_observations, simulate_regimes, simulate_volatility
from .state import BLOCKS, ParameterState
from .store import allocate_store, record_draw
from .var import minnesota_moments


def prior_draws(
    config: ModelConfig, T: int, rng: np.random.Generator, n: int
) -> dict[str, np.ndarray]:
    """``n`` independent ancestral draws of every unknown, hierarchy first.

    Returns one stacked array per block of ``state.BLOCKS``, keyed by block
    name, with the draws on the first axis (a scalar block is (n,)).  Each
    distribution is drawn for all n states in one call: both shrinkage
    chains, ``A``, ``P`` and ``pi0`` (the sweep's Dirichlet draws given an
    empty regime path, which are their priors), the regime paths, the
    loading variances, loadings and persistences, the log-volatility paths,
    then per equation and regime the pattern indices and one flat normal
    draw of every state's free coefficients.  With n = 1 this consumes the
    generator as one draw at a time does, and returns the same bits.
    """
    N, M = config.N, config.M
    draws: dict[str, np.ndarray] = {}
    for tag, hyper in config.shrinkage_priors().items():
        s_gamma = sample_ig2(hyper["s_s"], hyper["nu_s"], rng, size=n)
        # a unit-scale variate times the scale is numpy's gamma draw, bit for bit
        s = s_gamma[:, None] * sample_gamma(hyper["nu_gamma"], 1.0, rng, size=(n, N))
        draws[f"gamma_{tag}"] = sample_ig2(s, hyper["nu"], rng, size=(n, N))
        draws[f"s_{tag}"], draws[f"s_gamma_{tag}"] = s, s_gamma
    mean_rows, omega_diag = minnesota_moments(N, config.p, config.d_dim)
    draws["A"] = mean_rows + np.sqrt(
        draws["gamma_A"][:, :, None] * omega_diag[None, None, :]
    ) * rng.standard_normal((n, *mean_rows.shape))
    alpha = regimes.transition_posterior_alpha(np.zeros(0, dtype=np.int64), M, config.d_m)
    draws["P"] = np.stack([rng.dirichlet(alpha[m], size=n) for m in range(M)], axis=1)
    draws["pi0"] = rng.dirichlet(np.ones(M), size=n)
    draws["s"] = simulate_regimes(draws["pi0"], draws["P"], T, rng)
    sigma2_omega = sample_gamma(config.omega_shape, config.omega_scale, rng, size=(n, N))
    if config.fix_omega_at_zero:
        omega = np.zeros((n, N, M))
    else:
        omega = np.sqrt(sigma2_omega)[:, :, None] * rng.standard_normal((n, N, M))
    draws["sigma2_omega"], draws["omega"] = sigma2_omega, omega
    draws["rho"] = -1.0 + 2.0 * rng.random((n, N))
    draws["h"] = simulate_volatility(draws["rho"], np.zeros(N), T, rng)
    kappa = np.zeros((n, N, M), dtype=np.int64)
    B = np.zeros((n, M, N, N))
    root_gamma = np.sqrt(draws["gamma_B"])
    for eq, candidates in enumerate(config.patterns.equations):
        masks = np.array([pat.mask for pat in candidates])
        for m in range(M):
            if len(candidates) > 1:
                kappa[:, eq, m] = rng.integers(len(candidates), size=n)
            free = masks[kappa[:, eq, m]]
            # a boolean mask fills state by state, each in column order: the
            # order of the states' free coefficients in the flat draw
            z = rng.standard_normal(int(free.sum()))
            B[:, m, eq][free] = np.repeat(root_gamma[:, eq], free.sum(axis=1)) * z
    draws["kappa"], draws["B"] = kappa, B
    draws["omega_mean"] = np.zeros((n, N, M))
    draws["omega_var"] = np.repeat(sigma2_omega[:, :, None], M, axis=2)
    draws["logml"] = np.zeros(n)
    return draws


def prior_draw(config: ModelConfig, T: int, rng: np.random.Generator) -> ParameterState:
    """One ancestral draw of every unknown: ``prior_draws`` with n = 1."""
    draws = prior_draws(config, T, rng, 1)
    # keyword arguments by owner: "" for the state, then one per shrinkage
    # chain, which also takes its hyperparameters
    parts = {"": {}, **{f"shrink_{tag}": dict(hyper)
                        for tag, hyper in config.shrinkage_priors().items()}}
    for blk in BLOCKS:
        value = draws[blk.name][0]
        owner, _, attr = blk.attr.rpartition(".")
        parts[owner][attr] = value if blk.dims else float(value)
    fields = parts.pop("")
    return ParameterState(**fields, **{name: ShrinkageChain(**kw) for name, kw in parts.items()})


def simulate_given_state(
    state: ParameterState, config: ModelConfig, presample: np.ndarray, rng: np.random.Generator
) -> Dataset:
    """Fresh observations given the state's parameters and latent paths."""
    truth = DgpTruth(A=state.A, B=state.B, P=state.P, pi0=state.pi0,
                     omega=state.omega, rho=state.rho)
    y, _ = simulate_observations(truth, state.s, state.h, presample, rng)
    y_raw = np.vstack([presample, y])
    return build_design(y_raw, np.ones((y_raw.shape[0], 1)), config.p)


# libm's pow(x, 2), which a scalar ``x ** 2`` calls; numpy's array power
# rounds about one square in a thousand differently
_libm_square = np.frompyfunc(lambda x: math.pow(x, 2.0), 1, 1)


def _statistics(draws: dict[str, np.ndarray], config: ModelConfig) -> dict[str, np.ndarray]:
    """The monitored statistics of stacked draws, one array per statistic
    with the draws in order.

    ``draws`` holds blocks of ``state.BLOCKS`` by name, with the draws on
    the first axis, as ``prior_draws`` returns them or a draw store records
    them.  Each value has the bits of the same statistic of one draw taken
    alone.
    """
    stats: dict[str, np.ndarray] = {}
    N, M = config.N, config.M
    omega = draws["omega"]
    for n in range(N):
        for m in range(M):
            w = omega[:, n, m]
            stats[f"omega[{n},{m}]"] = w
            stats[f"omega2[{n},{m}]"] = w * w
            # folded moment: lighter-tailed than the square, more power
            # against variance corruption of the loadings draw
            stats[f"omega_abs[{n},{m}]"] = np.abs(w)
            # conditional second moment; same expectation as omega2 with
            # the draw noise integrated out
            mean2 = _libm_square(draws["omega_mean"][:, n, m]).astype(float)
            stats[f"omega2rb[{n},{m}]"] = mean2 + draws["omega_var"][:, n, m]
    # pooled spread of the loadings: per-entry noise averages out, so these
    # carry the most power against a miscalibrated loadings draw; summed in
    # the order of a sum over one draw's entries
    entries = omega.reshape(omega.shape[0], N * M).T
    stats["omega_abs_sum"] = category_sum(np.abs(entries))
    stats["omega2_sum"] = category_sum(entries**2)
    for n in range(N):
        stats[f"gamma_B[{n}]"] = draws["gamma_B"][:, n]
        stats[f"sigma2_omega[{n}]"] = draws["sigma2_omega"][:, n]
    stats["gamma_A[0]"] = draws["gamma_A"][:, 0]
    stats["rho[0]"] = draws["rho"][:, 0]
    stats["P[0,0]"] = draws["P"][:, 0, 0]
    stats["pi0[0]"] = draws["pi0"][:, 0]
    a00 = draws["A"][:, 0, 0]
    stats["A[0,0]"] = a00
    stats["A2[0,0]"] = _libm_square(a00).astype(float)
    stats["A[0,last]"] = draws["A"][:, 0, -1]
    b0 = draws["B"][:, 0, 0, 0]
    stats["Btanh[0,0,0]"] = np.tanh(b0)
    stats["B2[0,0,0]"] = b0 * b0
    for n in config.patterns.tvi_equations:
        for m in range(M):
            stats[f"kappa0[{n},{m}]"] = draws["kappa"][:, n, m] == 0
    stats["s_frac[0]"] = np.mean(draws["s"] == 0, axis=-1)
    stats["h_tanh[0,last]"] = np.tanh(draws["h"][:, 0, -1])
    return {name: np.ascontiguousarray(value, dtype=float) for name, value in stats.items()}


@dataclass
class GewekeResult:
    z_scores: dict[str, float]

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores.values())


def _batch_se(series: np.ndarray, n_batches: int) -> float:
    """Standard error of the mean from equal non-overlapping batch means.

    The Gibbs side of ``geweke_joint_test`` lays the batches out as
    independent runs, each started from an exact joint draw, so the batch
    means are iid and the estimate stays unbiased however strongly the
    draws within a run are autocorrelated; the standardized mean is then
    close to t with ``n_batches - 1`` degrees of freedom.
    """
    bm = series.reshape(n_batches, -1).mean(axis=1)
    return float(np.sqrt(bm.var(ddof=1) / n_batches))


def geweke_joint_test(
    config: ModelConfig,
    iterations: int,
    rng: np.random.Generator,
    *,
    T: int = 30,
    batches: int = 50,
) -> GewekeResult:
    """Run both simulators and compare moments.

    The prior side makes ``iterations`` independent draws, so its standard
    error is the plain iid one.  The Gibbs side makes ``batches``
    independent successive-conditional runs of ``iterations // batches``
    cycles, each started from a fresh exact joint draw of parameters and
    data; its standard error comes from the spread of the run means, which
    stays valid however slowly a single run mixes.
    """
    if not 1 <= batches <= iterations:
        raise ValueError(f"need 1 <= batches <= iterations, got {batches} and {iterations}")
    if T < 1:  # the regime share and the last log volatility need a period
        raise ValueError(f"need T >= 1, got {T}")
    rng_mc, rng_sc = rng.spawn(2)
    presample = np.zeros((config.p, config.N))

    prior_side = _statistics(prior_draws(config, T, rng_mc, iterations), config)

    cycles = iterations // batches
    record = allocate_store(config, T, batches * cycles)
    for run in range(batches):
        state = prior_draw(config, T, rng_sc)
        data = simulate_given_state(state, config, presample, rng_sc)
        for cycle in range(cycles):
            gibbs_sweep(state, data, config, rng_sc)
            data = simulate_given_state(state, config, presample, rng_sc)
            record_draw(record, run * cycles + cycle, state)
    gibbs_side = _statistics(record.blocks, config)

    z_scores = {}
    for name, a in prior_side.items():
        b = gibbs_side[name]
        se_a = float(np.sqrt(a.var(ddof=1) / a.shape[0]))
        se_b = _batch_se(b, batches)
        denom = np.hypot(se_a, se_b)
        z_scores[name] = float((a.mean() - b.mean()) / denom) if denom > 0 else 0.0
    return GewekeResult(z_scores=z_scores)
