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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regimes
from .config import ModelConfig
from .data import Dataset, build_design
from .engine import gibbs_sweep
from .patterns import apply_pattern
from .priors import ShrinkageChain, sample_gamma
from .simulate import DgpTruth, simulate_observations, simulate_regimes, simulate_volatility
from .state import ParameterState
from .var import minnesota_moments


def prior_draw(config: ModelConfig, T: int, rng: np.random.Generator) -> ParameterState:
    """Ancestral draw of every unknown, hierarchy first.

    ``P`` and ``pi0`` are the sweep's own Dirichlet draws given an empty
    regime path, which are their priors.
    """
    N, M = config.N, config.M
    shrink_B = ShrinkageChain.from_prior(
        N, rng, nu=config.nu_B, nu_gamma=config.nu_gamma_B, s_s=config.s_s_B, nu_s=config.nu_s_B
    )
    shrink_A = ShrinkageChain.from_prior(
        N, rng, nu=config.nu_A, nu_gamma=config.nu_gamma_A, s_s=config.s_s_A, nu_s=config.nu_s_A
    )
    mean_rows, omega_diag = minnesota_moments(N, config.p, config.d_dim)
    A = mean_rows + np.sqrt(shrink_A.gamma[:, None] * omega_diag[None, :]) * rng.standard_normal(
        mean_rows.shape
    )
    no_path = np.zeros(0, dtype=np.int64)
    P = regimes.draw_transition_matrix(no_path, M, config.d_m, rng)
    pi0 = regimes.draw_initial_probabilities(no_path, M, rng)
    s = simulate_regimes(pi0, P, T, rng)
    sigma2_omega = sample_gamma(config.omega_shape, config.omega_scale, rng, size=N)
    if config.fix_omega_at_zero:
        omega = np.zeros((N, M))
    else:
        omega = np.sqrt(sigma2_omega)[:, None] * rng.standard_normal((N, M))
    rho = -1.0 + 2.0 * rng.random(N)
    h = simulate_volatility(rho, np.zeros(N), T, rng)
    kappa = np.zeros((N, M), dtype=np.int64)
    B = np.zeros((M, N, N))
    for n in range(N):
        K = config.patterns.K(n)
        for m in range(M):
            k = int(rng.integers(K)) if K > 1 else 0
            kappa[n, m] = k
            pat = config.patterns.equations[n][k]
            b = np.sqrt(shrink_B.gamma[n]) * rng.standard_normal(pat.r)
            B[m, n, :] = apply_pattern(b, pat)
    return ParameterState(
        A=A,
        B=B,
        kappa=kappa,
        s=s,
        P=P,
        pi0=pi0,
        h=h,
        omega=omega,
        rho=rho,
        sigma2_omega=sigma2_omega,
        shrink_B=shrink_B,
        shrink_A=shrink_A,
        omega_mean=np.zeros((N, M)),
        omega_var=np.tile(sigma2_omega[:, None], (1, M)),
        logml=0.0,
    )


def simulate_given_state(
    state: ParameterState, config: ModelConfig, presample: np.ndarray, rng: np.random.Generator
) -> Dataset:
    """Fresh observations given the state's parameters and latent paths."""
    truth = DgpTruth(A=state.A, B=state.B, P=state.P, pi0=state.pi0,
                     omega=state.omega, rho=state.rho)
    y, _ = simulate_observations(truth, state.s, state.h, presample, rng)
    y_raw = np.vstack([presample, y])
    return build_design(y_raw, np.ones((y_raw.shape[0], 1)), config.p)


def _statistics(state: ParameterState, config: ModelConfig) -> dict[str, float]:
    stats: dict[str, float] = {}
    N, M = config.N, config.M
    for n in range(N):
        for m in range(M):
            w = float(state.omega[n, m])
            stats[f"omega[{n},{m}]"] = w
            stats[f"omega2[{n},{m}]"] = w * w
            # folded moment: lighter-tailed than the square, more power
            # against variance corruption of the loadings draw
            stats[f"omega_abs[{n},{m}]"] = abs(w)
            # conditional second moment; same expectation as omega2 with
            # the draw noise integrated out
            stats[f"omega2rb[{n},{m}]"] = float(
                state.omega_mean[n, m] ** 2 + state.omega_var[n, m]
            )
    # pooled spread of the loadings: per-entry noise averages out, so these
    # carry the most power against a miscalibrated loadings draw
    stats["omega_abs_sum"] = float(np.abs(state.omega).sum())
    stats["omega2_sum"] = float((state.omega ** 2).sum())
    for n in range(N):
        stats[f"gamma_B[{n}]"] = float(state.shrink_B.gamma[n])
        stats[f"sigma2_omega[{n}]"] = float(state.sigma2_omega[n])
    stats["gamma_A[0]"] = float(state.shrink_A.gamma[0])
    stats["rho[0]"] = float(state.rho[0])
    stats["P[0,0]"] = float(state.P[0, 0])
    stats["pi0[0]"] = float(state.pi0[0])
    stats["A[0,0]"] = float(state.A[0, 0])
    stats["A2[0,0]"] = float(state.A[0, 0] ** 2)
    stats["A[0,last]"] = float(state.A[0, -1])
    b0 = float(state.B[0, 0, 0])
    stats["Btanh[0,0,0]"] = float(np.tanh(b0))
    stats["B2[0,0,0]"] = b0 * b0
    for n in config.patterns.tvi_equations:
        for m in range(M):
            stats[f"kappa0[{n},{m}]"] = float(state.kappa[n, m] == 0)
    stats["s_frac[0]"] = float(np.mean(state.s == 0))
    stats["h_tanh[0,last]"] = float(np.tanh(state.h[0, -1]))
    return stats


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
    omega_sd_inflation: float = 1.0,
    batches: int = 50,
) -> GewekeResult:
    """Run both simulators and compare moments.

    The prior side makes ``iterations`` independent draws, so its standard
    error is the plain iid one.  The Gibbs side makes ``batches``
    independent successive-conditional runs of ``iterations // batches``
    cycles, each started from a fresh exact joint draw of parameters and
    data; its standard error comes from the spread of the run means, which
    stays valid however slowly a single run mixes.  ``omega_sd_inflation``
    corrupts the loadings draw on the Gibbs side only, for mutation
    testing.
    """
    if not 1 <= batches <= iterations:
        raise ValueError(f"need 1 <= batches <= iterations, got {batches} and {iterations}")
    if T < 1:  # the regime share and the last log volatility need a period
        raise ValueError(f"need T >= 1, got {T}")
    rng_mc, rng_sc = rng.spawn(2)
    presample = np.zeros((config.p, config.N))

    mc_rows = []
    for _ in range(iterations):
        state = prior_draw(config, T, rng_mc)
        mc_rows.append(_statistics(state, config))

    sc_rows = []
    for _ in range(batches):
        state = prior_draw(config, T, rng_sc)
        data = simulate_given_state(state, config, presample, rng_sc)
        for _ in range(iterations // batches):
            gibbs_sweep(state, data, config, rng_sc, omega_sd_inflation=omega_sd_inflation)
            data = simulate_given_state(state, config, presample, rng_sc)
            sc_rows.append(_statistics(state, config))

    z_scores = {}
    for name in mc_rows[0]:
        a = np.array([row[name] for row in mc_rows])
        b = np.array([row[name] for row in sc_rows])
        se_a = float(np.sqrt(a.var(ddof=1) / a.shape[0]))
        se_b = _batch_se(b, batches)
        denom = np.hypot(se_a, se_b)
        z_scores[name] = float((a.mean() - b.mean()) / denom) if denom > 0 else 0.0
    return GewekeResult(z_scores=z_scores)
