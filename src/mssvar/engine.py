"""Gibbs sampler: initialization, the sweep, and chain orchestration."""

from __future__ import annotations

import numpy as np

from . import regimes, structural, sv, var
from .config import ModelConfig
from .data import Dataset
from .patterns import apply_pattern, extract_free
from .priors import ShrinkageChain, sample_gamma, update_shrinkage_chain
from .state import ParameterState
from .store import DrawStore, allocate_store, record_draw


def initialize_state(config: ModelConfig, dataset: Dataset, rng: np.random.Generator) -> ParameterState:
    """Deterministic-ish starting point: least squares for A, a triangular
    factor of the residual covariance for B, neutral latent paths."""
    N, M, T, J = config.N, config.M, dataset.T, config.n_coefficients
    if T > 0:
        sol, res, rank, _ = np.linalg.lstsq(dataset.x, dataset.y, rcond=None)
        if rank < J:
            raise ValueError(f"design matrix rank {rank} < {J}; cannot initialize")
        A = sol.T
        eps = dataset.y - dataset.x @ A.T
        cov = eps.T @ eps / T
        cov[np.diag_indices(N)] += 1e-8  # guard exact singularity
        B0 = np.linalg.inv(np.linalg.cholesky(cov))
    else:
        mean_rows, _ = var.minnesota_moments(N, config.p, config.d_dim)
        A = mean_rows
        B0 = np.eye(N)

    B = np.zeros((M, N, N))
    kappa = np.zeros((N, M), dtype=np.int64)
    for n in range(N):
        pat = config.patterns.equations[n][0]
        row = B0[n] * np.asarray(pat.mask)
        if not np.any(row):
            row = apply_pattern(np.ones(pat.r), pat)
        B[:, n, :] = row

    shrink_B = ShrinkageChain.at_prior_center(
        N, nu=config.nu_B, nu_gamma=config.nu_gamma_B, s_s=config.s_s_B, nu_s=config.nu_s_B
    )
    shrink_A = ShrinkageChain.at_prior_center(
        N, nu=config.nu_A, nu_gamma=config.nu_gamma_A, s_s=config.s_s_A, nu_s=config.nu_s_A
    )
    modal = int(np.argmax(sv.MIXTURE.probs))
    return ParameterState(
        A=A,
        B=B,
        kappa=kappa,
        s=rng.integers(0, M, size=T),
        P=(np.ones((M, M)) + config.d_m * np.eye(M)) / (M + config.d_m),
        pi0=np.full(M, 1.0 / M),
        h=np.zeros((N, T)),
        omega=np.zeros((N, M)) if config.fix_omega_at_zero else np.full((N, M), 0.1),
        rho=np.full(N, 0.5),
        sigma2_omega=np.ones(N) * config.omega_shape * config.omega_scale,
        indicators=np.full((N, T), modal, dtype=np.int64),
        shrink_B=shrink_B,
        shrink_A=shrink_A,
        omega_mean=np.zeros((N, M)),
        omega_var=np.ones((N, M)),
        logml=0.0,
    )


def gibbs_sweep(
    state: ParameterState,
    dataset: Dataset,
    config: ModelConfig,
    rng: np.random.Generator,
    *,
    omega_sd_inflation: float = 1.0,
) -> ParameterState:
    """One full pass over every conditional, updating the state in place."""
    N, M, T = config.N, config.M, dataset.T
    pats = config.patterns
    eps = dataset.y - dataset.x @ state.A.T  # (T, N)

    # (1) regime path
    if T > 0:
        loglik = regimes.regime_loglik_matrix(dataset, state.A, state.B, state.omega, state.h)
        if M == 1:
            state.s = np.zeros(T, dtype=np.int64)
            state.logml = float(loglik[:, 0].sum())
        else:
            filtered, state.logml = regimes.forward_filter(loglik, state.P, state.pi0)
            state.s = regimes.backward_sample(filtered, state.P, rng)
    else:
        state.s = np.zeros(0, dtype=np.int64)
        state.logml = 0.0
    s = state.s

    # (2) transition kernel and initial distribution
    state.P = regimes.draw_transition_matrix(s, M, config.d_m, rng)
    state.pi0 = regimes.draw_initial_probabilities(s, M, rng)

    # (3) mixture indicators for the volatility linearization
    if T > 0:
        U = np.einsum("tij,tj->ti", state.B[s], eps).T  # (N, T) structural residuals
        logu2 = sv.log_squared(U)
        state.indicators = sv.draw_mixture_indicators(logu2, state.omega, state.h, s, rng)
    else:
        logu2 = np.zeros((N, 0))
        state.indicators = np.zeros((N, 0), dtype=np.int64)

    # (4) log-volatility paths
    for n in range(N):
        state.h[n] = sv.draw_log_volatilities(
            logu2[n], state.indicators[n], state.omega[n], state.rho[n], s, rng
        )

    # (5) loadings, their variance, and persistence
    for n in range(N):
        if config.fix_omega_at_zero:
            state.omega[n] = 0.0
            state.omega_mean[n] = 0.0
            state.omega_var[n] = state.sigma2_omega[n]
            state.sigma2_omega[n] = sample_gamma(config.omega_shape, config.omega_scale, rng)
        else:
            omega_n, mean_n, var_n = sv.draw_omega(
                state.h[n], logu2[n], state.indicators[n], s, M,
                state.sigma2_omega[n], rng, sd_inflation=omega_sd_inflation,
            )
            state.omega[n] = omega_n
            state.omega_mean[n] = mean_n
            state.omega_var[n] = var_n
            state.sigma2_omega[n] = sv.draw_omega_variance(
                omega_n, config.omega_shape, config.omega_scale, rng
            )
        state.rho[n] = sv.draw_rho(state.h[n], rng)

    # (6) structural rows: restriction indicator (where applicable) then coefficients
    for m in range(M):
        sel = s == m
        T_m = int(sel.sum())
        eps_m = eps[sel]  # an empty regime leaves a zero cross-product
        for n in range(N):
            gamma = state.shrink_B.gamma[n]
            inv_sig = np.exp(-state.omega[n, m] * state.h[n, sel])
            crossprod = (eps_m * inv_sig[:, None]).T @ eps_m
            cof = structural.row_cofactors(state.B[m], n)
            candidates = pats.equations[n]
            mats = [(structural.row_posterior_precision(crossprod, pat.free_idx, gamma),
                     cof[pat.free_idx]) for pat in candidates]
            k = 0
            if len(candidates) > 1:
                logms = [structural.pattern_log_marginal(S, w, gamma, T_m) for S, w in mats]
                k = structural.draw_tvi_indicator(logms, rng)
            state.kappa[n, m] = k
            b = structural.draw_row_coefficients(*mats[k], T_m, rng)
            state.B[m, n, :] = apply_pattern(b, candidates[k])

    # (7) structural shrinkage hierarchy
    sum_sq = np.zeros(N)
    counts = np.zeros(N)
    for n in range(N):
        for m in range(M):
            pat = pats.equations[n][state.kappa[n, m]]
            b = extract_free(state.B[m, n], pat)
            sum_sq[n] += b @ b
            counts[n] += pat.r
    state.shrink_B = update_shrinkage_chain(state.shrink_B, sum_sq, counts, rng)

    # (8) autoregressive coefficients
    sigma2 = sv.conditional_variances(state.omega, state.h, s) if T > 0 else np.zeros((N, 0))
    state.A = var.draw_autoregressive(dataset, state.B, s, sigma2, state.shrink_A.gamma, rng)

    # (9) autoregressive shrinkage hierarchy
    mean_rows, omega_diag = var.minnesota_moments(N, config.p, config.d_dim)
    dev = state.A - mean_rows
    sum_sq_A = np.einsum("nj,j->n", dev * dev, 1.0 / omega_diag)
    counts_A = np.full(N, float(config.n_coefficients))
    state.shrink_A = update_shrinkage_chain(state.shrink_A, sum_sq_A, counts_A, rng)

    return state


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """Chain-indexed substream; identical regardless of execution layout."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain_id,)))


def run_chain(config: ModelConfig, dataset: Dataset, chain_id: int = 0) -> DrawStore:
    """Burn in, then record every ``thin``-th sweep into a draw store."""
    if (dataset.N, dataset.p, dataset.d_dim) != (config.N, config.p, config.d_dim):
        raise ValueError(
            f"dataset has N={dataset.N}, p={dataset.p}, d_dim={dataset.d_dim} but the config "
            f"declares N={config.N}, p={config.p}, d_dim={config.d_dim}"
        )
    rng = chain_rng(config.seed, chain_id)
    state = initialize_state(config, dataset, rng)
    store = allocate_store(config, dataset.T, config.draws, chain_id=chain_id)
    total = config.burnin + config.draws * config.thin
    kept = 0
    for it in range(total):
        gibbs_sweep(state, dataset, config, rng)
        if it >= config.burnin and (it - config.burnin) % config.thin == 0:
            record_draw(store, kept, state)
            kept += 1
    assert kept == config.draws
    return store
