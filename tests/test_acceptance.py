"""End-to-end acceptance gates.

One test per shipped guarantee, each a measurable property of the full
system: oracle agreement for the collapsed pattern step and the regime
filter, joint-distribution correctness of the sampler, prior spike
frequencies, evidence calibration for the volatility loadings, recovery
of a known data-generating process, reduction to the conjugate VAR,
impulse-response exactness, forecast-metric identities, bitwise
reproducibility, and the desk-scale runtime envelope.  Every seed is
pinned; every tolerance is stated next to its assertion.
"""

import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mssvar import analytics, forecast, regimes, sv
from mssvar.config import ModelConfig
from mssvar.data import build_design, empty_dataset
from mssvar.engine import run_chain
from mssvar.geweke import geweke_joint_test
from mssvar.patterns import build_pattern_set
from mssvar.priors import ShrinkageChain, omega_prior_density_at_zero
from mssvar.selfcheck import GEWEKE_CONFIG, enumerate_regime_marginals, quadrature_log_marginal
from mssvar.simulate import DgpTruth, companion_matrix, generate_dgp, simulate_observations
from mssvar.state import ParameterState
from mssvar.store import allocate_store, record_draw
from mssvar.structural import factor_candidate, pattern_log_marginal


# ---------------------------------------------------------------------------
# 1. collapsed pattern step vs nested Gauss-Legendre quadrature


def test_criterion_01_pattern_marginal_matches_quadrature():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for r, n_cases in ((1, 20), (2, 20), (3, 10)):
        for _ in range(n_cases):
            G = rng.normal(size=(r + 2, r)) * rng.uniform(0.5, 3.0)
            gamma = 10.0 ** rng.uniform(-1.0, 1.0)
            S = G.T @ G + np.eye(r) / gamma
            w = rng.normal(size=r) * rng.uniform(0.5, 2.0)
            T_m = int(rng.integers(0, 21))
            err = abs(
                pattern_log_marginal(*factor_candidate(S, w, T_m), gamma, T_m)
                - quadrature_log_marginal(S, w, gamma, T_m)
            )
            worst = max(worst, err)
    assert worst < 1e-6
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. regime filter and sampler vs exhaustive path enumeration


def test_criterion_02_ffbs_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    T, M = 8, 2
    loglik = rng.normal(scale=1.0, size=(T, M))
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi0 = np.array([0.6, 0.4])

    filt_exact, smooth_exact, logml_exact = enumerate_regime_marginals(loglik, P, pi0)
    filtered, logml = regimes.forward_filter(loglik, P, pi0)
    assert np.abs(filtered - filt_exact).max() < 1e-10
    assert abs(logml - logml_exact) < 1e-10
    smoothed = regimes.smoothed_probabilities(loglik, P, pi0)
    assert np.abs(smoothed - smooth_exact).max() < 1e-10

    n = 10_000
    draw_rng = np.random.default_rng(7)
    counts = np.zeros((T, M))
    for _ in range(n):
        s = regimes.backward_sample(filtered, P, draw_rng)
        counts[np.arange(T), s] += 1
    assert np.abs(counts / n - smooth_exact).max() < 0.01
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. joint-distribution test of the full sweep

def test_criterion_03_geweke_joint_distribution(monkeypatch):
    t0 = time.perf_counter()
    clean = geweke_joint_test(GEWEKE_CONFIG, 20_000, np.random.default_rng(7), T=30)
    monitored = ("omega[0,0]", "omega2[0,0]", "gamma_B[0]", "gamma_A[0]",
                 "P[0,0]", "A[0,0]", "kappa0[0,0]", "s_frac[0]")
    assert all(k in clean.z_scores for k in monitored)
    assert clean.max_abs_z < 4.0

    # the Gibbs side's loadings draw, with its standard deviation widened
    monkeypatch.setattr(sv, "draw_omega",
                        functools.partial(sv.draw_omega, sd_inflation=np.sqrt(2.0)))
    mutated = geweke_joint_test(GEWEKE_CONFIG, 20_000, np.random.default_rng(404), T=30)
    # pooled spread stats and the loadings-variance posterior carry the
    # most power; every per-entry second moment must also move
    strong = ("omega_abs_sum", "omega2_sum", "sigma2_omega[0]", "sigma2_omega[1]")
    assert min(abs(mutated.z_scores[k]) for k in strong) > 10.0
    per_entry = [f"omega{which}[{n},{m}]" for which in ("2", "_abs")
                 for n in range(2) for m in range(2)]
    assert min(abs(mutated.z_scores[k]) for k in per_entry) > 4.0
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 4. spike frequencies under the prior


def test_criterion_04_spike_slab_zero_frequencies():
    config = ModelConfig(
        N=3, p=1, M=1,
        patterns=build_pattern_set({0: ["***", "**0", "*00", "0**"]}, 3),
        draws=30_000, burnin=50, thin=1, seed=4,
    )
    store = run_chain(config, empty_dataset(3, 1))
    B = store.block("B")
    # third element restricted by 2 of 4 patterns, first by 1 of 4
    assert abs(np.mean(B[:, 0, 0, 2] == 0.0) - 0.50) < 0.01
    assert abs(np.mean(B[:, 0, 0, 0] == 0.0) - 0.25) < 0.01
    kap = store.block("kappa")[:, 0, 0]
    freqs = np.array([np.mean(kap == k) for k in range(4)])
    assert np.abs(freqs - 0.25).max() < 0.01


# ---------------------------------------------------------------------------
# 5. evidence calibration for the volatility loadings


def test_criterion_05_sddr_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sig2 = rng.gamma(1.0, 1.0, size=4_000_000)
    mc = np.mean(1.0 / np.sqrt(2.0 * np.pi * sig2))
    exact = omega_prior_density_at_zero(1.0, 1.0)
    assert exact == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert abs(mc - exact) < 1e-3

    A_true = np.array([[0.6, 0.1, 0.3], [-0.2, 0.5, 0.0]])
    B_true = np.array([[[1.0, 0.0], [-0.5, 1.0]]])

    def sddr_batch(omega0, T, draws):
        truth = DgpTruth(
            A=A_true, B=B_true, P=np.ones((1, 1)), pi0=np.ones(1),
            omega=np.array([[omega0], [-omega0]]), rho=np.array([0.95, 0.95]),
        )
        out = []
        for i in range(20):
            ds, _ = generate_dgp(truth, T, np.random.default_rng(1000 + i))
            config = ModelConfig(N=2, p=1, M=1, draws=draws, burnin=300,
                                 thin=1, seed=17)
            store = run_chain(config, ds)
            out.append(analytics.heteroskedasticity_sddr(store, 0, 0))
        return np.array(out)

    hom = sddr_batch(0.0, T=600, draws=1500)
    assert int((hom > 0).sum()) >= 18
    het = sddr_batch(1.0, T=300, draws=1000)
    assert int((het < 0).sum()) >= 18
    assert time.perf_counter() - t0 < 1800.0


# ---------------------------------------------------------------------------
# 6 & 11. recovery of a switching-identification DGP, and its runtime

_TRUE_PATTERN = {0: 1, 1: 2}  # regime -> index into equation 0's pattern list


@pytest.fixture(scope="module")
def desk_scale_run():
    truth = DgpTruth(
        A=np.hstack([0.5 * np.eye(3), np.zeros((3, 1))]),
        B=np.array([
            [[1.0, 0.6, 0.0], [-0.4, 1.0, 0.0], [0.25, -0.25, 1.0]],
            [[1.0, 0.0, 0.6], [-0.4, 1.0, 0.0], [0.25, -0.25, 1.0]],
        ]),
        P=np.array([[0.97, 0.03], [0.03, 0.97]]),
        pi0=np.array([0.5, 0.5]),
        omega=np.tile([[0.8, -0.9]], (3, 1)),
        rho=np.full(3, 0.9),
    )
    dataset, latent = generate_dgp(truth, 600, np.random.default_rng(20260817))
    config = ModelConfig(
        N=3, p=1, M=2,
        patterns=build_pattern_set(
            {0: ["***", "**0", "*0*", "*00"], 1: ["**0"], 2: ["***"]}, 3),
        draws=8000, burnin=2000, thin=1, seed=11,
    )
    t0 = time.perf_counter()
    store = run_chain(config, dataset)
    elapsed = time.perf_counter() - t0
    return store, latent, elapsed


def test_criterion_06_tvi_recovery(desk_scale_run):
    store, latent, elapsed = desk_scale_run
    assert elapsed < 900.0

    probs = analytics.regime_probabilities(store)
    mode = probs.argmax(axis=1)
    perms = list(itertools.permutations(range(2)))
    accs = [np.mean(np.array(perm)[mode] == latent.s) for perm in perms]
    best = perms[int(np.argmax(accs))]
    assert max(accs) > 0.85

    tvi = analytics.tvi_probabilities(store, 0)
    # best[stored] = true label, so invert to find the stored index per truth
    stored_of_true = {true: stored for stored, true in enumerate(best)}
    for true_regime, k_true in _TRUE_PATTERN.items():
        assert tvi[stored_of_true[true_regime], k_true] > 0.8

    assert analytics.joint_tvi_change_probability(store) > 0.8


def test_criterion_11_performance_envelope(desk_scale_run):
    _, _, elapsed = desk_scale_run
    # 10 000 sweeps at N=3, T=600, M=2, K=4
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. reduction to the conjugate homoskedastic VAR


def test_criterion_07_homoskedastic_var_reduction():
    from mssvar import var

    truth = DgpTruth(
        A=np.array([[0.6, 0.2, 0.5], [-0.1, 0.4, -0.3]]),
        B=np.array([[[1.2, 0.0], [-0.5, 0.9]]]),
        P=np.ones((1, 1)), pi0=np.ones(1),
        omega=np.zeros((2, 1)), rho=np.zeros(2),
    )
    dataset, _ = generate_dgp(truth, 500, np.random.default_rng(77))
    config = ModelConfig(N=2, p=1, M=1, fix_omega_at_zero=True,
                         draws=10_000, burnin=1000, thin=1, seed=21)
    store = run_chain(config, dataset)
    A_mean = store.block("A").mean(axis=0)

    s = np.zeros(500, dtype=np.int64)
    sigma2 = np.ones((2, 500))
    closed_form, _ = var.autoregressive_posterior(
        dataset, truth.B, s, sigma2, np.ones(2))
    assert np.abs(A_mean - closed_form).max() < 0.02


# ---------------------------------------------------------------------------
# 8. impulse responses: normalization and simulation oracle


def test_criterion_08_impulse_response_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        A_lags = rng.normal(scale=0.4, size=(N, N * p))
        const = rng.normal(scale=0.2, size=(N, 1))
        F = companion_matrix(np.hstack([A_lags, const]), N, p)
        rad = max(abs(np.linalg.eigvals(F)))
        if rad >= 0.95:
            A_lags = A_lags * (0.9 / rad)
        A = np.hstack([A_lags, const])
        B = rng.normal(size=(N, N)) + np.eye(N) * 2.0
        hor = 12
        theta = analytics.impulse_responses(A, B, hor, shock=1, p=p)

        # direct propagation of one structural impulse, intercept suppressed
        impact = np.linalg.solve(B, np.eye(N)[:, 1])
        ylags = np.zeros((p, N))
        ylags[-1] = impact
        path = np.empty((hor + 1, N))
        path[0] = impact
        for h in range(1, hor + 1):
            yt = A_lags @ ylags[::-1].ravel()
            path[h] = yt
            ylags = np.vstack([ylags[1:], yt])
        assert np.abs(theta - path).max() < 1e-8

    theta_n = analytics.impulse_responses(A, B, 4, shock=0, p=p, normalize=-0.25)
    assert theta_n[0, 0] == -0.25


# ---------------------------------------------------------------------------
# 9. forecast metrics: unit identities, invariance, dominance


def _single_draw_store(config, T, A, B, P, pi0, omega, rho, s, h):
    state = ParameterState(
        A=A, B=B, kappa=np.zeros((config.N, config.M), dtype=np.int64),
        s=s, P=P, pi0=pi0, h=h, omega=omega, rho=rho,
        sigma2_omega=np.ones(config.N),
        shrink_B=ShrinkageChain.at_prior_center(
            config.N, nu=config.nu_B, nu_gamma=config.nu_gamma_B,
            s_s=config.s_s_B, nu_s=config.nu_s_B),
        shrink_A=ShrinkageChain.at_prior_center(
            config.N, nu=config.nu_A, nu_gamma=config.nu_gamma_A,
            s_s=config.s_s_A, nu_s=config.nu_s_A),
        omega_mean=np.zeros((config.N, config.M)),
        omega_var=np.ones((config.N, config.M)),
    )
    store = allocate_store(config, T, 1)
    record_draw(store, 0, state)
    return store


def test_criterion_09_forecast_metrics():
    # unit identities
    phi0 = stats.norm.logpdf(0.0)
    assert forecast.log_predictive_score(np.array([phi0])) == pytest.approx(
        -0.9189385332046727, abs=1e-12)
    mixture = forecast.log_predictive_score(
        np.array([stats.norm.logpdf(0.0), stats.norm.logpdf(1.0)]))
    assert mixture == pytest.approx(
        np.log(0.5 * (stats.norm.pdf(0.0) + stats.norm.pdf(1.0))), abs=1e-12)
    assert_allclose(
        forecast.rmsfe(np.array([[1.0], [2.0]]), np.array([[1.0], [4.0]])),
        [np.sqrt(2.0)], rtol=1e-15)

    # invariance of the log score under draw normalization
    truth = DgpTruth(
        A=np.array([[0.6, 0.0, 0.1], [0.2, 0.5, 0.0]]),
        B=np.array([[[1.0, 0.0], [-0.5, 1.0]], [[1.0, 0.3], [-0.5, 1.0]]]),
        P=np.array([[0.9, 0.1], [0.1, 0.9]]), pi0=np.array([0.5, 0.5]),
        omega=np.array([[0.6, -0.6], [0.5, 0.6]]), rho=np.array([0.8, 0.8]),
    )
    dataset, _ = generate_dgp(truth, 60, np.random.default_rng(13))
    config = ModelConfig(N=2, p=1, M=2,
                         patterns=build_pattern_set({0: ["**", "*0"]}, 2),
                         draws=200, burnin=150, thin=1, seed=3)
    store = run_chain(config, dataset)
    y_f = np.array([0.3, -0.2])
    base = forecast.log_predictive_score(
        forecast.predictive_log_densities(store, dataset, y_f, 1, seed=5))
    for policy in ("sign-diag", "labels"):
        normalized = analytics.normalize_draws(store, policy)
        score = forecast.log_predictive_score(
            forecast.predictive_log_densities(normalized, dataset, y_f, 1, seed=5))
        assert abs(score - base) < 1e-12

    # truth dominates white noise on simulated futures
    truth = DgpTruth(
        A=np.array([[0.8, 0.1, 0.2], [0.0, 0.7, -0.1]]),
        B=np.array([[[1.0, 0.0], [-0.6, 1.0]], [[1.0, 0.4], [-0.6, 1.0]]]),
        P=np.array([[0.95, 0.05], [0.05, 0.95]]), pi0=np.array([0.5, 0.5]),
        omega=np.array([[0.9, -0.8], [0.8, 0.9]]), rho=np.array([0.9, 0.9]),
    )
    dataset, latent = generate_dgp(truth, 300, np.random.default_rng(31))
    truth_store = _single_draw_store(
        ModelConfig(N=2, p=1, M=2, draws=1, burnin=0), 300,
        truth.A, truth.B, truth.P, truth.pi0, truth.omega, truth.rho,
        latent.s, latent.h)
    wn_store = _single_draw_store(
        ModelConfig(N=2, p=1, M=1, draws=1, burnin=0), 300,
        np.zeros((2, 3)), np.eye(2)[None, :, :], np.ones((1, 1)), np.ones(1),
        np.zeros((2, 1)), np.zeros(2),
        np.zeros(300, dtype=np.int64), np.zeros((2, 300)))

    fut_rng = np.random.default_rng(99)
    s_T, h_T = latent.s[-1], latent.h[:, -1]
    pres = dataset.y[-1:]
    score_truth, score_wn = [], []
    for j in range(200):
        s_next = np.array([fut_rng.choice(2, p=truth.P[s_T])])
        h_next = (truth.rho * h_T + fut_rng.standard_normal(2)).reshape(2, 1)
        y_next, _ = simulate_observations(truth, s_next, h_next, pres, fut_rng)
        score_truth.append(forecast.log_predictive_score(
            forecast.predictive_log_densities(truth_store, dataset, y_next[0], 1, seed=j)))
        score_wn.append(forecast.log_predictive_score(
            forecast.predictive_log_densities(wn_store, dataset, y_next[0], 1, seed=j)))
    assert np.mean(score_truth) > np.mean(score_wn)


# ---------------------------------------------------------------------------
# 10. bitwise reproducibility


def _blocks_identical(a, b):
    if set(a.blocks) != set(b.blocks):
        return False
    return all(a.blocks[k].tobytes() == b.blocks[k].tobytes() for k in a.blocks)


def test_criterion_10_determinism():
    truth = DgpTruth(
        A=np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.2]]),
        B=np.array([[[1.0, 0.0], [-0.4, 1.0]], [[1.0, 0.5], [-0.4, 1.0]]]),
        P=np.array([[0.9, 0.1], [0.1, 0.9]]), pi0=np.array([0.5, 0.5]),
        omega=np.array([[0.5, -0.5], [0.5, 0.5]]), rho=np.array([0.7, 0.7]),
    )
    dataset, _ = generate_dgp(truth, 80, np.random.default_rng(8))
    config = ModelConfig(N=2, p=1, M=2,
                         patterns=build_pattern_set({0: ["**", "*0"]}, 2),
                         draws=50, burnin=20, thin=2, seed=123)

    first = run_chain(config, dataset, 0)
    second = run_chain(config, dataset, 0)
    assert _blocks_identical(first, second)

    solo = [run_chain(config, dataset, cid) for cid in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda cid: run_chain(config, dataset, cid), range(4)))
    for a, b in zip(solo, parallel):
        assert a.chain_id == b.chain_id
        assert _blocks_identical(a, b)
    # distinct chains explore distinct points
    assert not _blocks_identical(solo[0], solo[1])
