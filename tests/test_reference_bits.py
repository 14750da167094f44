"""Bit-for-bit checks of the rewritten sweep blocks against their earlier code.

Each reference below is the earlier implementation, written out: the
categories on the last axis, scipy's banded wrappers, an ``einsum`` that
searches its path on every call, ``np.ix_``, ``cho_solve``, and the Geweke
test's prior draw and statistics one draw at a time.  The package's versions
must return the same bytes and leave the generator in the same state,
since every stored draw, digest and Geweke z-score depends on both.
"""

import operator
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

from mssvar import geweke, regimes, structural, sv, var
from mssvar.config import ModelConfig
from mssvar.data import Dataset
from mssvar.engine import gibbs_sweep
from mssvar.patterns import apply_pattern, build_pattern_set
from mssvar.priors import ShrinkageChain, categorical, category_sum, sample_ig2
from mssvar.selfcheck import GEWEKE_CONFIG
from mssvar.simulate import follow, simulate_regimes, simulate_volatility
from mssvar.state import BLOCKS, ParameterState
from mssvar.store import allocate_store, record_draw

SHAPES = [(N, T) for N in (1, 2, 3, 4) for T in (0, 1, 2, 30, 600)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_pair(function, reference, seed: int, *args):
    """Both functions' outputs from generators in the same state, and
    whether the generators end in the same state."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = function(*args, rng_new)
    ref = reference(*args, rng_ref)
    return new, ref, rng_new.bit_generator.state == rng_ref.bit_generator.state


def ref_categorical(probs, u):
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum <= np.asarray(u)[..., None]).sum(axis=-1), cum.shape[-1] - 1)


def ref_mixture_indicators(logu2, omega, h, s, rng):
    z = logu2 - omega[:, s] * h
    dev = z[..., None] - sv.MIXTURE.means
    logp = (
        np.log(sv.MIXTURE.probs)
        - 0.5 * np.log(2.0 * np.pi * sv.MIXTURE.variances)
        - 0.5 * dev**2 / sv.MIXTURE.variances
    )
    logp -= logp.max(axis=-1, keepdims=True)
    probs = np.exp(logp)
    probs /= probs.sum(axis=-1, keepdims=True)
    return ref_categorical(probs, rng.random(z.shape))


def ref_log_volatilities(ytil, v, omega, rho, s, rng):
    N, T = ytil.shape
    a = omega[:, s]
    band = np.zeros((2, N, T))
    band[1] = (1.0 + rho * rho)[:, None]
    band[1, :, -1:] = 1.0
    band[0, :, 1:] = -rho[:, None]
    band = band.reshape(2, N * T)
    band[1] += (a * a / v).reshape(-1)
    U = linalg.cholesky_banded(band, lower=False)
    mean = linalg.cho_solve_banded((U, False), (a * ytil / v).reshape(-1))
    z = rng.standard_normal(N * T)
    return (mean + linalg.solve_banded((0, 1), U, z)).reshape(N, T)


def ref_backward_sample(filtered, P, rng):
    T, M = filtered.shape
    u = rng.random(T)
    w = filtered[:-1, None, :] * np.ascontiguousarray(P.T)
    total = w.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        prev = ref_categorical(w / total[..., None], u[:0:-1, None])
    return follow(ref_categorical(filtered[-1], u[0]), prev[::-1])[::-1].copy()


def ref_compose(S1, a1, S2, a2):
    G = np.log(S1) + a2[..., None, :]
    b = regimes._row_max(G)
    b = np.where(b > -np.inf, b, 0.0)
    return regimes._scale_rows(np.exp(G - b[..., None]) @ S2, a1 + b)


def ref_simulate_regimes(first_probs, P, T, rng):
    first_probs = np.asarray(first_probs, dtype=float)
    batch = first_probs.shape[:-1]
    if T == 0:
        return np.empty((*batch, 0), dtype=np.int64)
    u = rng.random((*batch, T))
    nxt = ref_categorical(np.asarray(P)[..., None, :, :], u[..., 1:, None])
    return follow(ref_categorical(first_probs, u[..., 0]), nxt)


def ref_autoregressive_posterior(dataset, B, s, sigma2, gamma_A):
    N, J = dataset.N, dataset.n_coefficients
    mean_rows, omega_diag = var.minnesota_moments(N, dataset.p, dataset.d_dim)
    prior_prec = (1.0 / (gamma_A[:, None] * omega_diag[None, :])).T.reshape(-1)
    prior_mean = mean_rows.T.reshape(-1)
    Bs = B[s]
    inv_sig = (1.0 / sigma2).T
    W = np.einsum("tki,tk,tkj->tij", Bs, inv_sig, Bs)
    data_prec = np.einsum("ta,tij,tb->aibj", dataset.x, W, dataset.x, optimize=True)
    data_prec = data_prec.reshape(J * N, J * N)
    rhs = np.einsum("ta,tij,tj->ai", dataset.x, W, dataset.y, optimize=True).reshape(-1)
    prec = data_prec + np.diag(prior_prec)
    rhs = rhs + prior_prec * prior_mean
    L = np.linalg.cholesky(prec)
    mean = linalg.cho_solve((L, True), rhs)
    return mean.reshape(J, N).T, L


def _volatility_inputs(N, T, M, seed):
    rng = np.random.default_rng(seed)
    logu2 = np.log(np.maximum(rng.standard_normal((N, T)) ** 2, sv.RESIDUAL_FLOOR))
    omega = rng.normal(0.0, 0.6, (N, M))
    h = rng.normal(0.0, 1.5, (N, T))
    s = rng.integers(0, M, T)
    return logu2, omega, h, s


# ---------------------------------------------------------------------------
# the mixture normaliser and the categorical draw


@pytest.mark.parametrize("K", list(range(1, 13)) + [16, 17, 128, 129, 300])
@pytest.mark.parametrize("shape", [(), (7,), (3, 600), (599, 2)])
def test_category_sum_matches_last_axis_sum(K, shape):
    rng = np.random.default_rng(K)
    # terms over many magnitudes, so that any other order of additions shows
    terms = rng.random((*shape, K)) * np.exp(rng.normal(0.0, 8.0, (*shape, K)))
    assert same_bits(category_sum(np.moveaxis(terms, -1, 0).copy()), terms.sum(axis=-1))


@pytest.mark.parametrize("N,T", SHAPES)
def test_mixture_normaliser_matches_last_axis_sum(N, T):
    # the normalised weights only feed a comparison with a uniform, so a
    # last-bit change could leave every draw and digest as it was
    logu2, omega, h, s = _volatility_inputs(N, T, 2, 10 * N + T)
    z = logu2 - omega[:, s] * h
    logp = np.log(sv.MIXTURE.probs) - 0.5 * np.log(2.0 * np.pi * sv.MIXTURE.variances) \
        - 0.5 * (z[..., None] - sv.MIXTURE.means) ** 2 / sv.MIXTURE.variances
    probs = np.exp(logp - logp.max(axis=-1, keepdims=True))
    assert same_bits(category_sum(np.moveaxis(probs, -1, 0).copy()), probs.sum(axis=-1))


@pytest.mark.parametrize("K", range(1, 13))
def test_categorical_matches_last_axis_draw(K):
    rng = np.random.default_rng(100 + K)
    probs = rng.dirichlet(np.ones(K), size=(4, 50))
    probs[0, :5] = 0.0  # zero rows: 0/0 weights, as in backward sampling
    with np.errstate(invalid="ignore"):
        probs[0, :5] /= probs[0, :5].sum(axis=-1, keepdims=True)
    u = rng.random((4, 50))
    u[1, :3] = [0.0, np.nextafter(1.0, 0.0), probs[1, 2, 0]]  # a tie at the third
    first = np.moveaxis(probs, -1, 0)
    assert same_bits(categorical(first, u), ref_categorical(probs, u))
    # one vector and a scalar uniform, one vector and a batch, a batch and a column
    assert same_bits(categorical(first[:, 2, 7], u[2, 7]), ref_categorical(probs[2, 7], u[2, 7]))
    assert same_bits(categorical(first[:, 2, 7], u), ref_categorical(probs[2, 7], u))
    assert same_bits(categorical(first, u[:, :1]), ref_categorical(probs, u[:, :1]))


# ---------------------------------------------------------------------------
# the volatility blocks


@pytest.mark.parametrize("N,T", SHAPES)
def test_mixture_indicators_match_reference(N, T):
    args = _volatility_inputs(N, T, 2, 20 * N + T)
    new, ref, same_state = draw_pair(sv.draw_mixture_indicators, ref_mixture_indicators,
                                     N + T, *args)
    assert same_bits(new, ref) and same_state


@pytest.mark.parametrize("N,T", SHAPES)
def test_log_volatilities_match_reference(N, T):
    logu2, omega, h, s = _volatility_inputs(N, T, 2, 30 * N + T)
    ytil, v = sv.linearize(logu2, sv.draw_mixture_indicators(
        logu2, omega, h, s, np.random.default_rng(1)))
    rho = np.random.default_rng(2).uniform(-0.95, 0.95, N)
    new, ref, same_state = draw_pair(sv.draw_log_volatilities, ref_log_volatilities,
                                     N + T, ytil, v, omega, rho, s)
    assert same_bits(new, ref) and same_state


def test_log_volatilities_keep_the_banded_errors():
    logu2, omega, h, s = _volatility_inputs(2, 30, 2, 5)
    ytil, v = sv.linearize(logu2, np.zeros((2, 30), dtype=np.int64))
    rho = np.array([0.5, 0.5])
    for bad in (np.inf, np.nan):
        omega_bad = omega.copy()
        omega_bad[1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            sv.draw_log_volatilities(ytil, v, omega_bad, rho, s, np.random.default_rng(0))
    # negative observation variances make the band indefinite
    with pytest.raises(np.linalg.LinAlgError, match="1-th leading minor not positive definite"):
        sv.draw_log_volatilities(ytil, -v, np.ones((2, 2)), rho, s, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the regime blocks


@pytest.mark.parametrize("M", list(range(1, 4)) + list(range(8, 13)))
@pytest.mark.parametrize("T", [1, 2, 30, 600])
def test_backward_sample_matches_reference(M, T):
    rng = np.random.default_rng(40 * M + T)
    filtered = rng.dirichlet(np.ones(M), T)
    filtered[T // 2, :] = filtered[T // 2] * (rng.random(M) < 0.5)  # zero weights
    filtered[T // 2, 0] += 0.5
    P = rng.dirichlet(np.ones(M) * 3, M)
    new, ref, same_state = draw_pair(regimes.backward_sample, ref_backward_sample,
                                     M + T, filtered, P)
    assert same_bits(new, ref) and same_state


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("T", [0, 1, 2, 30, 600])
def test_forward_filter_matches_reference(M, T, monkeypatch):
    rng = np.random.default_rng(50 * M + T)
    loglik = rng.normal(0.0, 4.0, (T, M))
    P = rng.dirichlet(np.ones(M) * 3, M)
    if M > 1:
        if T > 2:
            loglik[T // 3, 0] = -np.inf  # a regime that cannot hold at one period
        P[0, -1] = 0.0  # a transition that cannot happen
        P /= P.sum(axis=1, keepdims=True)
    pi0 = rng.dirichlet(np.ones(M))
    new = regimes.forward_filter(loglik, P, pi0)
    monkeypatch.setattr(regimes, "_compose", ref_compose)
    ref = regimes.forward_filter(loglik, P, pi0)
    assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
@pytest.mark.parametrize("T", [0, 1, 2, 30])
def test_simulate_regimes_matches_reference(M, batch, T):
    rng = np.random.default_rng(60 * M + T)
    first = rng.dirichlet(np.ones(M), batch)
    P = rng.dirichlet(np.ones(M) * 2, (*batch, M))
    new, ref, same_state = draw_pair(simulate_regimes, ref_simulate_regimes,
                                     M + T, first, P, T)
    assert same_bits(new, ref) and same_state


# ---------------------------------------------------------------------------
# the structural and autoregressive blocks


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_row_posterior_precision_matches_reference(N):
    rng = np.random.default_rng(70 + N)
    X = rng.standard_normal((20, N))
    crossprod = X.T @ X
    for r in range(1, N + 1):
        free = np.sort(rng.choice(N, r, replace=False))
        ref = crossprod[np.ix_(free, free)].copy()
        ref[np.diag_indices(r)] += 1.0 / 0.37
        new = structural.row_posterior_precision(crossprod, free, 0.37)
        assert same_bits(new, ref)
        assert new.flags.writeable and not np.shares_memory(new, crossprod)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("T", [0, 1, 2, 30, 600])
def test_autoregressive_posterior_matches_reference(N, p, T):
    rng = np.random.default_rng(80 * N + 10 * p + T)
    M = 2
    x = np.hstack([rng.standard_normal((T, N * p)), np.ones((T, 1))])
    dataset = Dataset(y=rng.standard_normal((T, N)), x=x, p=p, presample=np.zeros((p, N)))
    B = np.eye(N) + 0.3 * rng.standard_normal((M, N, N))
    s = rng.integers(0, M, T)
    sigma2 = np.exp(rng.normal(0.0, 0.5, (N, T)))
    gamma_A = rng.uniform(0.5, 2.0, N)
    for _ in range(2):  # the second call reuses the stored contraction path
        mean, L = var.autoregressive_posterior(dataset, B, s, sigma2, gamma_A)
        ref_mean, ref_L = ref_autoregressive_posterior(dataset, B, s, sigma2, gamma_A)
        assert same_bits(mean, ref_mean) and same_bits(L, ref_L)


# ---------------------------------------------------------------------------
# the scale check of IG2 draws


@pytest.mark.parametrize("s,nu", [(2.0, 5.0), (np.float64(2.0), 5), (3, np.float64(7.5)),
                                  (np.array([1.0, 2.0]), 4.0), (2.0, np.array([3.0, 9.0]))])
def test_ig2_positive_arguments_draw_as_before(s, nu):
    size = None if np.ndim(s) == np.ndim(nu) == 0 else 2
    rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    assert same_bits(sample_ig2(s, nu, rng_new, size=size), s / rng_ref.chisquare(nu, size=size))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("s,nu", [(0.0, 5.0), (-1.0, 5.0), (2.0, 0), (np.float64(-2.0), 5.0),
                                  (np.array([1.0, 0.0]), 4.0), (2.0, np.array([3.0, -1.0]))])
def test_ig2_rejects_nonpositive_arguments(s, nu):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="IG2 requires positive scale and degrees of freedom"):
        sample_ig2(s, nu, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# the Geweke test's prior draw and statistics, one draw at a time


def ref_prior_draw(config, T, rng):
    N, M = config.N, config.M

    def chain(nu, nu_gamma, s_s, nu_s):
        s_gamma = float(s_s / rng.chisquare(nu_s))
        s = rng.gamma(nu_gamma, s_gamma, size=N)
        gamma = s / rng.chisquare(nu, size=N)
        return ShrinkageChain(gamma=gamma, s=s, s_gamma=s_gamma, nu=nu, nu_gamma=nu_gamma,
                              s_s=s_s, nu_s=nu_s)

    shrink_B = chain(config.nu_B, config.nu_gamma_B, config.s_s_B, config.nu_s_B)
    shrink_A = chain(config.nu_A, config.nu_gamma_A, config.s_s_A, config.nu_s_A)
    mean_rows, omega_diag = var.minnesota_moments(N, config.p, config.d_dim)
    A = mean_rows + np.sqrt(shrink_A.gamma[:, None] * omega_diag[None, :]) * rng.standard_normal(
        mean_rows.shape
    )
    alpha = np.ones((M, M)) + config.d_m * np.eye(M)
    P = np.empty((M, M))
    for m in range(M):
        P[m] = rng.dirichlet(alpha[m])
    pi0 = rng.dirichlet(1.0 + np.bincount(np.zeros(0, dtype=np.int64), minlength=M))
    s = simulate_regimes(pi0, P, T, rng)
    sigma2_omega = rng.gamma(config.omega_shape, config.omega_scale, size=N)
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
        A=A, B=B, kappa=kappa, s=s, P=P, pi0=pi0, h=h, omega=omega, rho=rho,
        sigma2_omega=sigma2_omega, shrink_B=shrink_B, shrink_A=shrink_A,
        omega_mean=np.zeros((N, M)), omega_var=np.tile(sigma2_omega[:, None], (1, M)),
        logml=0.0,
    )


def ref_statistics(state, config):
    stats = {}
    N, M = config.N, config.M
    for n in range(N):
        for m in range(M):
            w = float(state.omega[n, m])
            stats[f"omega[{n},{m}]"] = w
            stats[f"omega2[{n},{m}]"] = w * w
            stats[f"omega_abs[{n},{m}]"] = abs(w)
            stats[f"omega2rb[{n},{m}]"] = float(
                state.omega_mean[n, m] ** 2 + state.omega_var[n, m]
            )
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


GEWEKE_CASES = {
    "selfcheck": GEWEKE_CONFIG,
    "omega at zero": GEWEKE_CONFIG.with_updates(fix_omega_at_zero=True),
    "N=3, four candidates": ModelConfig(
        N=3, p=2, M=2, patterns=build_pattern_set({1: ["**0", "*0*", "0**", "***"]}, 3),
    ),
}


@pytest.mark.parametrize("case", GEWEKE_CASES)
@pytest.mark.parametrize("T", [0, 1, 30])
def test_prior_draw_matches_reference(case, T):
    config = GEWEKE_CASES[case]
    rng_new, rng_ref = np.random.default_rng(600 + T), np.random.default_rng(600 + T)
    for _ in range(8):  # several draws visit several candidates
        new, ref = geweke.prior_draw(config, T, rng_new), ref_prior_draw(config, T, rng_ref)
        for blk in BLOCKS:
            get = operator.attrgetter(blk.attr)
            assert same_bits(get(new), get(ref)), blk.name
            assert type(get(new)) is type(get(ref)), blk.name
        for chain in ("shrink_B", "shrink_A"):
            for hyper in ("nu", "nu_gamma", "s_s", "nu_s"):
                assert getattr(getattr(new, chain), hyper) == getattr(getattr(ref, chain), hyper)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _draw_of(draws, i):
    """Row i of stacked draws, with the attributes a ParameterState has."""
    row = {name: value[i] for name, value in draws.items()}
    return SimpleNamespace(shrink_B=SimpleNamespace(gamma=row["gamma_B"]),
                           shrink_A=SimpleNamespace(gamma=row["gamma_A"]), **row)


def _assert_statistics_match(new, refs):
    assert list(new) == list(refs[0])
    for name, values in new.items():
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert same_bits(values, np.array([ref[name] for ref in refs])), name


@pytest.mark.parametrize("case", GEWEKE_CASES)
def test_statistics_of_a_prior_batch_match_reference(case):
    config = GEWEKE_CASES[case]
    draws = geweke.prior_draws(config, 30, np.random.default_rng(61), 2000)
    new = geweke._statistics(draws, config)
    _assert_statistics_match(new, [ref_statistics(_draw_of(draws, i), config) for i in range(2000)])


@pytest.mark.parametrize("case", GEWEKE_CASES)
def test_statistics_of_recorded_cycles_match_reference(case):
    # the Gibbs side records each cycle's state; its statistics must be the
    # values the live state gives, with non-zero loading moments and paths
    config = GEWEKE_CASES[case]
    rng = np.random.default_rng(62)
    T, cycles = 30, 40
    presample = np.zeros((config.p, config.N))
    state = geweke.prior_draw(config, T, rng)
    data = geweke.simulate_given_state(state, config, presample, rng)
    record = allocate_store(config, T, cycles)
    refs = []
    for i in range(cycles):
        gibbs_sweep(state, data, config, rng)
        data = geweke.simulate_given_state(state, config, presample, rng)
        record_draw(record, i, state)
        refs.append(ref_statistics(state, config))
    _assert_statistics_match(geweke._statistics(record.blocks, config), refs)
