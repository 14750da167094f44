"""Built-in correctness checks behind the ``selfcheck`` subcommand."""

from __future__ import annotations

import itertools
import tempfile

import numpy as np
from scipy import integrate, stats

from . import priors, regimes, structural
from .config import ModelConfig
from .geweke import geweke_joint_test
from .patterns import build_pattern_set


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "ok" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# oracles and the joint-distribution model, shared with the tests

# The model of every joint-distribution test. Tight shrinkage keeps the
# prior predictive numerically bounded: with loose hyperpriors the
# unit-mean prior on the own lag puts real mass on explosive systems and
# the resimulation cycle overflows float64.
GEWEKE_CONFIG = ModelConfig(
    N=2, p=1, M=2,
    patterns=build_pattern_set({0: ["**", "*0"]}, 2),
    nu_B=60.0, nu_gamma_B=60.0, s_s_B=55.0, nu_s_B=60.0,
    nu_A=60.0, nu_gamma_A=60.0, s_s_A=2.2, nu_s_A=60.0,
    omega_shape=3.0, omega_scale=0.1,
)


def enumerate_regime_marginals(
    loglik: np.ndarray, P: np.ndarray, pi0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Filtered and smoothed (T, M) marginals and the log likelihood, by
    brute force over all M**T regime paths."""
    T, M = loglik.shape
    paths = np.array(list(itertools.product(range(M), repeat=T)))
    steps = np.column_stack([np.log(pi0)[paths[:, 0]], np.log(P)[paths[:, :-1], paths[:, 1:]]])
    # weight of each path's first t+1 periods, i.e. of y_{1:t+1} and s_{1:t+1}
    prefix = np.exp(np.cumsum(steps + loglik[np.arange(T), paths], axis=1))
    onehot = paths[:, :, None] == np.arange(M)
    total = prefix[:, -1].sum()
    smoothed = np.einsum("n,ntm->tm", prefix[:, -1], onehot) / total
    # filtered marginals condition on y_{1:t} only, so they weight the path
    # by its prefix; every prefix is shared by M**(T-1-t) paths, a factor
    # that the normalization removes
    filtered = np.einsum("nt,ntm->tm", prefix, onehot)
    filtered /= filtered.sum(axis=1, keepdims=True)
    return filtered, smoothed, float(np.log(total))


# 64 nodes per axis: doubling to 128 moves no case of criterion 01 by more than 3e-14
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadrature_log_marginal(S: np.ndarray, w: np.ndarray, gamma: float, T_m: int) -> float:
    """Direct numerical integral of the collapsed row density.

    Rotates into the eigenbasis of S, exploits the b -> -b symmetry by
    doubling the integral over the half-space where the cofactor inner
    product is positive (the integrand is smooth there), and rescales by
    the closed-form value so the integral is O(1).  The coordinate with the
    largest cofactor weight is integrated innermost, from the cut where the
    inner product vanishes to the box edge; the others span the box on a
    tensor Gauss-Legendre grid.
    """
    r = S.shape[0]
    lam, Q = np.linalg.eigh(S)
    a = Q.T @ w
    j = int(np.argmax(np.abs(a)))
    rest = [i for i in range(r) if i != j]
    L = (np.sqrt(T_m) + 7.0) / np.sqrt(lam)
    c = structural.pattern_log_marginal(*structural.factor_candidate(S, w, T_m), gamma, T_m)
    base = -0.5 * r * np.log(2.0 * np.pi * gamma)

    outer = np.array(list(itertools.product(*[L[i] * _GL_NODES for i in rest])), dtype=float)
    outer_w = np.prod(
        np.array(list(itertools.product(*[L[i] * _GL_WEIGHTS for i in rest])), dtype=float),
        axis=1,
    )
    dot_rest = outer @ a[rest]
    cut = -dot_rest / a[j]
    if a[j] > 0:
        lo, hi = np.maximum(-L[j], cut), np.full_like(cut, L[j])
    else:
        lo, hi = np.full_like(cut, -L[j]), np.minimum(L[j], cut)
    keep = lo < hi
    outer, outer_w, dot_rest, lo, hi = (x[keep] for x in (outer, outer_w, dot_rest, lo, hi))
    half = 0.5 * (hi - lo)
    v = 0.5 * (hi + lo)[:, None] + half[:, None] * _GL_NODES
    logg = base - c - 0.5 * ((outer ** 2) @ lam[rest])[:, None] - 0.5 * lam[j] * v ** 2
    if T_m > 0:
        logg += T_m * np.log(np.abs(dot_rest[:, None] + a[j] * v))
    val = np.sum(outer_w[:, None] * half[:, None] * _GL_WEIGHTS * np.exp(logg))
    return float(np.log(2.0 * val) + c)


# ---------------------------------------------------------------------------
# checks


def check_filter_enumeration() -> bool:
    """Filtered and smoothed marginals against brute-force path enumeration."""
    rng = np.random.default_rng(7)
    T, M = 8, 2
    loglik = rng.normal(size=(T, M))
    P = rng.dirichlet(np.ones(M) * 3, size=M)
    pi0 = rng.dirichlet(np.ones(M))
    filtered, logml = regimes.forward_filter(loglik, P, pi0)
    smoothed = regimes.smoothed_probabilities(loglik, P, pi0)
    filt_exact, smooth_exact, logml_exact = enumerate_regime_marginals(loglik, P, pi0)
    err = max(
        abs(logml - logml_exact),
        np.max(np.abs(smoothed - smooth_exact)),
        np.max(np.abs(filtered - filt_exact)),
    )
    return _check("filter vs path enumeration", err < 1e-10, f"max abs err {err:.2e}")


def check_pattern_marginal() -> bool:
    """Closed-form pattern marginal against Gauss-Legendre quadrature (r <= 2)."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(8):
        r = int(rng.integers(1, 3))
        T_m = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.3, 3.0))
        G = rng.normal(size=(r, r))
        S = G @ G.T + np.eye(r)
        w = rng.normal(size=r)
        got = structural.pattern_log_marginal(*structural.factor_candidate(S, w, T_m), gamma, T_m)
        worst = max(worst, abs(quadrature_log_marginal(S, w, gamma, T_m) - got))
    return _check("pattern marginal vs quadrature", worst < 1e-6, f"max abs log err {worst:.2e}")


def check_distributions() -> bool:
    """KS agreement between samplers and integrated hand-coded densities."""
    n = 100_000
    rng = np.random.default_rng(23)
    crit = 1.63 / np.sqrt(n)
    ok = True

    draws = priors.sample_ig2(3.0, 7.0, rng, size=n)
    stat = stats.kstest(draws, lambda x: stats.chi2.sf(3.0 / x, 7.0)).statistic
    ok &= _check("IG2 sampler vs density", stat < crit, f"KS {stat:.4f} < {crit:.4f}")

    draws = priors.sample_gamma(2.5, 1.7, rng, size=n)
    stat = stats.kstest(draws, lambda x: stats.gamma.cdf(x, 2.5, scale=1.7)).statistic
    ok &= _check("gamma sampler vs density", stat < crit, f"KS {stat:.4f} < {crit:.4f}")

    draws = np.array([priors.sample_gig(0.5, 2.0, 3.0, rng) for _ in range(n // 10)])
    grid = np.linspace(1e-6, draws.max() * 1.5, 4000)
    pdf = np.exp(priors.gig_log_density(grid, 0.5, 2.0, 3.0))
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    stat = stats.kstest(draws, lambda x: np.interp(x, grid, cdf)).statistic
    crit10 = 1.63 / np.sqrt(n // 10)
    ok &= _check("GIG sampler vs density", stat < crit10, f"KS {stat:.4f} < {crit10:.4f}")

    draws = np.array(
        [priors.sample_truncated_normal(0.4, 2.0, -1.0, 1.0, rng) for _ in range(n // 10)]
    )
    sd = np.sqrt(2.0)
    a, b = (-1.0 - 0.4) / sd, (1.0 - 0.4) / sd
    stat = stats.kstest(draws, lambda x: stats.truncnorm.cdf(x, a, b, loc=0.4, scale=sd)).statistic
    ok &= _check("truncated normal sampler vs density", stat < crit10, f"KS {stat:.4f} < {crit10:.4f}")
    return bool(ok)


def check_store_roundtrip() -> bool:
    from .data import empty_dataset
    from .engine import run_chain
    from .store import load_store, persist_store

    config = ModelConfig(
        N=2, p=1, M=2, draws=20, burnin=5,
        patterns=build_pattern_set({0: ["**", "*0"]}, 2),
        nu_s_B=10.0, s_s_B=10.0,
    )
    store = run_chain(config, empty_dataset(2, 1))
    with tempfile.TemporaryDirectory() as tmp:
        persist_store(store, tmp)
        loaded = load_store(tmp)
        same = all(
            np.array_equal(store.blocks[k], loaded.blocks[k]) for k in store.blocks
        )
    return _check("store round trip", same, "bit-exact" if same else "mismatch")


def check_geweke(fast: bool) -> bool:
    cycles = 2_000 if fast else 20_000
    bound = 5.0 if fast else 4.0
    result = geweke_joint_test(GEWEKE_CONFIG, cycles, np.random.default_rng(5), T=30)
    z = result.max_abs_z
    return _check(
        "joint-distribution test", z < bound, f"max |z| {z:.2f} over {len(result.z_scores)} stats"
    )


def run_selfcheck(fast: bool = False) -> bool:
    ok = True
    ok &= check_filter_enumeration()
    ok &= check_pattern_marginal()
    ok &= check_distributions()
    ok &= check_store_roundtrip()
    ok &= check_geweke(fast)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return bool(ok)
