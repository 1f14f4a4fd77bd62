import math

import numpy as np
import pytest

from wfhtomo._rng import setting_seed
from wfhtomo.fock import StateSpec, fidelity, make_state
from wfhtomo.mle import ReconstructionParams, log_likelihood, reconstruct
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import (
    CounterConfig,
    MeasurementContext,
    Setting,
    compose_response,
    identity_response,
)
from wfhtomo.probes import design_gamma
from wfhtomo.sim import simulate_dataset
from wfhtomo.stats import (
    BootstrapReport,
    log_lr,
    parametric_bootstrap,
    poisson_mle,
    sinusoid_fit,
)
from wfhtomo.twirl import reduced_assignment, twirl_analytic

BAL = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=False)


@pytest.fixture(scope="module")
def small_problem():
    N = 1
    dense = make_state(StateSpec(kind="coherent", N=N, alpha=0.35 + 0.1j)).density()
    rho = twirl_analytic(dense, reduced_assignment(BAL), BAL, N)
    ps = design_gamma(N, seed=2)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4),
                        partition=BAL, N=N) for g in ps.gammas]
    ctx = MeasurementContext.build(settings)
    return rho, ctx


def test_log_lr_zero_at_saturation():
    counts = {(0,): 3, (1,): 1}
    loglik = 3 * math.log(0.75) + 1 * math.log(0.25)
    assert log_lr(loglik, [counts]) == pytest.approx(0.0, abs=1e-12)


def test_log_lr_even_counts_half_half():
    counts = {(0,): 1, (1,): 1}
    loglik = 2 * math.log(0.5)
    assert log_lr(loglik, [counts]) == pytest.approx(0.0, abs=1e-12)


def test_log_lr_multi_setting_nonnegative(small_problem):
    rho, ctx = small_problem
    data = simulate_dataset(rho, ctx, [400] * len(ctx.settings), seed=31)
    lr = log_lr(log_likelihood(rho, ctx, data), data.counts)
    assert lr >= 0.0
    # saturated model likelihood itself gives exactly zero
    sat = sum(m * math.log(m / M) for c, M in zip(data.counts, data.M_i)
              for m in c.values() if m > 0)
    assert log_lr(sat, data.counts) == pytest.approx(0.0, abs=1e-10)


def test_log_lr_rejects_empty():
    with pytest.raises(ValueError):
        log_lr(0.0, [])
    with pytest.raises(ValueError):
        log_lr(0.0, {})


def test_poisson_mle_identity_response_is_sample_mean():
    rng = np.random.default_rng(8)
    mu = 2.3
    draws = rng.poisson(mu, size=4000)
    n_c = 25
    counts = {int(k): int(n) for k, n in
              zip(*np.unique(draws, return_counts=True))}
    T = identity_response(n_c, 60)
    res = poisson_mle(counts, T)
    assert res["mu_hat"] == pytest.approx(float(draws.mean()), abs=1e-8)
    assert res["fisher_info"] == pytest.approx(1.0 / res["mu_hat"], abs=1e-6)


def test_poisson_mle_boundary_zero():
    T = identity_response(4, 20)
    res = poisson_mle({0: 17}, T)
    assert res["mu_hat"] == 0.0


def test_poisson_mle_gradient_conditions():
    rng = np.random.default_rng(19)
    T = compose_response(identity_response(6, 40), 0.7)
    draws = rng.poisson(1.9, size=2000)
    det = rng.binomial(draws, 0.7)
    counts = {}
    for k in det:
        key = int(k) if k <= 6 else ">"
        counts[key] = counts.get(key, 0) + 1
    res = poisson_mle(counts, T)
    mu = res["mu_hat"]
    # numerical gradient of the log-likelihood at mu_hat
    def loglik(m):
        pi = np.array([math.exp(-m) * m ** j / math.factorial(j) for j in range(41)])
        q = T @ pi
        vec = np.zeros(T.shape[0])
        for key, n in counts.items():
            vec[7 if key == ">" else key] = n
        return float(np.sum(vec[vec > 0] * np.log(q[vec > 0])))
    h = 1e-6
    grad = (loglik(mu + h) - loglik(mu - h)) / (2 * h)
    assert abs(grad) < 1e-2  # finite-difference noise dominates at this scale
    assert mu > 0


def test_poisson_mle_thinned_recovery():
    rng = np.random.default_rng(4)
    mu_true, nu, M = 2.0, 0.6, 20000
    draws = rng.binomial(rng.poisson(mu_true, size=M), nu)
    counts = {}
    for k in draws:
        key = int(k) if k <= 8 else ">"
        counts[key] = counts.get(key, 0) + 1
    T = identity_response(8, 50)
    res = poisson_mle(counts, T)
    target = mu_true * nu
    assert abs(res["mu_hat"] - target) <= 3.0 / math.sqrt(M * res["fisher_info"])


def test_poisson_mle_through_loss_response():
    # detector loss folded into the response instead of the data
    rng = np.random.default_rng(14)
    mu_true, nu, M = 1.4, 0.55, 20000
    draws = rng.binomial(rng.poisson(mu_true, size=M), nu)
    counts = {}
    for k in draws:
        key = int(k) if k <= 8 else ">"
        counts[key] = counts.get(key, 0) + 1
    T = compose_response(identity_response(8, 50), nu)
    res = poisson_mle(counts, T)
    assert abs(res["mu_hat"] - mu_true) <= 3.0 / math.sqrt(M * res["fisher_info"])


def test_poisson_mle_validation():
    T = identity_response(3, 10)
    with pytest.raises(ValueError):
        poisson_mle({}, T)
    with pytest.raises(ValueError):
        poisson_mle({0: 0}, T)
    with pytest.raises(ValueError):
        poisson_mle({0: 5}, np.ones((4, 5)))
    with pytest.raises(ValueError):
        poisson_mle({9: 5}, T)


def test_sinusoid_fit_exact_recovery():
    v = np.linspace(0.0, 5.0, 60)
    a, b, c, d = 2.2, 0.7, 1.4, 0.3
    y = c * np.sin(a * v + b) + d
    w = np.full_like(v, 4.0)
    res = sinusoid_fit(v, y, w)
    assert res["chi2"] < 1e-16
    assert res["dof"] == 56
    assert res["a"] == pytest.approx(a, abs=1e-8)
    assert res["b"] == pytest.approx(b, abs=1e-8)
    assert res["c"] == pytest.approx(c, abs=1e-8)
    assert res["d"] == pytest.approx(d, abs=1e-8)
    assert res["notes"] == ""


def test_sinusoid_fit_canonicalizes():
    v = np.linspace(-2.0, 4.0, 50)
    # generated with a < 0 and c < 0: same curve as a canonical parameter set
    y = -1.1 * np.sin(-1.7 * v - 0.4) + 0.25
    res = sinusoid_fit(v, y, np.ones_like(v))
    assert res["a"] > 0
    assert res["c"] >= 0
    assert 0.0 <= res["b"] < 2 * math.pi
    model = res["c"] * np.sin(res["a"] * v + res["b"]) + res["d"]
    assert np.max(np.abs(model - y)) < 1e-8
    assert res["a"] == pytest.approx(1.7, abs=1e-8)


def test_sinusoid_fit_chi2_statistics():
    rng = np.random.default_rng(77)
    v = np.linspace(0.0, 6.0, 40)
    w = np.full_like(v, 9.0)
    dof = 36
    chi2s = []
    for _ in range(30):
        y = 1.2 * np.sin(1.9 * v + 0.5) + 0.1 + rng.normal(0, 1 / 3.0, v.size)
        chi2s.append(sinusoid_fit(v, y, w)["chi2"])
    assert abs(np.mean(chi2s) - dof) <= 3 * math.sqrt(2 * dof)


def test_sinusoid_fit_constant_data():
    v = np.linspace(0.0, 1.0, 20)
    y = np.full_like(v, 0.8)
    res = sinusoid_fit(v, y, np.ones_like(v))
    assert abs(res["c"]) < 1e-6
    assert "unidentifiable" in res["notes"]
    assert res["d"] == pytest.approx(0.8, abs=1e-6)


def test_sinusoid_fit_gate_note():
    rng = np.random.default_rng(3)
    v = np.linspace(0.0, 6.0, 40)
    y = 1.2 * np.sin(1.9 * v + 0.5) + rng.normal(0, 0.3, v.size)
    res = sinusoid_fit(v, y, np.full_like(v, 1e4))  # wildly overstated weights
    assert "cutoff" in res["notes"]
    ok = sinusoid_fit(v, y, np.full_like(v, 1 / 0.09))
    assert "cutoff" not in ok["notes"]


def test_sinusoid_fit_validation():
    with pytest.raises(ValueError):
        sinusoid_fit([0, 1, 2, 3], [0, 1, 0, -1], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        sinusoid_fit([0, 1, 2, 3, 4], [0, 1, 0, -1, 0], [1, 1, 0, 1, 1])
    with pytest.raises(ValueError):
        sinusoid_fit([0, 1, 2, 3, 4], [0, 1, 0, -1], [1, 1, 1, 1])


def test_bootstrap_report_validation():
    with pytest.raises(ValueError):
        BootstrapReport(original_lr=1.0, boot_lrs=[], sigma_deviation=0.0)


def test_parametric_bootstrap_model_matched(small_problem):
    rho, ctx = small_problem
    M_i = [600] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=9)
    fit = reconstruct(ctx, data)
    report = parametric_bootstrap(fit.estimate, ctx, M_i, n_boot=8,
                                  params=None, seed=123, dataset=data)
    assert len(report.boot_lrs) == 8
    assert all(lr >= 0 for lr in report.boot_lrs)
    assert report.original_lr >= 0
    assert abs(report.sigma_deviation) <= 3.0
    d = report.to_json()
    assert set(d) == {"original_lr", "boot_lrs", "sigma_deviation", "replicates"}


def test_parametric_bootstrap_deterministic(small_problem):
    rho, ctx = small_problem
    M_i = [300] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=5)
    fit = reconstruct(ctx, data)
    r1 = parametric_bootstrap(fit.estimate, ctx, M_i, 3, None, 55, data)
    r2 = parametric_bootstrap(fit.estimate, ctx, M_i, 3, None, 55, data)
    assert r1.boot_lrs == r2.boot_lrs
    assert r1.original_lr == r2.original_lr
    r3 = parametric_bootstrap(fit.estimate, ctx, M_i, 3, None, 56, data)
    assert r3.boot_lrs != r1.boot_lrs


def test_parametric_bootstrap_minimal_and_invalid(small_problem):
    rho, ctx = small_problem
    M_i = [200] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=6)
    fit = reconstruct(ctx, data)
    report = parametric_bootstrap(fit.estimate, ctx, M_i, 2, None, 1, data)
    assert math.isfinite(report.sigma_deviation)
    with pytest.raises(ValueError):
        parametric_bootstrap(fit.estimate, ctx, M_i, 1, None, 1, data)


def test_parametric_bootstrap_parallel_matches_serial(small_problem):
    rho, ctx = small_problem
    M_i = [200] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=7)
    fit = reconstruct(ctx, data)
    serial = parametric_bootstrap(fit.estimate, ctx, M_i, 4, None, 99, data)
    parallel = parametric_bootstrap(fit.estimate, ctx, M_i, 4, None, 99, data,
                                    n_jobs=2)
    assert serial.boot_lrs == parallel.boot_lrs


def test_parametric_bootstrap_flags_nonconverged_replicates(small_problem):
    rho, ctx = small_problem
    M_i = [200] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=6)
    fit = reconstruct(ctx, data)
    full = parametric_bootstrap(fit.estimate, ctx, M_i, 3, None, 4, data)
    assert [r["termination"] for r in full.replicates] == ["stopped_on_r"] * 3
    assert full.nonconverged == 0
    capped = parametric_bootstrap(fit.estimate, ctx, M_i, 3,
                                  ReconstructionParams(r_stop=1e-15, max_iter=2), 4, data)
    # flagged, not dropped: every replicate still contributes its LR
    assert len(capped.boot_lrs) == 3
    assert capped.nonconverged == 3
    for rep in capped.to_json()["replicates"]:
        assert rep["termination"] == "max_iter"
        assert rep["iterations"] == 2
        assert rep["r_k"] > 1e-15


@pytest.mark.parametrize("params", [None, ReconstructionParams(r_stop=1e-15, max_iter=2)])
def test_parametric_bootstrap_lrs_score_each_refit(small_problem, params):
    rho, ctx = small_problem
    M_i = [200] * len(ctx.settings)
    data = simulate_dataset(rho, ctx, M_i, seed=6)
    estimate = reconstruct(ctx, data).estimate
    report = parametric_bootstrap(estimate, ctx, M_i, 3, params, 4, data)
    for j, lr in enumerate(report.boot_lrs):
        data_j = simulate_dataset(estimate, ctx, M_i, setting_seed(4, j))
        fit = reconstruct(ctx, data_j, params)
        assert lr == log_lr(log_likelihood(fit.estimate, ctx, data_j), data_j.counts)
        assert report.replicates[j] == {"termination": fit.termination,
                                        "iterations": fit.iterations, "r_k": fit.rk_trace[-1]}
    expected = "stopped_on_r" if params is None else "max_iter"
    assert [r["termination"] for r in report.replicates] == [expected] * 3
