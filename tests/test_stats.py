import math

import pytest

from wfhtomo._rng import setting_seed
from wfhtomo.fock import StateSpec, make_state
from wfhtomo.mle import ReconstructionParams, log_likelihood, reconstruct
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.probes import design_gamma
from wfhtomo.sim import simulate_dataset
from wfhtomo.stats import BootstrapReport, log_lr, parametric_bootstrap, refit_replicates
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


def test_bootstrap_p_value_counts_replicates_at_or_above_observed():
    report = BootstrapReport(original_lr=2.0, boot_lrs=[1.0, 2.0, 3.0, 0.5], sigma_deviation=0.0,
                             replicates=[], method="apg")
    assert report.p_value == (1 + 2) / (4 + 1)
    assert report.to_json()["p_value"] == report.p_value


def test_bootstrap_report_validation():
    with pytest.raises(ValueError):
        BootstrapReport(original_lr=1.0, boot_lrs=[], sigma_deviation=0.0,
                        replicates=[], method="diluted")


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
    assert set(d) == {"original_lr", "boot_lrs", "sigma_deviation", "p_value", "replicates"}


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


def test_apg_bootstrap_refits_start_at_the_estimate_within_the_certificate(small_problem):
    # a warm refit and a cold fit of one replicate both end certified, so each
    # log-likelihood lies within M r_k of the maximum and their LRs within
    # 2 M max(r_k) of each other
    rho, ctx = small_problem
    M_i = [600] * len(ctx.settings)
    apg = ReconstructionParams(method="apg")
    data = simulate_dataset(rho, ctx, M_i, seed=9)
    estimate = reconstruct(ctx, data, apg).estimate
    report = parametric_bootstrap(estimate, ctx, M_i, 8, apg, 123, data)
    warm_iterations = cold_iterations = 0
    for j, (lr, replicate) in enumerate(zip(report.boot_lrs, report.replicates)):
        data_j = simulate_dataset(estimate, ctx, M_i, setting_seed(123, j))
        assert math.isfinite(log_likelihood(estimate, ctx, data_j))
        warm = reconstruct(ctx, data_j, apg, start=estimate)
        assert replicate == {"termination": warm.termination, "iterations": warm.iterations,
                             "r_k": warm.rk_trace[-1]}
        assert lr == log_lr(warm.loglik_trace[-1], data_j.counts)
        cold = reconstruct(ctx, data_j, apg)
        assert warm.termination == cold.termination == "stopped_on_r"
        bound = 2 * data_j.total_shots() * max(warm.rk_trace[-1], cold.rk_trace[-1])
        assert abs(lr - log_lr(cold.loglik_trace[-1], data_j.counts)) <= bound <= 2.0
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
    assert warm_iterations < cold_iterations


def test_diluted_fit_takes_no_start(small_problem):
    rho, ctx = small_problem
    data = simulate_dataset(rho, ctx, [200] * len(ctx.settings), seed=6)
    with pytest.raises(ValueError, match="maximally mixed"):
        reconstruct(ctx, data, ReconstructionParams(), start=rho)


@pytest.mark.parametrize("n", [0, 1, 3, 5, 9])
def test_refit_replicates_in_groups_match_one_fit_per_replicate(small_problem, n):
    # replicates are drawn in runs of up to 4, each run in one lane pass, and the
    # runs are split among the workers; every record is that of replicate j alone
    rho, ctx = small_problem
    M_i = [300] * len(ctx.settings)
    params = ReconstructionParams(method="apg")

    def record(f):
        return (f.seed, f.termination, f.iterations, f.loglik, f.r_k, f.lr,
                [m.tobytes() for m in f.estimate.blocks.values()])

    want = []
    for j in range(n):
        data = simulate_dataset(rho, ctx, M_i, setting_seed(8, j))
        fit = reconstruct(ctx, data, params)
        want.append((data.seed, fit.termination, fit.iterations, fit.loglik_trace[-1],
                     fit.rk_trace[-1], log_lr(fit.loglik_trace[-1], data.counts),
                     [m.tobytes() for m in fit.estimate.blocks.values()]))
    for jobs in (0, 1, 2):  # 0 requests no pool, as 1 does
        assert [record(f) for f in refit_replicates(rho, ctx, M_i, n, params, 8, jobs)] == want


def _p_values(truth, draw_ctx, fit_ctx, seed):
    """Bootstrap p-values of K = 40 datasets of 600 shots per setting, drawn
    from ``truth`` through ``draw_ctx`` with seeds setting_seed(seed, k), each
    fitted through ``fit_ctx`` and bootstrapped with B = 19 APG refits."""
    apg = ReconstructionParams(method="apg")
    M_i = [600] * len(fit_ctx.settings)
    datasets = simulate_dataset(truth, draw_ctx, M_i, [setting_seed(seed, k) for k in range(40)])
    return [parametric_bootstrap(reconstruct(fit_ctx, data, apg).estimate, fit_ctx, M_i, 19,
                                 apg, k, data).p_value for k, data in enumerate(datasets)]


def test_parametric_bootstrap_holds_its_size(small_problem):
    # under the true model P(p <= 0.1) = 0.1: of 40 datasets at most 11 may reach
    # it, the binomial(40, 0.1) 99.9 % quantile
    rho, ctx = small_problem
    assert sum(p <= 0.1 for p in _p_values(rho, ctx, ctx, 2013)) <= 11


def test_parametric_bootstrap_rejects_unmodelled_loss(small_problem):
    # data drawn through counters of transmission 0.85 and fitted as lossless
    rho, ctx = small_problem
    lossy = MeasurementContext.build(
        [Setting(gamma=s.gamma, counter=CounterConfig(counters=2, N_c=4, loss=(0.85, 0.85)),
                 partition=s.partition, N=s.N) for s in ctx.settings])
    assert sum(p <= 0.05 for p in _p_values(rho, lossy, ctx, 1997)) >= 36
