import itertools
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from wfhtomo import povm as povm_module
from wfhtomo.fock import JsonFieldError, StateSpec, make_state
from wfhtomo.optics import PartitionSpec, standard_block
from wfhtomo.povm import (
    CounterConfig,
    MeasurementContext,
    PovmElement,
    Setting,
    apply_loss,
    build_povm,
    compose_response,
    ic_check,
    identity_response,
    pi_k,
    pi_kl,
)
from wfhtomo.probes import design_gamma
from wfhtomo.sim import born_table
from wfhtomo.twirl import BlockOperator, twirl_analytic

from block_reference import pair_trace

BAL = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=False)
BAL_MULTI = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=True)
P1 = PartitionSpec(sectors=((math.sqrt(0.6), math.sqrt(0.4)),), s1_multi=False)
P2 = PartitionSpec(sectors=((math.sqrt(0.7), math.sqrt(0.3)),
                            (math.sqrt(0.45), math.sqrt(0.55))), s1_multi=False)
CLICK = CounterConfig(counters=2, N_c=0)


def tuple_length(partition: PartitionSpec) -> int:
    return partition.K if partition.s1_multi else partition.K - 1


def povm_sum(povm):
    total = None
    for el in povm.values():
        total = el.op if total is None else total + el.op
    return total


def identity_dev(povm, N, partition):
    ident = BlockOperator.identity(N, tuple_length(partition))
    total = povm_sum(povm)
    return max(float(np.max(np.abs(total.blocks[k] - ident.blocks[k])))
               for k in total.blocks)


def test_pi_kl_gamma_zero_vacuum():
    el = pi_kl(0.0, 0, 0, P1, 3)
    vac = BlockOperator.zeros(3, 0)
    vac.blocks[()][0, 0] = 1.0
    assert abs(pair_trace(vac, el.op).real - 1.0) < 1e-14


def test_pi_kl_gamma_zero_one_photon_projector():
    # with no probe, one count at counter 1 means the input photon was
    # transmitted: Pi_10 = eta^2 |1><1| on the signal
    eta2 = 0.6
    el = pi_kl(0.0, 1, 0, P1, 4)
    blk = el.op.blocks[()]
    want = np.zeros((5, 5))
    want[1, 1] = eta2
    assert np.max(np.abs(blk - want)) < 1e-14


def test_pi_kl_vacuum_product_poisson():
    vac = BlockOperator.zeros(6, 0)
    vac.blocks[()][0, 0] = 1.0
    for k in range(4):
        for l in range(4):
            el = pi_kl(1.0, k, l, BAL, 6)
            want = math.exp(-1.0) * 0.5 ** (k + l) / (math.factorial(k) * math.factorial(l))
            assert abs(pair_trace(vac, el.op).real - want) < 1e-12


def test_pi_kl_psd_and_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(4):
        g = rng.uniform(0.2, 1.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        k, l = rng.integers(0, 4, size=2)
        el = pi_kl(g, int(k), int(l), P2, 4)
        assert el.op.max_abs_dev_from_hermitian() < 1e-12
        assert el.op.min_eigenvalue() >= -1e-9


@pytest.mark.parametrize("partition,assignment,spec", [
    (P1, [0], StateSpec(kind="coherent", N=6, alpha=0.5 + 0.2j)),
    (BAL_MULTI, [0, 0], StateSpec(kind="tmsv", N=3, r=0.5, phi=0.3)),
    (P2, [0, 1], StateSpec(kind="cat", N=5, alpha=0.6 + 0.3j)),
])
def test_pi_kl_matches_dense_oracle(partition, assignment, spec):
    state = make_state(spec)
    rho = state.density()
    N = rho.basis.cutoff
    chi = twirl_analytic(rho, assignment, partition, N)
    blocks = [standard_block(*partition.sectors[s]) for s in assignment]
    g = 0.8 - 0.4j
    table = born_table(rho, g, blocks)
    for k in range(4):
        for l in range(4):
            el = pi_kl(g, k, l, partition, N)
            p_analytic = pair_trace(chi, el.op).real
            assert abs(p_analytic - float(table[k, l])) < 1e-8


def test_pi_kl_rejects_large_k():
    p3 = PartitionSpec(sectors=((0.6, 0.8), (0.5, math.sqrt(0.75)),
                                (0.4, math.sqrt(0.84))), s1_multi=False)
    with pytest.raises(ValueError):
        pi_kl(0.5, 0, 0, p3, 2)


def test_pi_k_single_photon_reflected():
    # gamma=0: a lone input photon reaches counter 1 with probability eta^2,
    # so <1|Pi_0|1> = zeta^2
    el = pi_k(0.0, 0, P1, 3)
    assert abs(el.op.blocks[()][1, 1].real - 0.4) < 1e-12


def test_pi_k_vacuum_expectation():
    g = 1.1 - 0.6j
    el = pi_k(g, 0, P1, 4)
    want = math.exp(-0.4 * abs(g) ** 2)  # counter-1 amplitude is zeta*gamma
    assert abs(el.op.blocks[()][0, 0].real - want) < 1e-12


def test_pi_k_counter_two_vacuum_expectation():
    g = 0.9 + 0.3j
    el = pi_k(g, 0, P1, 4, counter=2)
    want = math.exp(-0.6 * abs(g) ** 2)  # counter-2 amplitude is -eta*gamma
    assert abs(el.op.blocks[()][0, 0].real - want) < 1e-12


def test_pi_k_completeness():
    g = 1.3 + 0.2j
    N = 4
    total = BlockOperator.zeros(N, 0)
    k = 0
    while True:
        el = pi_k(g, k, P1, N)
        total = total + el.op
        if k > 5 and float(np.max(np.abs(el.op.blocks[()]))) < 1e-13:
            break
        k += 1
    ident = BlockOperator.identity(N, 0)
    assert float(np.max(np.abs(total.blocks[()] - ident.blocks[()]))) < 1e-8


def test_pi_k_matches_oracle_marginal():
    spec = StateSpec(kind="coherent", N=6, alpha=0.5 + 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 6)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.9 - 0.3j
    table = born_table(rho, g, blocks)
    for k in range(4):
        el1 = pi_k(g, k, P1, 6, counter=1)
        assert abs(pair_trace(chi, el1.op).real - table[k, :].sum()) < 1e-10
        el2 = pi_k(g, k, P1, 6, counter=2)
        assert abs(pair_trace(chi, el2.op).real - table[:, k].sum()) < 1e-10


def test_overflow_element_count_and_identity():
    g = 0.8 + 0.5j
    N, n_c = 4, 3
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=n_c),
                      partition=P1, N=N)
    povm = build_povm(setting)
    assert len(povm) == (n_c + 2) ** 2
    assert identity_dev(povm, N, P1) < 1e-8
    for el in povm.values():
        assert el.op.min_eigenvalue() >= -1e-9
    # overflow labels present in construction order
    keys = list(povm)
    assert keys[: (n_c + 1) ** 2] == [(k, l) for k in range(n_c + 1)
                                      for l in range(n_c + 1)]
    assert keys[-1] == (">", ">")


def test_overflow_negligible_for_large_n_c():
    g = 0.4
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=14),
                      partition=P1, N=2)
    povm = build_povm(setting)
    for outcome, el in povm.items():
        if ">" in outcome:
            assert el.op.max_eigenvalue() < 1e-8


def test_overflow_matches_oracle_tail():
    spec = StateSpec(kind="coherent", N=5, alpha=0.4 + 0.1j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 1.2 - 0.7j
    n_c = 3
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=n_c),
                      partition=P1, N=5)
    povm = build_povm(setting)
    table = born_table(rho, g, blocks)
    for k in range(n_c + 1):
        want = table[k, n_c + 1:].sum()
        assert abs(pair_trace(chi, povm[(k, ">")].op).real - want) < 1e-9
        want = table[n_c + 1:, k].sum()
        assert abs(pair_trace(chi, povm[(">", k)].op).real - want) < 1e-9
    want = table[n_c + 1:, n_c + 1:].sum()
    assert abs(pair_trace(chi, povm[(">", ">")].op).real - want) < 1e-9


def test_apply_loss_nu_one_is_identity():
    g = 0.7 + 0.2j
    N = 3
    rect = {(m, n): pi_kl(g, m, n, P1, N) for m in range(8) for n in range(8)}
    out = apply_loss(rect, 1.0, 1.0, conv_cut=7)
    for key in rect:
        assert float(np.max(np.abs(out[key].op.blocks[()] - rect[key].op.blocks[()]))) == 0.0


def test_apply_loss_nu_zero_sends_everything_to_zero_counts():
    g = 0.7 + 0.2j
    N = 3
    cut = 20
    rect = {(m, n): pi_kl(g, m, n, P1, N) for m in range(cut + 1)
            for n in range(cut + 1)}
    out = apply_loss(rect, 0.0, 0.0, conv_cut=cut)
    ident = BlockOperator.identity(N, 0)
    assert float(np.max(np.abs(out[(0, 0)].op.blocks[()] - ident.blocks[()]))) < 1e-10
    assert out[(2, 1)].op.max_eigenvalue() < 1e-14


def test_apply_loss_composition():
    g = 0.9 - 0.4j
    N = 3
    cut = 22
    nu_a, nu_b = 0.9, 0.8
    rect = {(m, n): pi_kl(g, m, n, P1, N) for m in range(cut + 1)
            for n in range(cut + 1)}
    once = apply_loss(rect, nu_a * nu_b, nu_a * nu_b, conv_cut=cut)
    twice = apply_loss(apply_loss(rect, nu_a, nu_a, conv_cut=cut),
                       nu_b, nu_b, conv_cut=cut)
    for k in range(4):
        for l in range(4):
            d = float(np.max(np.abs(once[(k, l)].op.blocks[()]
                                    - twice[(k, l)].op.blocks[()])))
            assert d < 1e-9


def test_loss_povm_matches_thinned_oracle():
    spec = StateSpec(kind="coherent", N=5, alpha=0.5 + 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.9 - 0.3j
    nu1, nu2 = 0.85, 0.7
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=3, loss=(nu1, nu2)),
                      partition=P1, N=5)
    povm = build_povm(setting)
    assert identity_dev(povm, 5, P1) < 1e-8
    table = born_table(rho, g, blocks)
    d = table.shape[0]
    t1 = np.array([[math.comb(m, k) * nu1 ** k * (1 - nu1) ** (m - k) if k <= m else 0.0
                    for m in range(d)] for k in range(d)])
    t2 = np.array([[math.comb(m, k) * nu2 ** k * (1 - nu2) ** (m - k) if k <= m else 0.0
                    for m in range(d)] for k in range(d)])
    thinned = t1 @ table @ t2.T
    for k in range(4):
        for l in range(4):
            assert abs(pair_trace(chi, povm[(k, l)].op).real - thinned[k, l]) < 1e-9
    for k in range(4):
        assert abs(pair_trace(chi, povm[(k, ">")].op).real - thinned[k, 4:].sum()) < 1e-9


def test_single_counter_povm():
    spec = StateSpec(kind="coherent", N=5, alpha=0.5 + 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.9 - 0.3j
    setting = Setting(gamma=g, counter=CounterConfig(counters=1, N_c=4),
                      partition=P1, N=5)
    povm = build_povm(setting)
    assert len(povm) == 6
    assert identity_dev(povm, 5, P1) < 1e-8
    table = born_table(rho, g, blocks)
    for k in range(5):
        assert abs(pair_trace(chi, povm[(k,)].op).real - table[k, :].sum()) < 1e-9
    assert abs(pair_trace(chi, povm[(">",)].op).real - table[5:, :].sum()) < 1e-9


def test_single_counter_with_loss():
    spec = StateSpec(kind="coherent", N=5, alpha=0.5 + 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.9 - 0.3j
    nu = 0.9
    setting = Setting(gamma=g, counter=CounterConfig(counters=1, N_c=4, loss=(nu,)),
                      partition=P1, N=5)
    povm = build_povm(setting)
    assert identity_dev(povm, 5, P1) < 1e-8
    table = born_table(rho, g, blocks)
    marg = table.sum(axis=1)
    d = marg.size
    thin = np.array([sum(math.comb(m, k) * nu ** k * (1 - nu) ** (m - k) * marg[m]
                         for m in range(k, d)) for k in range(d)])
    for k in range(5):
        assert abs(pair_trace(chi, povm[(k,)].op).real - thin[k]) < 1e-9


def test_compose_response_nu_one_is_plain_response():
    T = identity_response(3, 12)
    assert np.max(np.abs(compose_response(T, 1.0) - T)) == 0.0


def test_compose_response_columns_sum_to_one():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.1, 1.0, size=(5, 9))
    T = raw / raw.sum(axis=0)
    for nu in (0.3, 0.75, 1.0):
        Tp = compose_response(T, nu)
        assert np.max(np.abs(Tp.sum(axis=0) - 1.0)) < 1e-12


def test_identity_response_reproduces_ideal_povm():
    spec = StateSpec(kind="coherent", N=5, alpha=0.5 + 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.9 - 0.3j
    n_c = 3
    T = identity_response(n_c, 22)
    cfg = CounterConfig(counters=2, N_c=n_c, response=(T, T))
    povm = build_povm(Setting(gamma=g, counter=cfg, partition=P1, N=5))
    assert identity_dev(povm, 5, P1) < 1e-8
    table = born_table(rho, g, blocks)
    for k in range(n_c + 1):
        for l in range(n_c + 1):
            assert abs(pair_trace(chi, povm[(k, l)].op).real - table[k, l]) < 1e-9


def test_noisy_response_povm():
    # smear each count symmetrically onto its neighbors and check the POVM
    # still resolves the identity and reproduces the smeared oracle table
    n_c, m_cut = 3, 22
    T = np.zeros((n_c + 2, m_cut + 1))
    for m in range(m_cut + 1):
        for o, w in ((m - 1, 0.15), (m, 0.7), (m + 1, 0.15)):
            if o < 0:
                T[0, m] += w
            elif o > n_c:
                T[n_c + 1, m] += w
            else:
                T[o, m] += w
    cfg = CounterConfig(counters=2, N_c=n_c, response=(T, T))
    g = 0.8 + 0.3j
    povm = build_povm(Setting(gamma=g, counter=cfg, partition=P1, N=4))
    assert identity_dev(povm, 4, P1) < 1e-8
    spec = StateSpec(kind="coherent", N=4, alpha=0.3 - 0.2j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 4)
    table = born_table(rho, g, [standard_block(*P1.sectors[0])])
    d = table.shape[0]
    Tfull = np.zeros((n_c + 2, d))
    Tfull[:, : m_cut + 1] = T[:, :d] if d <= m_cut + 1 else T
    if d > m_cut + 1:
        Tfull = np.hstack([T, np.tile(T[:, -1:], (1, d - m_cut - 1))])
    smeared = Tfull @ table @ Tfull.T
    for k in range(n_c + 1):
        for l in range(n_c + 1):
            assert abs(pair_trace(chi, povm[(k, l)].op).real - smeared[k, l]) < 1e-9


def test_response_with_loss_composes():
    g = 0.6 + 0.1j
    n_c, m_cut = 2, 20
    T = identity_response(n_c, m_cut)
    nu = 0.8
    cfg_resp = CounterConfig(counters=2, N_c=n_c, loss=(nu, nu), response=(T, T))
    povm_a = build_povm(Setting(gamma=g, counter=cfg_resp, partition=P1, N=3))
    cfg_loss = CounterConfig(counters=2, N_c=n_c, loss=(nu, nu))
    povm_b = build_povm(Setting(gamma=g, counter=cfg_loss, partition=P1, N=3))
    for k in range(n_c + 1):
        for l in range(n_c + 1):
            d = float(np.max(np.abs(povm_a[(k, l)].op.blocks[()]
                                    - povm_b[(k, l)].op.blocks[()])))
            assert d < 1e-9


def test_click_povm_identity_and_vacuum():
    g = 0.9 - 0.2j
    povm = build_povm(Setting(g, CLICK, P1, 4, detector="click"))
    assert set(povm) == {(0, 0), ("I", 0), (0, "I"), ("I", "I")}
    assert identity_dev(povm, 4, P1) < 1e-10
    vac = BlockOperator.zeros(4, 0)
    vac.blocks[()][0, 0] = 1.0
    p00 = pair_trace(vac, povm[(0, 0)].op).real
    assert abs(p00 - math.exp(-abs(g) ** 2)) < 1e-12
    povm0 = build_povm(Setting(0.0, CLICK, P1, 4, detector="click"))
    assert abs(pair_trace(vac, povm0[(0, 0)].op).real - 1.0) < 1e-12


def test_click_povm_no_count_element_is_scaled_vacuum():
    # the double-dark element only sees the chi_{0,00} entry of the state
    g = 0.7 + 0.4j
    povm = build_povm(Setting(g, CLICK, BAL_MULTI, 3, detector="click"))
    el = povm[(0, 0)].op
    for key, blk in el.blocks.items():
        want = np.zeros_like(blk)
        if key == (0,):
            want[0, 0] = math.exp(-abs(g) ** 2)
        assert np.max(np.abs(blk - want)) < 1e-12


def test_click_povm_matches_oracle():
    spec = StateSpec(kind="coherent", N=5, alpha=0.4 + 0.3j)
    rho = make_state(spec).density()
    chi = twirl_analytic(rho, [0], P1, 5)
    blocks = [standard_block(*P1.sectors[0])]
    g = 0.8 - 0.5j
    povm = build_povm(Setting(g, CLICK, P1, 5, detector="click"))
    table = born_table(rho, g, blocks)
    assert abs(pair_trace(chi, povm[(0, 0)].op).real - table[0, 0]) < 1e-9
    assert abs(pair_trace(chi, povm[("I", 0)].op).real - table[1:, 0].sum()) < 1e-9
    assert abs(pair_trace(chi, povm[(0, "I")].op).real - table[0, 1:].sum()) < 1e-9
    assert abs(pair_trace(chi, povm[("I", "I")].op).real - table[1:, 1:].sum()) < 1e-9


def test_click_povm_requires_k1():
    with pytest.raises(ValueError):
        build_povm(Setting(0.5, CLICK, P2, 3, detector="click"))


def test_setting_click_with_loss_rejected():
    cfg = CounterConfig(counters=2, N_c=1, loss=(0.9, 0.9))
    with pytest.raises(ValueError):
        Setting(gamma=0.5, counter=cfg, partition=P1, N=3, detector="click")


def test_measurement_context_build_and_json():
    gammas = [0.5, 0.9 * np.exp(1j * np.pi / 7)]
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=3),
                        partition=P1, N=3) for g in gammas]
    ctx = MeasurementContext.build(settings)
    assert len(ctx.povms) == 2
    ctx2 = MeasurementContext.from_json(ctx.to_json())
    assert len(ctx2.povms) == 2
    for povm_a, povm_b in zip(ctx.povms, ctx2.povms):
        assert list(povm_a) == list(povm_b)
        for key in povm_a:
            d = float(np.max(np.abs(povm_a[key].op.blocks[()]
                                    - povm_b[key].op.blocks[()])))
            assert d == 0.0


def test_ic_check_six_probe_rank():
    gammas = [0.3, 0.6 * np.exp(1j * np.pi / 6), 0.9 * np.exp(2j * np.pi / 6),
              1.2 * np.exp(3j * np.pi / 6), 1.5 * np.exp(4j * np.pi / 6),
              1.8 * np.exp(5j * np.pi / 6)]
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=9),
                        partition=BAL_MULTI, N=5) for g in gammas]
    ctx = MeasurementContext.build(settings)
    res = ic_check(ctx)
    assert res["rank"] == 91
    assert res["required"] == 91
    assert res["is_ic"] is True


def test_ic_check_single_probe_deficient():
    settings = [Setting(gamma=0.7, counter=CounterConfig(counters=2, N_c=6),
                        partition=BAL_MULTI, N=2)]
    res = ic_check(MeasurementContext.build(settings))
    assert res["is_ic"] is False
    assert res["rank"] < res["required"]


def test_ic_check_n_zero():
    settings = [Setting(gamma=0.4, counter=CounterConfig(counters=2, N_c=2),
                        partition=BAL_MULTI, N=0)]
    res = ic_check(MeasurementContext.build(settings))
    assert res == {"rank": 1, "required": 1, "is_ic": True, "ic_margin": 1.0}


@pytest.mark.parametrize("N, N_c, gammas", [
    (3, 6, design_gamma(3, 7).gammas),  # the README quick-start's probes and counter
    (5, 9, [r * np.exp(1j * np.pi * k / 6) for k, r in enumerate([0.3, 0.6, 0.9, 1.2, 1.5, 1.8])]),
    (2, 6, [0.7]),  # not IC
])
def test_ic_margin_matches_an_independent_svd(N, N_c, gammas):
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=N_c),
                        partition=BAL_MULTI, N=N) for g in gammas]
    ctx = MeasurementContext.build(settings)
    res = ic_check(ctx)
    sv = np.linalg.svd(ctx.P, compute_uv=False)
    kept = sv[sv >= 1e-10 * sv[0]]
    assert res["rank"] == len(kept)
    assert res["ic_margin"] == pytest.approx(kept[-1] / kept[0], rel=1e-12, abs=0)
    assert type(res["ic_margin"]) is float


def test_ic_check_rank_monotone_in_settings():
    gammas = [0.4, 0.8 * np.exp(1j * 0.9), 1.2 * np.exp(1j * 1.7), 1.6 * np.exp(1j * 2.4)]
    prev = 0
    for n in range(1, 5):
        settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                            partition=BAL_MULTI, N=2) for g in gammas[:n]]
        res = ic_check(MeasurementContext.build(settings))
        assert res["rank"] >= prev
        assert res["rank"] <= res["required"]
        prev = res["rank"]


def test_ic_check_rejects_mixed_contexts():
    s1 = Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=3), partition=P1, N=3)
    s2 = Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=3), partition=P1, N=4)
    with pytest.raises(ValueError, match=re.escape("settings[1].N differs")):
        MeasurementContext.build([s1, s2])


def test_counter_config_validation():
    with pytest.raises(ValueError):
        CounterConfig(counters=3, N_c=2)
    with pytest.raises(ValueError):
        CounterConfig(counters=2, N_c=2, loss=(0.5,))
    with pytest.raises(ValueError):
        CounterConfig(counters=1, N_c=2, loss=(1.5,))
    bad = np.full((4, 6), 0.3)
    with pytest.raises(ValueError):
        CounterConfig(counters=1, N_c=2, response=(bad,))


def test_counter_config_rejects_non_matrix_response():
    with pytest.raises(ValueError, match="response"):
        CounterConfig(counters=1, N_c=0, response=(np.array([0.5, 0.5]),))


def test_setting_json_roundtrip():
    T = identity_response(2, 10)
    cfg = CounterConfig(counters=2, N_c=2, loss=(0.9, 0.8), response=(T, T))
    s = Setting(gamma=0.4 - 0.6j, counter=cfg, partition=P2, N=3)
    s2 = Setting.from_json(s.to_json())
    assert s2.gamma == s.gamma
    assert s2.N == s.N
    assert s2.partition == s.partition
    assert s2.counter.loss == cfg.loss
    assert np.max(np.abs(s2.counter.response[0] - T)) == 0.0


def _poisson_with_tail(mean, n_c):
    """P(n = j) for j <= n_c, then P(n > n_c) as a direct sum (no complement)."""
    pmf = [math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) for j in range(n_c + 1)]
    tail = math.fsum(math.exp(j * math.log(mean) - mean - math.lgamma(j + 1))
                     for j in range(n_c + 1, n_c + 400))
    return {**dict(enumerate(pmf)), ">": tail}


@pytest.mark.parametrize("partition", [P1, BAL_MULTI])
@pytest.mark.parametrize("radius", [0.3, 2.7, 6.0, 7.0])
@pytest.mark.parametrize("loss", [None, (0.8, 0.7)])
def test_vacuum_entries_are_poisson_products(partition, radius, loss):
    # a vacuum input leaves independent Poisson counts with means
    # nu1 zeta^2 |gamma|^2 and nu2 eta^2 |gamma|^2, so the vacuum entry of
    # every element is a product of one pmf or tail per counter
    n_c = 6
    g = radius * np.exp(0.6j)
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=n_c, loss=loss),
                      partition=partition, N=3)
    povm = build_povm(setting)
    assert len(povm) == (n_c + 2) ** 2
    nu1, nu2 = loss or (1.0, 1.0)
    eta, zeta = partition.sectors[0]
    p1 = _poisson_with_tail(nu1 * zeta ** 2 * radius ** 2, n_c)
    p2 = _poisson_with_tail(nu2 * eta ** 2 * radius ** 2, n_c)
    vac = (0,) * tuple_length(partition)
    for (k, l), el in povm.items():
        assert el.op.blocks[vac][0, 0].real == pytest.approx(p1[k] * p2[l], rel=1e-9, abs=0)


def test_setting_rejects_non_finite_gamma():
    cfg = CounterConfig(counters=2, N_c=2)
    for g in (complex(math.nan, 0.0), complex(0.3, math.inf)):
        with pytest.raises(ValueError, match="gamma"):
            Setting(gamma=g, counter=cfg, partition=P1, N=2)


def test_counter_config_rejects_non_finite_response():
    T = identity_response(2, 5)
    T[0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        CounterConfig(counters=1, N_c=2, response=(T,))


def test_context_build_rejects_nan_completeness(monkeypatch):
    import wfhtomo.povm as povm_module

    setting = Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=1), partition=P1, N=2)
    block_rows, last = povm_module._block_rows, iter([False, True])

    def with_nan(*args):
        out = block_rows(*args)
        if next(last):  # the kernel pass's output, which holds element (0, 0) first
            out[0, 0] = math.nan  # element (0, 0), vacuum entry
        return out
    monkeypatch.setattr(povm_module, "_block_rows", with_nan)
    with pytest.raises(ValueError, match="sums to identity"):
        MeasurementContext.build([setting])


@pytest.mark.parametrize("loss", [None, (0.8, 0.7)])
def test_quick_start_context_rows_match_each_setting_built_alone(loss):
    # the README context's 16 probes go through the kernel in one pass; each
    # setting's labels and rows of P are bit for bit those it gets built alone
    readme = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=6, loss=loss),
                        partition=readme, N=3) for g in design_gamma(3, seed=7).gammas]
    assert len(settings) == 16
    context = MeasurementContext.build(settings)
    each = np.split(context.P, context.offsets[1:-1])
    for setting, labels, rows in zip(settings, context.labels, each, strict=True):
        alone = MeasurementContext.build([setting])
        assert labels == alone.labels[0]
        assert rows.tobytes() == alone.P.tobytes()


def held_arrays(obj) -> list:
    """Every ndarray an object holds in an attribute, alone or in a list or tuple."""
    found = []
    for value in vars(obj).values():
        found += [v for v in (value if isinstance(value, (list, tuple)) else [value])
                  if isinstance(v, np.ndarray)]
    return found


def test_a_loaded_context_holds_only_its_design_matrix():
    # a load of the README context keeps P (240 KiB), its row offsets and the
    # layout's maps, and no complex array of its own: the elements' rows are
    # never stacked, and povms builds them again when it is first read
    readme = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=6), partition=readme,
                        N=3) for g in design_gamma(3, seed=7).gammas]
    context = MeasurementContext.from_json(
        json.loads(json.dumps(MeasurementContext.build(settings).to_json())))
    assert not any(np.iscomplexobj(a) for a in held_arrays(context))
    maps = sum(a.nbytes for a in held_arrays(povm_module._layout(readme, 3)))
    held = sum(a.nbytes for a in held_arrays(context) + held_arrays(context.coords))
    assert held <= context.P.nbytes + context.offsets.nbytes + maps


def test_two_loads_of_one_context_file_share_nothing(tmp_path):
    # a load keeps nothing for the next one: no array of one context or of its
    # layout, lazy views included, shares memory with the other's
    readme = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=6, loss=(0.8, 0.7)),
                        partition=readme, N=3) for g in design_gamma(3, seed=7).gammas]
    path = tmp_path / "context.json"
    path.write_text(json.dumps(MeasurementContext.build(settings).to_json()))
    a, b = (MeasurementContext.from_json(json.loads(path.read_text())) for _ in range(2))
    for context in (a, b):
        assert context.row_of and context.povms  # built on first use
    assert a.coords is not b.coords
    mine, theirs = held_arrays(a) + held_arrays(a.coords), held_arrays(b) + held_arrays(b.coords)
    assert len(mine) == len(theirs) > 16
    for x in mine:
        for y in theirs:
            assert not np.shares_memory(x, y)


@pytest.mark.parametrize("field, key, value", [
    ("counter", "n_c", 6.0), ("counter", "counters", 2.0), ("partition", "s1_multi", 1)])
def test_a_repeated_counter_or_partition_is_still_checked_in_each_setting(field, key, value):
    # a load parses a counter or partition that settings repeat verbatim once; a
    # copy that Python finds equal but that holds another JSON type is checked anew
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=6), partition=BAL_MULTI,
                        N=2) for g in (0.5, 1j, -0.7)]
    payload = MeasurementContext.build(settings).to_json()
    loaded = MeasurementContext.from_json(json.loads(json.dumps(payload)))
    assert loaded.settings[0].counter is loaded.settings[2].counter
    assert loaded.settings[0].partition is loaded.settings[2].partition
    assert payload["settings"][2][field][key] == value  # equal in Python, not in JSON
    payload["settings"][2][field][key] = value
    with pytest.raises(JsonFieldError, match=re.escape(f"settings[2].{field}.{key} must be")):
        MeasurementContext.from_json(payload)


def test_context_json_ignores_truncation_keys():
    settings = [Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=3, loss=(0.8, 0.7)),
                        partition=P1, N=3)]
    payload = MeasurementContext.build(settings).to_json()
    assert set(payload) == {"settings"}
    old = MeasurementContext.from_json({**payload, "tail_tol": 1e-3, "conv_cut": 4})
    new = MeasurementContext.from_json(payload)
    for key in new.povms[0]:
        assert np.array_equal(old.povms[0][key].op.blocks[()], new.povms[0][key].op.blocks[()])


@pytest.mark.parametrize("loss", [None, (0.8, 0.7)])
def test_elements_are_hermitian_and_design_matrix_unchanged(monkeypatch, loss):
    # the quick-start probes; storing (E + E^dag)/2 leaves every row of P
    # bitwise as it was with the elements as the kernel computed them
    balanced = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)
    counter = CounterConfig(counters=2, N_c=6, loss=loss)
    settings = [Setting(gamma=g, counter=counter, partition=balanced, N=3)
                for g in design_gamma(3, 7).gammas]
    ctx = MeasurementContext.build(settings)
    for povm in ctx.povms:
        for e in povm.values():
            for m in e.op.blocks.values():
                assert np.array_equal(m, m.conj().T)

    def unsymmetrised(labels, rows, layout, gamma):
        return {label: PovmElement(label, layout.unstack(row), complex(gamma))
                for label, row in zip(labels, rows)}
    monkeypatch.setattr(povm_module, "_wrap", unsymmetrised)
    raw = MeasurementContext.build(settings)
    assert max(np.max(np.abs(m - m.conj().T)) for povm in raw.povms
               for e in povm.values() for m in e.op.blocks.values()) > 0
    assert ctx.P.tobytes() == raw.P.tobytes()


def aux_weights_by_split(partition, layout, nu1, nu2):
    # the chance of each block's auxiliary photons putting x at counter 1 and y at
    # counter 2, one split of every slot at a time, in lexicographic order
    from wfhtomo.twirl import slot_sectors
    shares = [(nu1 * e ** 2, nu2 * z ** 2, (1 - nu1) * e ** 2 + (1 - nu2) * z ** 2)
              for e, z in (partition.sectors[slot]
                           for slot in slot_sectors(partition.K, partition.s1_multi))]
    w = np.zeros((len(layout.keys), layout.N + 1, layout.N + 1))
    for b, key in enumerate(layout.keys):
        splits = ([(x, y, math.comb(i, x) * math.comb(i - x, y) * p1 ** x * p2 ** y
                    * p0 ** (i - x - y)) for x in range(i + 1) for y in range(i + 1 - x)]
                  for i, (p1, p2, p0) in zip(key, shares))
        for parts in itertools.product(*splits):
            x, y = sum(p[0] for p in parts), sum(p[1] for p in parts)
            w[b, x, y] += math.prod(p[2] for p in parts)
    return w


@pytest.mark.parametrize("K, s1_multi, N", [(1, False, 3), (1, True, 4), (2, True, 3),
                                            (3, False, 4), (3, True, 3), (4, True, 4)])
@pytest.mark.parametrize("nus", [(1.0, 1.0), (1.0, 0.0), (0.8, 0.7)])
def test_aux_weights_sum_each_split_in_order(K, s1_multi, N, nus):
    # bit for bit the per-split sum at 0 to 4 slots (the kernel takes K <= 2, so
    # at most 2), which any faster form must keep; summing one slot's splits
    # before the next slot's product, as a running convolution does, moves bits
    # from 3 slots on
    angles = np.linspace(0.3, 1.2, K)
    partition = PartitionSpec(sectors=tuple((math.cos(a), math.sin(a)) for a in angles),
                              s1_multi=s1_multi)
    layout = povm_module._layout(partition, N)
    w = povm_module._aux_weights(partition, layout, *nus)
    assert w.tobytes() == aux_weights_by_split(partition, layout, *nus).tobytes()


@pytest.mark.parametrize("low", [0, 1])
def test_count_weights_read_each_tail_at_its_own_table_top(low):
    # a tail's bits move with the top of the Poisson table, a mass's do not:
    # counter low reads tails at the lower top, the other counter plain counts at
    # a higher one, and each gets the bits it gets when both counters read its sets
    dim = 4
    fact, shifts = np.cumprod(np.arange(dim, dtype=float).clip(1.0)), np.arange(dim)[:, None]
    alphas = np.array([[0.4 - 0.3j, 0.9 + 0.2j, -0.6 + 0.7j, 1.3 - 0.1j],
                       [-0.5 + 0.1j, 0.2 - 0.8j, 1.1 + 0.3j, -0.4 - 0.4j]])
    es, nus = (0.8, 0.6), (0.9, 0.7)
    sets = [povm_module._counts(1, overflow=True), povm_module._counts(6)]
    if low:
        sets.reverse()
    weights, index = povm_module._count_weights(es, alphas, nus, tuple(sets), shifts, fact)
    for c in (0, 1):
        alone, at = povm_module._count_weights(es, alphas, nus, (sets[c], sets[c]), shifts, fact)
        assert weights[c].tobytes() == alone[c].tobytes()
        assert np.array_equal(index[c], at[c])


def test_context_digests_match_the_pinned_bits():
    # tests/data/context_digest.json holds what tests/context_digest.py printed
    # when each context load built its maps one numpy call per block and per
    # split; P, the rows, the labels and the rank of all eight contexts must
    # come out bit for bit as they did then
    from context_digest import main
    with open(pathlib.Path(__file__).parent / "data" / "context_digest.json") as fh:
        assert main() == json.load(fh)


@pytest.mark.parametrize("first", [CounterConfig(counters=2, N_c=6), CounterConfig(
    counters=2, N_c=6, response=(np.full((8, 30), 1 / 8),) * 2)], ids=["ideal", "response"])
def test_two_group_build_frees_the_first_pass_before_the_second(monkeypatch, first):
    # the 16 README probes under a first counter and a (0.8, 0.7) lossy one: two kernel
    # passes. As the second starts, the first pass's output and read map are freed
    # and only its rows of P (and the settings' arrays) are live: 266 KiB traced after
    # an ideal pass and 262 KiB after a response pass, where 762 KiB and 7.5 MiB were
    # while the generator and the build loop still held them
    balanced = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)
    settings = [Setting(gamma=g, counter=counter, partition=balanced, N=3)
                for counter in (first, CounterConfig(counters=2, N_c=6, loss=(0.8, 0.7)))
                for g in design_gamma(3, 7).gammas]
    live = []
    counting_rows = povm_module._counting_rows

    def spy(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return counting_rows(*args)
    monkeypatch.setattr(povm_module, "_counting_rows", spy)
    tracemalloc.start()
    try:
        MeasurementContext.build(settings)
    finally:
        tracemalloc.stop()
    assert len(live) == 2
    assert live[1] <= 400 * 2 ** 10


def test_lossy_quick_start_load_memory():
    # tracemalloc peak of one load of the lossy quick-start context from its JSON
    # form, rank included: 1.43 MiB when P was built from a concatenated copy of
    # the rows and each block product had its own output, 0.98 MiB (0.982) with
    # the rows of one kernel pass kept as one array, and 0.985 MiB with P gathered
    # straight from the kernel's output, whose read map and two coordinate halves
    # are live beside it where the gathered rows were; the bound is 17 % above
    # 0.98 MiB
    balanced = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)
    counter = CounterConfig(counters=2, N_c=6, loss=(0.8, 0.7))
    payload = json.loads(json.dumps(MeasurementContext.build(
        [Setting(gamma=g, counter=counter, partition=balanced, N=3)
         for g in design_gamma(3, 7).gammas]).to_json()))
    tracemalloc.start()
    try:
        assert MeasurementContext.from_json(payload).rank == 30
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 2 ** 20
