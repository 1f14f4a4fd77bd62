import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting, ic_check
from wfhtomo.probes import (
    ProbeSet,
    Verdict,
    block_parameter_count,
    design_gamma,
    feasibility,
    interpolation_matrix,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "determinability_golden.json"


def rank_of(m):
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv >= 1e-10 * sv[0]))


def test_probe_set_validation():
    with pytest.raises(ValueError):
        ProbeSet(gammas=(), N=1)
    with pytest.raises(ValueError):
        ProbeSet(gammas=(0.5, 0.5 + 1e-12j), N=1)
    ps = ProbeSet(gammas=(0.5, 0.7j), N=1)
    ps2 = ProbeSet.from_json(ps.to_json())
    assert ps2.gammas == ps.gammas
    assert ps2.N == 1


@pytest.mark.parametrize("gammas, message", [
    ((math.nan, 1), "amplitude 0 is not finite"),
    ((0.5, complex(1, math.inf)), "amplitude 1 is not finite"),
    ((1.5e308 + 1.5e308j, 0), "amplitudes 0 and 1 differ by more than a float holds"),
    ((0, 1.5e308, -1.5e308), "amplitudes 1 and 2 differ by more than a float holds"),
])
def test_probe_set_rejects_non_finite_amplitudes_and_distances(gammas, message):
    with pytest.raises(ValueError, match=message):
        ProbeSet(gammas=gammas, N=1)


def test_probe_set_from_json_rejects_nan_amplitude():
    d = json.loads('{"gammas": [{"re": 0.5, "im": 0}, {"re": NaN, "im": 0}], "N": 1}')
    with pytest.raises(ValueError, match="amplitude 1 is not finite"):
        ProbeSet.from_json(d)


def test_interpolation_matrix_n0():
    m = interpolation_matrix(ProbeSet(gammas=(0.7 + 0.2j,), N=0))
    assert m.shape == (1, 1)
    assert m[0, 0] == 1.0


def test_interpolation_matrix_column_order():
    g = 2.0 + 1.0j
    ps = ProbeSet(gammas=(g,), N=1)
    row = interpolation_matrix(ps, form="complex")[0]
    assert np.allclose(row, [1.0, g, np.conj(g), g * np.conj(g)])
    row_r = interpolation_matrix(ps, form="real")[0]
    assert np.allclose(row_r, [1.0, 2.0, 1.0, 2.0])  # 1, x, y, xy


def test_interpolation_matrix_generic_full_rank():
    rng = np.random.default_rng(3)
    gammas = tuple(rng.uniform(0.3, 3, 4) * np.exp(1j * rng.uniform(0, np.pi, 4)))
    m = interpolation_matrix(ProbeSet(gammas=gammas, N=1))
    assert m.shape == (4, 4)
    assert rank_of(m) == 4


def test_real_and_complex_forms_have_equal_ranks():
    rng = np.random.default_rng(17)
    for N in (1, 2):
        for size in (2, (N + 1) ** 2 - 1, (N + 1) ** 2):
            gammas = tuple(rng.uniform(0.3, 3, size)
                           * np.exp(1j * rng.uniform(0, np.pi, size)))
            ps = ProbeSet(gammas=gammas, N=N)
            rc = rank_of(interpolation_matrix(ps, "complex"))
            rr = rank_of(interpolation_matrix(ps, "real"))
            assert rc == rr
            assert rc <= min(size, (N + 1) ** 2)


def test_design_gamma_n0():
    ps = design_gamma(0, seed=12)
    assert len(ps) == 1
    assert rank_of(interpolation_matrix(ps)) == 1


def test_design_gamma_rank_and_windows():
    ps = design_gamma(2, seed=4)
    assert len(ps) == 9
    assert rank_of(interpolation_matrix(ps)) == 9
    for g in ps.gammas:
        assert 0.3 <= abs(g) <= 3.0
        assert 0.0 <= math.atan2(g.imag, g.real) <= math.pi


def test_design_gamma_deterministic():
    a = design_gamma(2, seed=99)
    b = design_gamma(2, seed=99)
    assert a.gammas == b.gammas
    c = design_gamma(2, seed=100)
    assert a.gammas != c.gammas


def test_design_gamma_first_try_success_rate():
    # spot check of the acceptance property on a small seed sample
    for N in range(4):
        ok = sum(1 for seed in range(30)
                 if _first_try_succeeds(N, seed))
        assert ok >= 29


def _first_try_succeeds(N, seed):
    try:
        design_gamma(N, seed, max_tries=1)
        return True
    except ValueError:
        return False


def test_block_parameter_count():
    assert block_parameter_count(0, 5) == 36
    assert block_parameter_count(1, 5) == 91
    assert block_parameter_count(2, 5) == 196
    for N in range(4):
        assert block_parameter_count(1, N) == (N + 1) * (N + 2) * (2 * N + 3) // 6
        assert block_parameter_count(2, N) == (N + 1) * (N + 2) ** 2 * (N + 3) // 12


def test_feasibility_spec_rows():
    v = feasibility(2, True, 2, "full", "counting", False, 2)
    assert v.determinable is True
    v = feasibility(2, True, 1, "full", "counting", False, 2)
    assert v.determinable is False
    v = feasibility(1, False, 1, "fixed_magnitude", "counting", False, 2)
    assert v.determinable is False
    v = feasibility(1, False, 1, "fixed_magnitude", "counting", False, 1)
    assert v.determinable is True


def test_feasibility_click_rows():
    assert feasibility(1, False, 2, "full", "click", False, 2).determinable
    assert not feasibility(1, False, 2, "full", "click", False, 3).determinable
    assert feasibility(1, False, 2, "full", "click", True, 1).determinable
    assert not feasibility(1, False, 2, "full", "click", True, 2).determinable
    assert not feasibility(2, False, 2, "full", "click", False, 1).determinable


def test_feasibility_validates_enums():
    with pytest.raises(ValueError):
        feasibility(0, False, 2, "full", "counting", False, 1)
    with pytest.raises(ValueError):
        feasibility(1, False, 3, "full", "counting", False, 1)
    with pytest.raises(ValueError):
        feasibility(1, False, 2, "partial", "counting", False, 1)
    with pytest.raises(ValueError):
        feasibility(1, False, 2, "full", "homodyne", False, 1)
    with pytest.raises(ValueError):
        feasibility(1, False, 2, "full", "counting", False, -1)


def test_verdict_requires_theorem():
    with pytest.raises(ValueError):
        Verdict(True, "", "x")


def expected_determinable(K, s1_multi, counters, probe_freedom, detector,
                          bs_balanced, N):
    """Rule list restated independently of the implementation."""
    if detector == "click":
        if K == 1 and probe_freedom == "full":
            return N <= (1 if bs_balanced else 2)
        return False
    if probe_freedom == "fixed_magnitude":
        if K != 1:
            return False
        return True if counters == 2 else N <= 1
    if counters == 2:
        return K <= 2 if s1_multi else K <= 3
    return K == 1 if s1_multi else K <= 2


def all_configs():
    return itertools.product(range(1, 5), (False, True), (1, 2),
                             ("full", "fixed_magnitude"),
                             ("counting", "click"), (False, True), range(4))


def test_feasibility_truth_table():
    for cfg in all_configs():
        v = feasibility(*cfg)
        assert v.determinable == expected_determinable(*cfg), cfg
        assert v.theorem


def test_feasibility_matches_golden_file():
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 512
    for row in rows:
        c = row["config"]
        v = feasibility(c["K"], c["s1_multi"], c["counters"],
                        c["probe_freedom"], c["detector"], c["bs_balanced"],
                        c["N"])
        assert v.to_json() == row["verdict"], c


def test_feasibility_second_counter_never_hurts():
    for K, s1_multi, freedom, det, bal, N in itertools.product(
            range(1, 5), (False, True), ("full", "fixed_magnitude"),
            ("counting", "click"), (False, True), range(4)):
        one = feasibility(K, s1_multi, 1, freedom, det, bal, N).determinable
        two = feasibility(K, s1_multi, 2, freedom, det, bal, N).determinable
        assert two or not one


@pytest.mark.parametrize("K,s1_multi,counters,N,n_c", [
    (1, False, 1, 2, 6),
    (1, False, 2, 2, 5),
    (1, True, 1, 3, 8),
    (1, True, 2, 3, 7),
    (2, False, 1, 2, 8),
    (2, False, 2, 2, 6),
    (2, True, 2, 2, 6),
])
def test_determinable_configs_admit_ic_contexts(K, s1_multi, counters, N, n_c):
    assert feasibility(K, s1_multi, counters, "full", "counting", False,
                       N).determinable
    sectors = ((math.sqrt(0.55), math.sqrt(0.45)),
               (math.sqrt(0.3), math.sqrt(0.7)))[:K]
    part = PartitionSpec(sectors=sectors, s1_multi=s1_multi)
    ps = design_gamma(N, seed=5)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=counters, N_c=n_c),
                        partition=part, N=N) for g in ps.gammas]
    ctx = MeasurementContext.build(settings)
    res = ic_check(ctx)
    assert res["is_ic"] is True
    assert res["required"] == block_parameter_count(
        K if s1_multi else K - 1, N)
