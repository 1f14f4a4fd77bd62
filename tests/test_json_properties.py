"""Property tests of the JSON round trips: every field comes back exactly,
through JSON text."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wfhtomo import cli
from wfhtomo.fock import StateSpec, make_state
from wfhtomo.mle import METHODS, ReconstructionParams, reconstruct
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting, ic_check
from wfhtomo.probes import ProbeSet, design_gamma
from wfhtomo.sim import Dataset, simulate_dataset
from wfhtomo.stats import parametric_bootstrap, refit_replicates
from wfhtomo.twirl import BlockOperator, block_tuples, reduced_assignment, twirl_analytic

finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def through_json(d: dict) -> dict:
    return json.loads(json.dumps(d))


@st.composite
def block_operators(draw):
    N = draw(st.integers(0, 3))
    length = draw(st.integers(0, 2))
    blocks = {}
    for t in block_tuples(N, length):
        d = N - sum(t) + 1
        re, im = (draw(arrays(np.float64, (d, d), elements=finite)) for _ in range(2))
        blocks[t] = re + 1j * im
    return BlockOperator(N, blocks)


@settings(max_examples=40, deadline=None)
@given(op=block_operators())
def test_block_operator_round_trip(op):
    back = BlockOperator.from_json(through_json(op.to_json()))
    assert back.N == op.N
    assert list(back.blocks) == list(op.blocks)
    for key, m in op.blocks.items():
        assert np.array_equal(back.blocks[key], m)


outcomes = st.tuples(st.integers(0, 20) | st.just("I"), st.integers(0, 20) | st.just("I"))


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.dictionaries(outcomes, st.integers(0, 2**40), min_size=1,
                                       max_size=6), min_size=1, max_size=4),
       seed=st.integers(0, 2**64 - 1), with_gamma=st.booleans(), data=st.data())
def test_dataset_round_trip(counts, seed, with_gamma, data):
    gammas = data.draw(st.lists(complexes, min_size=len(counts), max_size=len(counts))
                       ) if with_gamma else None
    ds = Dataset(counts=counts, seed=seed, gammas=gammas)
    if not any(n for c in counts for n in c.values()):  # a dataset that counts nothing
        with pytest.raises(ValueError, match="settings count no outcome"):
            Dataset.from_json(through_json(ds.to_json()))
        return
    back = Dataset.from_json(through_json(ds.to_json()))
    assert [list(c.items()) for c in back.counts] == [list(c.items()) for c in counts]
    assert back.M_i == ds.M_i
    assert back.seed == seed
    assert back.gammas == gammas


transmission = st.floats(0.01, 0.99)


@st.composite
def partitions(draw):
    etas = draw(st.lists(transmission, min_size=1, max_size=3,
                         unique_by=lambda t: round(t, 6)))
    return PartitionSpec(sectors=tuple((math.sqrt(t), math.sqrt(1 - t)) for t in etas),
                         s1_multi=draw(st.booleans()))


@st.composite
def responses(draw, counters, n_c):
    cols = draw(st.integers(1, 6))
    mats = []
    for _ in range(counters):
        raw = draw(arrays(np.float64, (n_c + 2, cols), elements=st.floats(0.0, 1.0)))
        raw[0] += 1.0  # every column has a positive sum
        mats.append(raw / raw.sum(axis=0))
    return tuple(mats)


@st.composite
def lossy_or_smeared_settings(draw):
    counters = draw(st.sampled_from((1, 2)))
    n_c = draw(st.integers(0, 6))
    loss = draw(st.none() | st.tuples(*[st.floats(0.0, 1.0)] * counters))
    response = draw(st.none() | responses(counters, n_c))
    counter = CounterConfig(counters=counters, N_c=n_c, loss=loss, response=response)
    return Setting(gamma=draw(complexes), counter=counter, partition=draw(partitions()),
                   N=draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(setting=lossy_or_smeared_settings())
def test_setting_round_trip(setting):
    back = Setting.from_json(through_json(setting.to_json()))
    assert (back.gamma, back.partition, back.N, back.detector) == \
        (setting.gamma, setting.partition, setting.N, setting.detector)
    a, b = setting.counter, back.counter
    assert (b.counters, b.N_c, b.loss) == (a.counters, a.N_c, a.loss)
    assert (b.response is None) == (a.response is None)
    for m, m_back in zip(a.response or (), b.response or ()):
        assert np.array_equal(m_back, m)


@st.composite
def params(draw):
    return ReconstructionParams(
        delta_L=draw(st.floats(0.0, 1e308)),
        r_stop=draw(st.none() | st.floats(0.0, 1e308, exclude_min=True)),
        max_iter=draw(st.integers(1, 2**63)),
        method=draw(st.sampled_from(METHODS)))


@settings(max_examples=60, deadline=None)
@given(p=params())
def test_reconstruction_params_round_trip(p):
    assert ReconstructionParams.from_json(through_json(p.to_json())) == p


@st.composite
def context_settings(draw):
    """Ideal, lossy, single-counter, response-matrix and click settings of one
    partition (K <= 2) and N, with probes of |gamma| <= 2, shuffled together;
    the responses cover 25 photons, so every POVM is complete."""
    partition = draw(partitions())
    partition = PartitionSpec(sectors=partition.sectors[:2], s1_multi=partition.s1_multi)
    k1 = PartitionSpec(sectors=partition.sectors[:1], s1_multi=partition.s1_multi)
    N, n_c = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = rng.random((2, n_c + 2, 26))
    kinds = {
        "ideal": (CounterConfig(counters=2, N_c=n_c), partition, "counting"),
        "lossy": (CounterConfig(counters=2, N_c=n_c, loss=(draw(transmission),
                                                           draw(transmission))),
                  partition, "counting"),
        "single": (CounterConfig(counters=1, N_c=n_c, loss=(draw(transmission),)), partition,
                   "counting"),
        "response": (CounterConfig(counters=2, N_c=n_c,
                                   response=tuple(mats / mats.sum(axis=1, keepdims=True))),
                     partition, "counting"),
        "click": (CounterConfig(counters=2, N_c=0), k1, "click"),
    }
    probe = st.builds(lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
                      st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi))
    settings_ = [Setting(gamma=g, counter=counter, partition=part, N=N, detector=detector)
                 for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                                           max_size=5, unique=True))
                 for counter, part, detector in [kinds[kind]]
                 for g in draw(st.lists(probe, min_size=1, max_size=3))]
    return draw(st.permutations(settings_))


def by_layout(settings_: list) -> list[list]:
    """The settings grouped by (partition, N), in order of first appearance;
    a context holds a single group."""
    groups: dict[tuple, list] = {}
    for setting in settings_:
        groups.setdefault((setting.partition, setting.N), []).append(setting)
    return list(groups.values())


@settings(max_examples=25, deadline=None)
@given(settings_=context_settings())
def test_measurement_context_round_trip(settings_):
    for group in by_layout(settings_):
        context = MeasurementContext.build(group)
        back = MeasurementContext.from_json(through_json(context.to_json()))
        assert [s.to_json() for s in back.settings] == [s.to_json() for s in context.settings]
        assert back.labels == context.labels
        assert back.P.tobytes() == context.P.tobytes()


@settings(max_examples=25, deadline=None)
@given(settings_=context_settings())
def test_ic_check_round_trips_through_strict_json(settings_):
    for group in by_layout(settings_):
        result = ic_check(MeasurementContext.build(group))
        assert set(result) == {"rank", "required", "is_ic", "ic_margin"}
        assert json.loads(json.dumps(result, allow_nan=False)) == result
        assert 0.0 <= result["ic_margin"] <= 1.0


@settings(max_examples=40, deadline=None)
@given(gammas=st.lists(complexes, min_size=1, max_size=8).filter(
           lambda gs: all(1e-9 < math.hypot((a - b).real, (a - b).imag) < math.inf
                          for i, a in enumerate(gs) for b in gs[i + 1:])),
       N=st.integers(0, 2 ** 40))
def test_probe_set_round_trip(gammas, N):
    probes = ProbeSet(gammas=tuple(gammas), N=N)
    back = ProbeSet.from_json(through_json(probes.to_json()))
    assert back.gammas == probes.gammas
    assert back.N == N


# Reports: a fit's report, a bootstrap report and the `reconstruct --trials`
# records are plain JSON (no NaN, infinities, tuples or numpy scalars), so
# they come back equal through strict JSON text, however the fits end. With
# r_stop = 1e-300 an APG fit stalls unless rounding puts r_k at or below 0.
REPORT_PARAMS = {
    "stopped_on_r": [ReconstructionParams(method="apg"), ReconstructionParams()],
    "max_iter": [ReconstructionParams(r_stop=1e-15, max_iter=3, method="apg"),
                 ReconstructionParams(r_stop=1e-15, max_iter=3)],
    "stalled": [ReconstructionParams(r_stop=1e-300, method="apg")],
}
BAL = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=False)
REPORT_CONTEXT = MeasurementContext.build(
    [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4), partition=BAL, N=1)
     for g in design_gamma(1, seed=3).gammas])
REPORT_TRUTH = twirl_analytic(make_state(StateSpec(kind="coherent", N=1, alpha=0.3)).density(),
                              reduced_assignment(BAL), BAL, 1)


def fit_reports(params, seed, shots):
    """A fit's report, a 2-replicate bootstrap of it and 2 `--trials` records."""
    M_i = [shots] * len(REPORT_CONTEXT.settings)
    dataset = simulate_dataset(REPORT_TRUTH, REPORT_CONTEXT, M_i, seed)
    report = reconstruct(REPORT_CONTEXT, dataset, params)
    boot = parametric_bootstrap(report.estimate, REPORT_CONTEXT, M_i, 2, params, seed, dataset)
    fits = refit_replicates(REPORT_TRUTH, REPORT_CONTEXT, M_i, 2, params, seed)
    records = cli._trial_records(fits, REPORT_TRUTH, params.method)
    return report, boot, records


def assert_strict_json_round_trips(report, boot, records):
    for x in (report.to_json(), boot.to_json(), records):
        assert json.loads(json.dumps(x, allow_nan=False)) == x
    assert json.loads(json.dumps(boot.to_json(), allow_nan=False))["p_value"] == boot.p_value


@settings(max_examples=15, deadline=None)
@given(params=st.sampled_from([p for ps in REPORT_PARAMS.values() for p in ps]),
       seed=st.integers(0, 2 ** 63 - 1), shots=st.integers(50, 2000))
def test_report_round_trips(params, seed, shots):
    assert_strict_json_round_trips(*fit_reports(params, seed, shots))


# seeds at which the fit and its 4 refits all end the same way
@pytest.mark.parametrize("termination, seed", [("stopped_on_r", 1), ("max_iter", 1),
                                               ("stalled", 2)])
def test_report_round_trips_of_each_termination(termination, seed):
    for params in REPORT_PARAMS[termination]:
        report, boot, records = fit_reports(params, seed, 500)
        assert [report.termination] + [r["termination"] for r in boot.replicates + records] \
            == [termination] * 5
        assert_strict_json_round_trips(report, boot, records)


json_scalars = (st.none() | st.booleans() | st.integers() | st.just(-0.0) | st.text()
                | st.floats(allow_nan=True, allow_infinity=True))
# keys of every type that JSON turns into a string, so that the writer's paths
# for them (the C encoder, or json.dumps itself) are checked too
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_trees = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=5)
                          | st.dictionaries(json_keys, inner, max_size=5), max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(tree=json_trees)
def test_json_writer_writes_the_bytes_of_json_dumps_indent_2(tree, tmp_path_factory):
    # the C encoder writes each container of scalars; the file must hold
    # json.dumps(indent=2)'s bytes, as every artifact's pinned sha256 fixes them
    assert cli._json_text(tree) == json.dumps(tree, indent=2)
    path = tmp_path_factory.mktemp("json") / "tree.json"
    cli._write_json(str(path), tree)
    assert path.read_bytes() == (json.dumps(tree, indent=2) + "\n").encode()
