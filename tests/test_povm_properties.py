"""Property tests of the closed-form POVM elements, and of the probabilities
they give, over random settings."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import (CounterConfig, HermitianCoords, MeasurementContext, Setting,
                          apply_loss, build_povm, identity_response, pi_kl)
from wfhtomo.sim import probabilities
from wfhtomo.twirl import BlockOperator, block_tuples

from block_reference import layout_maps

unit = st.floats(0.0, 1.0)
transmission = st.floats(0.1, 0.9)


@st.composite
def partitions(draw):
    """K=1 or K=2 with random sector ratios, s1_multi either way."""
    t1 = draw(transmission)
    sectors = [(math.sqrt(t1), math.sqrt(1 - t1))]
    if draw(st.booleans()):
        t2 = draw(transmission.filter(lambda t: abs(t - t1) > 0.05))
        sectors.append((math.sqrt(t2), math.sqrt(1 - t2)))
    return PartitionSpec(sectors=tuple(sectors), s1_multi=draw(st.booleans()))


def probes(max_radius):
    return st.builds(lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
                     st.floats(0.0, max_radius), st.floats(0.0, 2 * math.pi))


def identity_dev(povm, N, partition):
    length = partition.K if partition.s1_multi else partition.K - 1
    ident = BlockOperator.identity(N, length)
    total = None
    for el in povm.values():
        total = el.op if total is None else total + el.op
    return max(float(np.max(np.abs(total.blocks[k] - ident.blocks[k]))) for k in total.blocks)


@settings(max_examples=60, deadline=None)
@given(gamma=probes(7.0), partition=partitions(), N=st.integers(0, 4),
       n_c=st.integers(0, 8), loss=st.none() | st.tuples(unit, unit))
def test_build_povm_complete_and_psd(gamma, partition, N, n_c, loss):
    setting = Setting(gamma=gamma, counter=CounterConfig(counters=2, N_c=n_c, loss=loss),
                      partition=partition, N=N)
    povm = build_povm(setting)
    assert len(povm) == (n_c + 2) ** 2
    assert identity_dev(povm, N, partition) < 1e-8
    for el in povm.values():
        assert el.op.min_eigenvalue() >= -1e-9


@settings(max_examples=12, deadline=None)
@given(gamma=probes(1.5), partition=partitions(), N=st.integers(0, 4),
       n_c=st.integers(0, 8), loss=st.tuples(unit, unit))
def test_lossy_grid_is_thinned_ideal_rectangle(gamma, partition, N, n_c, loss):
    cut = 25
    # the ideal rectangle is the in-range grid of one ideal POVM with N_c = cut,
    # bit for bit the pi_kl elements, checked here at a few entries
    ideal = build_povm(Setting(gamma=gamma, counter=CounterConfig(counters=2, N_c=cut),
                               partition=partition, N=N))
    rect = {(m, n): ideal[(m, n)] for m in range(cut + 1) for n in range(cut + 1)}
    for m, n in {(0, 0), (n_c, N), (cut, n_c)}:
        want, got = pi_kl(gamma, m, n, partition, N).op.blocks, rect[(m, n)].op.blocks
        assert want.keys() == got.keys()
        assert all(np.array_equal(want[key], got[key]) for key in want)
    thinned = apply_loss(rect, *loss, conv_cut=cut)
    povm = build_povm(Setting(gamma=gamma,
                              counter=CounterConfig(counters=2, N_c=n_c, loss=loss),
                              partition=partition, N=N))
    for k in range(n_c + 1):
        for l in range(n_c + 1):
            want, got = thinned[(k, l)].op.blocks, povm[(k, l)].op.blocks
            assert max(float(np.max(np.abs(want[key] - got[key]))) for key in got) < 1e-10


M_CUT = 25  # photons a response matrix covers; the tail beyond is below 1e-15 here


@st.composite
def contexts(draw):
    """1-3 probes of |gamma| <= 1.5 at N <= 3 on an ideal, lossy, response-matrix
    or click counter; response columns are random distributions."""
    kind = draw(st.sampled_from(["ideal", "lossy", "response", "click"]))
    partition = draw(partitions())
    if kind == "click":
        partition = PartitionSpec(sectors=partition.sectors[:1], s1_multi=partition.s1_multi)
    counters = 2 if kind == "click" else draw(st.sampled_from([1, 2]))
    n_c = draw(st.integers(0, 5))
    loss = draw(st.tuples(unit, unit))[:counters] if kind == "lossy" else None
    response = None
    if kind == "response":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        mats = rng.random((counters, n_c + 2, M_CUT + 1))
        response = tuple(mats / mats.sum(axis=1, keepdims=True))
    counter = CounterConfig(counters=counters, N_c=n_c, loss=loss, response=response)
    N = draw(st.integers(0, 3))
    gammas = draw(st.lists(probes(1.5), min_size=1, max_size=3))
    return MeasurementContext.build([
        Setting(gamma=g, counter=counter, partition=partition, N=N,
                detector="click" if kind == "click" else "counting") for g in gammas])


def random_state(coords: HermitianCoords, seed: int) -> BlockOperator:
    """A PSD trace-1 state of the layout's blocks, of random rank per block."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for key, d in zip(coords.keys, coords.dims):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g[:, rng.integers(1, d + 1):] = 0.0
        blocks[key] = g @ g.conj().T
    total = sum(np.trace(b).real for b in blocks.values())
    return BlockOperator(coords.N, {k: b / total for k, b in blocks.items()})


@settings(max_examples=40, deadline=None)
@given(context=contexts(), seed=st.integers(0, 2 ** 32 - 1))
def test_probabilities_sum_to_one_on_random_states(context, seed):
    state = random_state(context.coords, seed)
    p = context.P @ context.vec(state)
    for s, povm in enumerate(context.povms):
        p_s = p[context.offsets[s]:context.offsets[s + 1]]
        assert p_s.min() >= -1e-12
        assert abs(p_s.sum() - 1.0) <= 1e-12
        born = probabilities(state, povm)
        assert list(born) == list(povm)
        assert max(abs(b - q) for b, q in zip(born.values(), p_s)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(context=contexts())
def test_design_matrix_matches_the_povm_view(context):
    # P is compiled from the stored kernel rows; the per-outcome view built
    # from them gives the same P bit for bit, over the same outcome order
    first = next(iter(context.povms[0].values())).op
    coords = HermitianCoords.of(first.N, first.tuple_length)
    rebuilt = np.concatenate([coords.rows(coords.stack([e.op for e in povm.values()]))
                              for povm in context.povms])
    assert rebuilt.tobytes() == context.P.tobytes()
    for labels, povm in zip(context.labels, context.povms):
        assert labels == list(povm)


@st.composite
def mixed_settings(draw):
    """Two to five counters shuffled into one list of settings: ideal, lossy and
    single-counter counting, response matrices and click detectors, with up to
    nine probes each, so that one counter's settings can span two kernel calls.
    Each counting counter without responses has the probes 0 and 3 e^{i phi}: at
    0 no counter overflows, at |gamma| = 3 (n_c <= 3, transmissions >= 0.5) one
    of them overflows with a probability far from 0."""
    partition = draw(partitions())
    k1 = PartitionSpec(sectors=partition.sectors[:1], s1_multi=partition.s1_multi)
    N, n_c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    loss = st.floats(0.5, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = rng.random((2, n_c + 2, M_CUT + 1))
    mats /= mats.sum(axis=1, keepdims=True)
    kinds = {
        "ideal": (CounterConfig(counters=2, N_c=n_c), partition, "counting"),
        "lossy": (CounterConfig(counters=2, N_c=n_c, loss=(draw(loss), draw(loss))),
                  partition, "counting"),
        "single": (CounterConfig(counters=1, N_c=n_c, loss=(draw(loss),)), partition,
                   "counting"),
        "response": (CounterConfig(counters=2, N_c=n_c, response=tuple(mats)), partition,
                     "counting"),
        "click": (CounterConfig(counters=2, N_c=0), k1, "click"),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=2, max_size=5, unique=True))
    out = []
    for kind in chosen:
        counter, part, detector = kinds[kind]
        gammas = draw(st.lists(probes(1.5), min_size=0, max_size=7))
        if kind != "response":
            gammas += [0.0, 3.0 * complex(math.cos(phi := draw(st.floats(0, 2 * math.pi))),
                                          math.sin(phi))]
        out += [Setting(gamma=g, counter=counter, partition=part, N=N, detector=detector)
                for g in gammas]
    return draw(st.permutations(out))


def by_layout(settings_: list) -> list[list]:
    """The settings grouped by (partition, N), in order of first appearance;
    a context holds a single group."""
    groups: dict[tuple, list] = {}
    for setting in settings_:
        groups.setdefault((setting.partition, setting.N), []).append(setting)
    return list(groups.values())


@settings(max_examples=30, deadline=None)
@given(settings_=mixed_settings())
def test_context_rows_match_each_setting_built_alone(settings_):
    # settings that differ only in gamma are built in one kernel call; each
    # keeps the labels and, bit for bit, the rows it has built alone
    for group in by_layout(settings_):
        context = MeasurementContext.build(group)
        for setting, labels, rows in zip(group, context.labels, context.rows):
            alone = MeasurementContext.build([setting])
            assert labels == alone.labels[0]
            assert rows.tobytes() == alone.rows[0].tobytes()


@settings(max_examples=15, deadline=None)
@given(settings_=mixed_settings(), at=st.tuples(st.integers(0, 20), st.integers(0, 20)))
def test_completeness_error_names_the_first_bad_setting(settings_, at):
    # responses that cover 3 photons leave most of a |gamma| >= 2 probe out
    first = settings_[0]
    short = CounterConfig(counters=2, N_c=1, response=(identity_response(1, 3),) * 2)
    bad = [Setting(gamma=g, counter=short, partition=first.partition, N=first.N,
                   detector="counting") for g in (2.0, 2.5j)]
    mixed = list(settings_)
    for shift, (setting, i) in enumerate(zip(bad, sorted(at))):
        mixed.insert(min(i + shift, len(mixed)), setting)  # bad[1] after bad[0]
    # the bad settings share the first setting's (partition, N), and so its context
    [group] = [g for g in by_layout(mixed) if any(s is first for s in g)]
    with pytest.raises(ValueError, match=re.escape(f"POVM for gamma={bad[0].gamma} ")):
        MeasurementContext.build(group)


def hermitian_blocks(dims, seed: int) -> list:
    rng = np.random.default_rng(seed)
    blocks = []
    for d in dims:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        blocks.append((a + a.conj().T) / 2)
    return blocks


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 8), min_size=1, max_size=6), seed=st.integers(0, 2 ** 32 - 1))
def test_layout_index_maps_match_the_per_block_reference(dims, seed):
    # the layout's index maps are built by whole-array arithmetic; each must equal
    # the per-block loop of block_reference.layout_maps, dtype and bits included
    coords = HermitianCoords(dims)
    for name, want in layout_maps(dims).items():
        got = getattr(coords, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    # a stack row (the blocks raveled and concatenated) and the dense matrix of a
    # Hermitian X give the same coordinates, bit for bit
    blocks = hermitian_blocks(dims, seed)
    row = np.concatenate([b.ravel() for b in blocks])[None]
    assert coords.rows(row)[0].tobytes() == coords.vec(block_diag(*blocks)).tobytes()


@settings(max_examples=30, deadline=None)
@given(N=st.integers(0, 5), length=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_of_a_stacked_operator_equal_vec_of_its_dense_form(N, length, seed):
    coords = HermitianCoords.of(N, length)
    blocks = hermitian_blocks(coords.dims, seed)
    op = BlockOperator(N, dict(zip(block_tuples(N, length), blocks)))
    want = coords.vec(block_diag(*blocks))
    assert coords.rows(coords.stack([op]))[0].tobytes() == want.tobytes()
