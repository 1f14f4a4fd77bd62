"""POVM elements against 40-digit references.

tests/data/povm_reference.json holds, for probes 6 and 1 of
``design-gamma --n 3 --seed 7`` on an ideal and a lossy (0.8, 0.7) two-counter
N_c = 6 context (the README quick-start), the block without auxiliary photons
of every element, in range and overflow. Probe 6 overflows a counter with
probability near 1e-13, probe 1 near 0.08. tests/data/povm_reference_n5.json
holds the same for N = 5, N_c = 9: probe 21 of ``design-gamma --n 5 --seed 3``
and probe 29 of seed 1, the largest-|gamma| probes of seeds 0-5. The values
were computed with mpmath 1.3.0 from the beam-splitter optics alone (not from
the kernel's closed forms) by tests/data/gen_povm_reference.py, which
documents the model.

Measured with the closed-form kernel, every overflow element summed over its
count set: at N = 3 in-range elements are off by at most 2.0e-15, overflow
elements by at most 4.1e-15; at N = 5 by at most 1.3e-14 and 3.7e-14.
"""
import json
import pathlib

import numpy as np
import pytest

from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.probes import design_gamma

DATA = pathlib.Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "povm_reference.json").read_text())
CASES = REFERENCE["cases"]
REFERENCE_N5 = json.loads((DATA / "povm_reference_n5.json").read_text())
BALANCED_MULTI = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)


def reference_blocks(flat_elements: list, dim: int) -> list:
    """Each element's Hermitian block from its stored upper triangle."""
    rows, cols = np.triu_indices(dim)
    blocks = []
    for flat in flat_elements:
        values, block = iter(flat), np.zeros((dim, dim), dtype=complex)
        for r, c in zip(rows, cols):
            block[r, c] = next(values) if r == c else complex(next(values), next(values))
        blocks.append(block + np.triu(block, 1).conj().T)
    return blocks


def worst_errors(reference: dict, case: dict) -> dict:
    """The largest entry error of the case's in-range and overflow elements,
    its probe built in the context of all probes of its design-gamma seed."""
    N, n_c = reference["N"], reference["n_c"]
    gammas = design_gamma(N, seed=case["seed"]).gammas
    assert complex(gammas[case["probe"]]) == complex(*case["gamma"])
    counter = CounterConfig(counters=2, N_c=n_c,
                            loss=tuple(case["loss"]) if case["loss"] else None)
    context = MeasurementContext.build([Setting(gamma=g, counter=counter,
                                                partition=BALANCED_MULTI, N=N) for g in gammas])
    povm = context.povms[case["probe"]]
    names = list(range(n_c + 1)) + [">"]
    labels = [(k, l) for k in names for l in names]
    assert set(labels) == set(povm)
    worst = {"in range": 0.0, "overflow": 0.0}
    for label, want in zip(labels, reference_blocks(case["elements"], N + 1)):
        kind = "overflow" if ">" in label else "in range"
        got = povm[label].op.blocks[(0,)]
        worst[kind] = max(worst[kind], float(np.max(np.abs(got - want))))
    return worst


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"probe{c['probe']}-loss{c['loss']}")
def test_quick_start_elements_match_40_digit_reference(case):
    worst = worst_errors(REFERENCE, case)
    assert worst["in range"] <= 4e-15
    assert worst["overflow"] <= 2e-14


@pytest.mark.parametrize("case", REFERENCE_N5["cases"],
                         ids=lambda c: f"seed{c['seed']}-probe{c['probe']}-loss{c['loss']}")
def test_n5_elements_match_40_digit_reference(case):
    worst = worst_errors(REFERENCE_N5, case)
    assert worst["in range"] <= 2e-14
    assert worst["overflow"] <= 5e-14
