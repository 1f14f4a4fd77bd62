"""sha256 digests of what a context load builds, on eight fixed contexts.

    PYTHONPATH=src python tests/context_digest.py

prints one JSON object: for each context, the sha256 of its design matrix
``P`` (float64 bytes), of every setting's element rows (complex128 bytes, in
setting order, read from the output of each group's kernel pass as
``povm._passes`` gives it, for a context keeps only ``P``), of every setting's
outcome labels (their ``repr``) and its ``rank``. Two checkouts that print the
same object build the same bits, so a change to the POVM kernel or the context
load that must keep ``P`` unchanged is checked by running this at both. Each
context goes through its JSON form, as a ``wfh-tomo`` command loads it.
tests/data/context_digest.json holds the object as the context load built it
before its maps were built by whole-array arithmetic, and tests/test_povm.py
checks that the load still prints it.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from wfhtomo import povm
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import (CounterConfig, MeasurementContext, Setting, compose_response,
                          identity_response)
from wfhtomo.probes import design_gamma

BALANCED_MULTI = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
TWO_SECTORS = PartitionSpec(sectors=((0.6, 0.8), (0.8, 0.6)), s1_multi=True)


def contexts() -> dict[str, tuple]:
    """name -> (gammas, counter, partition, N[, detector]): the README quick
    start ideal and with loss (0.8, 0.7); N = 5, N_c = 9 ideal and with loss
    (0.9, 0.6); N = 5 with one counter at N_c = 4; two sectors at N = 3,
    N_c = 5; click detectors at N = 3; and two counters with response matrices
    (N_c = 4, up to 20 photons present) and loss (0.9, 0.8) folded in, at N = 3
    and the quick-start probes with |gamma| < 1.2, whose counts above 20 are
    negligible. Between them they take every branch of the kernel's grouping
    (povm._passes)."""
    quick, n5 = design_gamma(3, seed=7).gammas, design_gamma(5, seed=3).gammas
    responses = (compose_response(identity_response(4, 20), 0.95), identity_response(4, 20))
    return {
        "quickstart": (quick, CounterConfig(counters=2, N_c=6), BALANCED_MULTI, 3),
        "quickstart-lossy": (quick, CounterConfig(counters=2, N_c=6, loss=(0.8, 0.7)),
                             BALANCED_MULTI, 3),
        "n5": (n5, CounterConfig(counters=2, N_c=9), BALANCED_MULTI, 5),
        "n5-lossy": (n5, CounterConfig(counters=2, N_c=9, loss=(0.9, 0.6)), BALANCED_MULTI, 5),
        "n5-one-counter": (n5, CounterConfig(counters=1, N_c=4), BALANCED_MULTI, 5),
        "two-sectors": (quick, CounterConfig(counters=2, N_c=5), TWO_SECTORS, 3),
        "click": (quick, CounterConfig(counters=2, N_c=0), BALANCED_MULTI, 3, "click"),
        "response": ([g for g in quick if abs(g) < 1.2],
                     CounterConfig(counters=2, N_c=4, loss=(0.9, 0.8), response=responses),
                     BALANCED_MULTI, 3),
    }


def load(gammas, counter, partition, N, detector="counting") -> MeasurementContext:
    settings = [Setting(gamma=g, counter=counter, partition=partition, N=N, detector=detector)
                for g in gammas]
    text = json.dumps(MeasurementContext.build(settings).to_json())
    return MeasurementContext.from_json(json.loads(text))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def element_rows(context: MeasurementContext) -> np.ndarray:
    """Every setting's element rows in setting order, as the kernel computes them
    in one pass per group of settings."""
    rows = [None] * len(context.settings)
    for members, _, out, read, _ in povm._passes(context.settings, context.coords):
        for g, s in enumerate(members):
            rows[s] = out[g, read]
    return np.concatenate(rows)


def digest(context: MeasurementContext) -> dict:
    return {
        "P": sha256(np.ascontiguousarray(context.P, dtype=np.float64).tobytes()),
        "rows": sha256(np.ascontiguousarray(element_rows(context),
                                            dtype=np.complex128).tobytes()),
        "labels": sha256(repr(context.labels).encode()),
        "rank": context.rank,
        "shape": list(context.P.shape),
    }


def main() -> dict:
    return {name: digest(load(*spec)) for name, spec in contexts().items()}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
