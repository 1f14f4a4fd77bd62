"""sha256 digests of what a context load builds, on six fixed contexts.

    PYTHONPATH=src python tests/context_digest.py

prints one JSON object: for each context, the sha256 of its design matrix
``P`` (float64 bytes), of every setting's element rows (complex128 bytes, in
setting order), of every setting's outcome labels (their ``repr``) and its
``rank``. Two checkouts that print the same object build the same bits, so a
change to the POVM kernel or the context load that must keep ``P`` unchanged
is checked by running this at both. Each context goes through its JSON form,
as a ``wfh-tomo`` command loads it.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.probes import design_gamma

BALANCED_MULTI = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
TWO_SECTORS = PartitionSpec(sectors=((0.6, 0.8), (0.8, 0.6)), s1_multi=True)


def contexts() -> dict[str, tuple[list, CounterConfig, PartitionSpec, int]]:
    """name -> (gammas, counter, partition, N): the README quick start ideal and
    with loss (0.8, 0.7); N = 5, N_c = 9 ideal and with loss (0.9, 0.6); N = 5
    with one counter at N_c = 4; and two sectors at N = 3, N_c = 5."""
    quick, n5 = design_gamma(3, seed=7).gammas, design_gamma(5, seed=3).gammas
    return {
        "quickstart": (quick, CounterConfig(counters=2, N_c=6), BALANCED_MULTI, 3),
        "quickstart-lossy": (quick, CounterConfig(counters=2, N_c=6, loss=(0.8, 0.7)),
                             BALANCED_MULTI, 3),
        "n5": (n5, CounterConfig(counters=2, N_c=9), BALANCED_MULTI, 5),
        "n5-lossy": (n5, CounterConfig(counters=2, N_c=9, loss=(0.9, 0.6)), BALANCED_MULTI, 5),
        "n5-one-counter": (n5, CounterConfig(counters=1, N_c=4), BALANCED_MULTI, 5),
        "two-sectors": (quick, CounterConfig(counters=2, N_c=5), TWO_SECTORS, 3),
    }


def load(gammas, counter, partition, N) -> MeasurementContext:
    settings = [Setting(gamma=g, counter=counter, partition=partition, N=N) for g in gammas]
    text = json.dumps(MeasurementContext.build(settings).to_json())
    return MeasurementContext.from_json(json.loads(text))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(context: MeasurementContext) -> dict:
    return {
        "P": sha256(np.ascontiguousarray(context.P, dtype=np.float64).tobytes()),
        "rows": sha256(b"".join(np.ascontiguousarray(r, dtype=np.complex128).tobytes()
                                for r in context.rows)),
        "labels": sha256(repr(context.labels).encode()),
        "rank": context.rank,
        "shape": list(context.P.shape),
    }


def main() -> dict:
    return {name: digest(load(*spec)) for name, spec in contexts().items()}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
