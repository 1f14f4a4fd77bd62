"""Block-operator algebra that the tests use as an independent reference:
each helper works block by block on ``BlockOperator.blocks``, apart from the
flat layout and the real coordinates the library computes with; and
``layout_maps``, that layout's index maps built one block at a time."""
import math

import numpy as np

from wfhtomo.twirl import BlockOperator


def pair_trace(a: BlockOperator, b: BlockOperator) -> complex:
    """sum_i tr(A_i B_i): the pairing that gives Born probabilities."""
    return complex(sum(np.sum(x.T * y) for _, x, y in a._zip(b)))


def matmul(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    return BlockOperator(a.N, {k: x @ y for k, x, y in a._zip(b)})


def hermitize(a: BlockOperator) -> BlockOperator:
    return BlockOperator(a.N, {k: (m + m.conj().T) / 2 for k, m in a.blocks.items()})


def layout_maps(dims: list[int]) -> dict:
    """The index maps of ``povm.HermitianCoords(dims)``, built block by block
    with a loop over the blocks, ``np.r_`` and ``triu_indices``."""
    dims = np.array(dims, dtype=np.int64)
    D = int(dims.sum())
    start = np.cumsum(dims) - dims
    at = np.cumsum(np.r_[0, dims ** 2])
    flat = at[:-1]
    mirror = np.concatenate([a + np.arange(d * d).reshape(d, d).T.ravel()
                             for a, d in zip(at, dims)])
    identity = (mirror == np.arange(at[-1])).astype(np.complex128)
    parts = []
    for b, d in enumerate(dims):
        iu, ju = np.triu_indices(d, 1)
        diag = np.arange(d)
        parts.append((np.full(d + 2 * iu.size, b), np.r_[diag, iu, iu], np.r_[diag, ju, ju],
                      np.r_[np.zeros(d + iu.size, np.int64), np.ones(iu.size, np.int64)]))
    block, i, j, imag = (np.concatenate(a) for a in zip(*parts))
    off = i != j
    weight = np.where(off, math.sqrt(2.0), 1.0)
    stack = 2 * (flat[block] + i * dims[block] + j) + imag
    stack_mirror = 2 * (flat[block] + j * dims[block] + i) + imag
    sign = np.where(imag == 1, -1.0, 1.0)
    row, col = start[block] + i, start[block] + j
    dense = 2 * (row * D + col) + imag
    return {"start": start, "at": at, "mirror": mirror, "identity": identity, "weight": weight,
            "_stack": stack, "_stack_mirror": stack_mirror, "_sign": sign, "_dense": dense,
            "_to": np.r_[dense, (2 * (col * D + row) + imag)[off]],
            "_from": np.r_[np.arange(i.size), np.nonzero(off)[0]],
            "_coef": np.r_[1.0 / weight, sign[off] / math.sqrt(2.0)]}
