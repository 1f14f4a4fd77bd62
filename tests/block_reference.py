"""Block-operator algebra that the tests use as an independent reference:
each helper works block by block on ``BlockOperator.blocks``, apart from the
flat layout and the real coordinates the library computes with."""
import numpy as np

from wfhtomo.twirl import BlockOperator


def pair_trace(a: BlockOperator, b: BlockOperator) -> complex:
    """sum_i tr(A_i B_i): the pairing that gives Born probabilities."""
    return complex(sum(np.sum(x.T * y) for _, x, y in a._zip(b)))


def matmul(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    return BlockOperator(a.N, {k: x @ y for k, x, y in a._zip(b)})


def hermitize(a: BlockOperator) -> BlockOperator:
    return BlockOperator(a.N, {k: (m + m.conj().T) / 2 for k, m in a.blocks.items()})
