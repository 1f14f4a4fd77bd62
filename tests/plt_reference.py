"""The recursion that ``optics.plt_on_fock`` used before it kept a shell plan
per basis and held each shell as (rows, B, cols), kept as the tests'
reference: it rebuilds its raise tables on every call and builds every dense
(B, dim, dim) Fock unitary in place, with one fancy-index ``+=`` per mode and
shell on the middle axis of the dense stack."""
import numpy as np

from wfhtomo.fock import OccupationBasis
from wfhtomo.optics import ModeMatrix


def plt_reference(U_M, basis: OccupationBasis) -> np.ndarray:
    """The (B, dim, dim) Fock unitaries of a (B, S, S) stack of mode matrices."""
    U = (U_M if isinstance(U_M, ModeMatrix) else ModeMatrix(U_M)).entries
    S = basis.num_modes
    if U.shape[1] != S:
        raise ValueError(f"mode matrix dimension {U.shape[1]} != num_modes {S}")
    dim = basis.size
    # the graded order puts the states below the cutoff first; applying
    # a_j^dag to one of them, b, lands on raise_idx[j, b] with amplitude
    # raise_amp[j, b]. Distinct b land on distinct targets, so a plain
    # fancy-index += accumulates each term once.
    low = int(np.count_nonzero(basis.totals < basis.cutoff))
    lower = basis.states[:low]
    raise_idx = np.array([[basis.index(n[:j] + (n[j] + 1,) + n[j + 1:]) for n in lower]
                          for j in range(S)], dtype=np.int64)
    raise_amp = np.sqrt(np.array(lower, dtype=np.float64).reshape(low, S).T + 1.0)
    # column t is a_i^dag on column prev[t] = t - e_i, over sqrt(t_i), for
    # i = first[t] its first occupied mode: the smallest i is written last
    first, prev, norm = np.zeros(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64), np.ones(dim)
    for i in reversed(range(S)):
        first[raise_idx[i]], prev[raise_idx[i]], norm[raise_idx[i]] = i, range(low), raise_amp[i]
    # the columns of one photon-number shell [mid, hi) are built at once from
    # the shell below, [lo, mid), the only rows their predecessors occupy
    bounds = np.searchsorted(basis.totals, np.arange(basis.cutoff + 2))
    out = np.zeros((len(U), dim, dim), dtype=np.complex128)
    out[:, 0, 0] = 1.0
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        w = out[:, lo:mid, prev[mid:hi]]
        shell = out[:, mid:hi, mid:hi]
        for j in range(S):
            shell[:, raise_idx[j, lo:mid] - mid] += \
                U[:, j, first[mid:hi]][:, None] * raise_amp[j, lo:mid, None] * w
        shell /= norm[mid:hi]
    return out
