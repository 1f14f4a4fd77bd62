"""The Haar map that ``optics.haar_from_normals`` used before it built each
unitary by Gram-Schmidt, kept as the tests' reference: one stacked LAPACK QR
of the Ginibre matrices, with Q's columns phase-fixed by the diagonal of R."""
import math

import numpy as np


def haar_reference(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, dim, dim)."""
    g = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
