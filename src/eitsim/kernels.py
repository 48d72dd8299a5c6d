"""Exact propagation of linear, time-invariant systems dy/dt = G y.

On a uniform grid of step dt the solution obeys y_{k+1} = exp(G dt) y_k
exactly, so the samples are one matrix exponential and n_samples - 1
matrix-vector products.  The exponential is the degree-13 Pade approximant
with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005)), in numpy alone: importing scipy.linalg would double the start-up
time of every command.
"""

import math

import numpy as np

from .errors import InvalidArgumentError

# A constant: the benchmark records it in its environment line.
ACTIVE_KERNELS = "numpy"

# Coefficients of the [13/13] Pade approximant to exp, divided by the
# first so that exp(0) comes out as the identity exactly, and the largest
# 1-norm for which the approximant is accurate to double precision.
PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
THETA13 = 5.371920351148152


def expm(a: np.ndarray):
    """(exp(a), s): the matrix exponential and its number of squarings."""
    a = np.asarray(a, dtype=np.complex128)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=np.complex128), 0
    squarings = max(0, math.ceil(math.log2(norm / THETA13))) if norm else 0
    a = a / 2.0 ** squarings
    b = PADE13
    eye = np.eye(a.shape[0], dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result, squarings


def integrate(gen, y0, dt: float, n_samples: int):
    """Samples of dy/dt = gen @ y at t = 0, dt, ..., (n_samples - 1) dt.

    Returns (samples, squarings, applications): the (n_samples, dim) array,
    the squarings spent on exp(gen dt) and the number of times it was
    applied.
    """
    gen = np.asarray(gen, dtype=np.complex128)
    y0 = np.asarray(y0, dtype=np.complex128)
    dt = float(dt)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise InvalidArgumentError("generator must be a square matrix")
    if y0.shape != (gen.shape[0],):
        raise InvalidArgumentError("state length does not match generator")
    if n_samples < 1:
        raise InvalidArgumentError("need at least one sample")
    if not math.isfinite(dt) or dt < 0:
        raise InvalidArgumentError("time step must be finite and non-negative")
    out = np.empty((n_samples, y0.size), dtype=np.complex128)
    out[0] = y0
    # A horizon far beyond the physics overflows; the caller checks the
    # samples, so numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        step, squarings = expm(gen * dt)
        for k in range(1, n_samples):
            out[k] = step @ out[k - 1]
    return out, squarings, n_samples - 1
