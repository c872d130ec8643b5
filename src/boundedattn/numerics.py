"""Dense float64 numerics used by everything else.

Conventions for the whole package:

* matrices are 2-D C-contiguous ``numpy.float64`` arrays (row-major),
  vectors are 1-D ``numpy.float64`` arrays;
* every public operation checks shapes and returns finite values, raising
  :class:`NumericError` when a NaN/Inf would escape;
* randomness is never global -- callers pass a generator from
  :func:`make_rng` (PCG64, so one seed gives one stream on every platform).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class NumericError(ArithmeticError):
    """A computation produced or consumed a non-finite value."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: equal seeds give identical streams."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dim {dim}, got {v.shape[0]}")
    return v


def as_matrix(x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} cols, got {m.shape[1]}")
    return m


def check_finite(a: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"{what} contains NaN/Inf")
    return a


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax: positive entries summing to 1.

    Max-subtraction is applied unconditionally so inputs of any magnitude
    (e.g. [1000, 1000]) neither overflow nor underflow to all-zeros.
    """
    v = as_vector(v)
    if v.shape[0] == 0:
        raise ValueError("softmax of an empty vector")
    check_finite(v, "softmax input")
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise stable softmax for 2-D (or batched N-D) input; written into
    ``out`` (which may be ``m``) when given.

    The row max is exact whichever way it is taken; with ``initial`` numpy
    reduces rows of an even length on its vectorized path, about twice as
    fast as ``m.max(axis=-1)``, so the identity needs its own empty check.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-1:] == (0,):
        raise ValueError("softmax over an empty row axis")
    e = np.subtract(m, np.max(m, axis=-1, keepdims=True, initial=-np.inf), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_rows_backward(
    a: np.ndarray, da: np.ndarray, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of row-wise softmax given its output ``a`` and upstream ``da``;
    written into ``out`` (which may be ``da``) when given.  ``scratch``, an
    array shaped like ``a``, takes the product a * da when given."""
    inner = np.sum(np.multiply(a, da, out=scratch), axis=-1, keepdims=True)
    d = np.subtract(da, inner, out=out)
    d *= a
    return d


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h*e_i) - f(x-h*e_i)) / 2h.

    Independent of any analytic backward pass; used to cross-check them.
    """
    x = as_vector(x)
    if h <= 0:
        raise ValueError("step h must be positive")
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite f() while differencing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g
