"""Bounded slot memory: build it from control vectors, read it, update it.

A memory is a pair of n-by-d matrices (one for keys, one for values).  Each
token i carries an n-dimensional control vector phi_i saying which of the n
slots it is written into and with what weight:

    ktilde = sum_i phi_i (x) k_i      (and the same for values)

Reading with query q is softmax attention over the n slots:

    out = vtilde^T softmax(ktilde q / temperature)

The same memory admits a recurrent update (new = transition . old + phi (x) k),
which is what makes constant-state streaming decode possible.  An optional
running normalizer turns the raw accumulated memory into the prefix-normalized
variant used by the learned control strategy in causal attention.

Slots never written to stay zero and still score q . 0 = 0 in the readout
softmax, i.e. they receive weight as if they held a zero key/value pair.  This
is the documented semantics, not hidden; equivalence tests use fully-written
memories.

This module is the slow reference the fast path (``attention.py``) is checked
against, and nothing on that path imports it.  Besides the memory itself it
holds two oracles: the learned sequence memory as n pseudo-query attentions
(:func:`pseudo_query_memory`) and the dilated strategy's two interleaved
queues (:func:`dilated_step`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericError, as_matrix, as_vector, check_finite, softmax


@dataclass(frozen=True)
class TransitionOp:
    """Slot transition applied before each write: identity or upper shift.

    The upper shift matrix U (ones on the superdiagonal) moves every slot row
    one position up and zeroes the last row, so repeated `U . state + e_n (x) k`
    updates implement a first-in-first-out queue over the slots.
    """

    kind: str  # "identity" | "upper_shift"
    size: int

    def __post_init__(self):
        if self.kind not in ("identity", "upper_shift"):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("transition size must be >= 1")

    @classmethod
    def identity(cls, size: int) -> "TransitionOp":
        return cls("identity", size)

    @classmethod
    def upper_shift(cls, size: int) -> "TransitionOp":
        return cls("upper_shift", size)

    def matrix(self) -> np.ndarray:
        """Dense n-by-n matrix of the transition (U[i, j] = delta_{i+1, j})."""
        if self.kind == "identity":
            return np.eye(self.size)
        return np.eye(self.size, k=1)

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Left-multiply without materializing the matrix."""
        if self.kind == "identity":
            return m.copy()
        out = np.zeros_like(m)
        out[:-1, ...] = m[1:, ...]
        return out


@dataclass
class BoundedMemory:
    """The (ktilde, vtilde) slot matrices, optionally with a running normalizer.

    ``norm_sum[l]`` accumulates the total raw control weight written to slot l
    over the prefix; dividing each row by it yields the normalized views used
    by :func:`readout_normalized`.
    """

    ktilde: np.ndarray  # (n, d)
    vtilde: np.ndarray  # (n, d)
    norm_sum: np.ndarray | None = None  # (n,)

    def __post_init__(self):
        self.ktilde = as_matrix(self.ktilde)
        self.vtilde = as_matrix(self.vtilde, *self.ktilde.shape)
        if self.norm_sum is not None:
            self.norm_sum = as_vector(self.norm_sum, self.ktilde.shape[0])

    @property
    def slots(self) -> int:
        return self.ktilde.shape[0]

    @property
    def width(self) -> int:
        return self.ktilde.shape[1]


def zero_memory(n: int, d: int, with_norm: bool = False) -> BoundedMemory:
    return BoundedMemory(
        np.zeros((n, d)), np.zeros((n, d)), np.zeros(n) if with_norm else None
    )


def build_memory(phis, K, V) -> BoundedMemory:
    """Batch construction: ktilde = sum_i phi_i (x) K[i], vtilde likewise.

    ``phis`` is an (N, n) array (or a sequence of N length-n vectors).
    The accumulation runs position by position in a fixed order (einsum
    without BLAS dispatch), so writes of exact-zero control weight leave the
    slot bit-for-bit untouched; tests rely on this determinism.
    """
    phis = np.ascontiguousarray(phis, dtype=np.float64)
    if phis.ndim == 1:
        phis = phis.reshape(1, -1)
    K = as_matrix(K, rows=phis.shape[0])
    V = as_matrix(V, rows=phis.shape[0], cols=K.shape[1])
    check_finite(phis, "control vectors")
    ktilde = np.einsum("tn,td->nd", phis, K, optimize=False)
    vtilde = np.einsum("tn,td->nd", phis, V, optimize=False)
    return BoundedMemory(check_finite(ktilde, "ktilde"), check_finite(vtilde, "vtilde"))


def step(
    state: BoundedMemory,
    phi: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    transition: TransitionOp | None = None,
    alpha: np.ndarray | None = None,
) -> BoundedMemory:
    """One recurrent update: new = transition . old + phi (x) k (values alike).

    When the state carries a normalizer and the strategy supplies the raw
    per-slot weight ``alpha`` (the un-normalized control vector), the
    normalizer advances by it: norm_sum += alpha.  The transition also acts on
    the normalizer so each slot's accumulated weight follows its slot.
    """
    n, d = state.ktilde.shape
    phi = as_vector(phi, n)
    k = as_vector(k, d)
    v = as_vector(v, d)
    if transition is None:
        transition = TransitionOp.identity(n)
    if transition.size != n:
        raise ValueError(f"transition size {transition.size} != memory slots {n}")

    ktilde = transition.apply(state.ktilde) + np.outer(phi, k)
    vtilde = transition.apply(state.vtilde) + np.outer(phi, v)
    norm = None
    if state.norm_sum is not None:
        norm = transition.apply(state.norm_sum.reshape(n, 1)).reshape(n)
        if alpha is not None:
            norm = norm + as_vector(alpha, n)
    elif alpha is not None:
        raise ValueError("alpha supplied but state has no normalizer")
    return BoundedMemory(ktilde, vtilde, norm)


def readout(q: np.ndarray, mem: BoundedMemory, temperature: float = 1.0) -> np.ndarray:
    """Read from the memory: vtilde^T softmax(ktilde q / temperature)."""
    q = as_vector(q, mem.width)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    weights = softmax(mem.ktilde @ q / temperature)
    return check_finite(mem.vtilde.T @ weights, "readout")


def readout_normalized(
    q: np.ndarray, state: BoundedMemory, temperature: float = 1.0
) -> np.ndarray:
    """Read from the row-normalized memory views.

    Row l of ktilde/vtilde is divided by the accumulated raw weight
    norm_sum[l] before the usual readout.  Numerically identical (to ~1e-10)
    to normalizing each control vector by its running prefix sum instead,
    which is how the causal learned strategy stays linear-time.
    """
    if state.norm_sum is None:
        raise ValueError("state has no normalizer; use readout()")
    if np.any(state.norm_sum <= 0.0):
        raise NumericError("zero normalizer: some slot was never written")
    kbar = state.ktilde / state.norm_sum[:, None]
    vbar = state.vtilde / state.norm_sum[:, None]
    return readout(q, BoundedMemory(kbar, vbar), temperature)


def full_attention(
    q: np.ndarray, K: np.ndarray, V: np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """Exact softmax attention baseline: V^T softmax(K q / temperature)."""
    K = as_matrix(K)
    V = as_matrix(V, rows=K.shape[0])
    q = as_vector(q, K.shape[1])
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    weights = softmax(K @ q / temperature)
    return check_finite(V.T @ weights, "attention output")


# --- reference oracles of the fast path ----------------------------------------


def pseudo_query_memory(w_phi: np.ndarray, X: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Build the key memory as n independent softmax attentions.

    Row l is exact attention with the (context-independent) l-th weight row
    as the query, over keys {x_i} and values {k_i}.  Identical to building
    the memory from sequence-normalized learned control vectors; with one
    slot this is a single scalar softmax over positions.
    """
    w_phi = as_matrix(w_phi)
    X = as_matrix(X, cols=w_phi.shape[1])
    K = as_matrix(K, rows=X.shape[0])
    return np.stack([full_attention(w, X, K) for w in w_phi])


def dilated_step(
    t: int,
    k: np.ndarray,
    v: np.ndarray,
    even_state: BoundedMemory,
    odd_state: BoundedMemory,
) -> tuple[BoundedMemory, BoundedMemory, BoundedMemory]:
    """Advance the two interleaved FIFO queues by token t (0-based).

    The queue matching t's parity receives the token (shift up, write the last
    slot); the other queue is untouched.  The query at step t reads the
    parity-matching queue, returned as the third element.
    """
    n = even_state.slots
    shift = TransitionOp.upper_shift(n)
    phi = np.zeros(n)
    phi[-1] = 1.0
    if t % 2 == 0:
        even_state = step(even_state, phi, k, v, shift)
        return even_state, odd_state, even_state
    odd_state = step(odd_state, phi, k, v, shift)
    return even_state, odd_state, odd_state
