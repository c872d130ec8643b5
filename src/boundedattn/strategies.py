"""Control-vector strategies: who decides which slot a token is written to.

Each strategy is one frozen object holding its configuration only: the slot
count ``n`` plus its own hyperparameters.  Learned weights, inputs and keys
are arguments, so one object serves every layer and every call.

* ``LinformerControl(n, max_len)`` -- column t of a learned n-by-max_len
  matrix
* ``LocalToGlobalControl(n, global_positions)`` -- e_i if the token is the
  i-th designated global token (default: the first n), the zero vector
  otherwise; with n = N it is the identity control
* ``RandomSlotControl(n, seed, max_len)`` -- a uniformly random slot per
  position, drawn once from a seeded stream and then frozen
* ``CompressiveControl(n, ratio)`` -- chunk mean-pooling: e_{t // c} / c
* ``ClusterControl(n, iters, seed)`` -- per-head k-means over the keys; a
  token spreads 1/|cluster| onto its cluster's slot
* ``WindowControl(n)``  -- e_{n-1} written after an upper shift: a FIFO queue
  over the most recent n tokens
* ``DilatedControl(n)`` -- two interleaved FIFO queues covering every other
  token within a 2n window
* ``MlpControl(n)`` -- learned: exp(W_phi x_t), normalized per slot over
  the sequence (encoder/cross: a softmax over positions) or over the prefix
  (causal)

Every object says where it may run (``causal``: the decoder's causal site;
``sequence``: the encoder-self and cross sites, which see a whole
sequence), how its slots move (``stride``: 0 accumulates, s > 0 is a queue
that holds every s-th token), the shape of its learned weights and its
control rows.  Positions are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import as_matrix, check_finite, make_rng, softmax_rows


# --- strategies ----------------------------------------------------------------


@dataclass(frozen=True)
class Control:
    """n slots; subclasses add their hyperparameters and their control rows."""

    n: int
    causal: ClassVar[bool] = True  # legal at the causal site
    sequence: ClassVar[bool] = True  # legal at the encoder-self and cross sites
    stride: ClassVar[int] = 0  # 0: slots accumulate; s > 0: FIFO queue(s) of every s-th token

    def weight_shape(self, d_model: int) -> tuple[int, int] | None:
        """Shape of the learned weights, or None for a fixed control."""
        return None

    def phi_rows(self, t0: int, t1: int, weights: np.ndarray | None = None) -> np.ndarray:
        """(t1 - t0, n) control vectors of positions t0..t1-1."""
        raise NotImplementedError

    def _overflow(self, t0: int, t1: int, limit: int, what: str) -> None:
        """Positions from ``limit`` on have no control row; name the first asked for."""
        if t1 > limit:
            raise ValueError(f"position {max(t0, limit)} exceeds {what}")


@dataclass(frozen=True)
class LinformerControl(Control):
    """phi_t = column t of a learned n-by-max_len projection.

    Assumes fixed-length inputs: sequences longer than max_len are rejected,
    shorter ones use a prefix of the columns.
    """

    max_len: int

    def weight_shape(self, d_model):
        return (self.n, self.max_len)

    def phi_rows(self, t0, t1, weights=None):
        self._overflow(t0, t1, self.max_len, f"the fixed input length {self.max_len}")
        if weights is None:
            raise ValueError("linformer control needs its learned (n, max_len) weights")
        return weights[:, t0:t1].T.copy()


@dataclass(frozen=True)
class LocalToGlobalControl(Control):
    global_positions: tuple[int, ...] = ()  # one slot per listed position; () = range(n)

    def __post_init__(self):
        pos = tuple(int(p) for p in self.global_positions) or tuple(range(self.n))
        object.__setattr__(self, "global_positions", pos)
        if len(pos) > self.n:
            raise ValueError("more global tokens than slots")
        if len(set(pos)) != len(pos):
            raise ValueError("duplicate global positions")

    def phi_rows(self, t0, t1, weights=None):
        pos = np.asarray(self.global_positions, dtype=np.intp)
        slots = np.flatnonzero((pos >= t0) & (pos < t1))
        rows = np.zeros((t1 - t0, self.n))
        rows[pos[slots] - t0, slots] = 1.0
        return rows


@dataclass(frozen=True)
class RandomSlotControl(Control):
    """One uniformly random slot per position, drawn once from the seed."""

    seed: int
    max_len: int

    def __post_init__(self):
        slots = make_rng(self.seed).integers(0, self.n, size=self.max_len)
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)

    def phi_rows(self, t0, t1, weights=None):
        self._overflow(t0, t1, self.max_len, f"the {self.max_len} materialized draws")
        rows = np.zeros((t1 - t0, self.n))
        rows[np.arange(t1 - t0), self.slots[t0:t1]] = 1.0
        return rows


@dataclass(frozen=True)
class CompressiveControl(Control):
    """Mean-pool chunks of ``ratio`` consecutive tokens into successive slots."""

    ratio: int  # compression ratio c; slot t // c gets weight 1/c

    def __post_init__(self):
        if self.ratio < 1:
            raise ValueError("compression ratio must be >= 1")

    def phi_rows(self, t0, t1, weights=None):
        limit = self.n * self.ratio
        self._overflow(t0, t1, limit, f"the {self.n} slots of {self.ratio} tokens each")
        rows = np.zeros((t1 - t0, self.n))
        rows[np.arange(t1 - t0), np.arange(t0, t1) // self.ratio] = 1.0 / self.ratio
        return rows


@dataclass(frozen=True)
class ClusterControl(Control):
    """Per-head hard k-means over one forward's keys (see :func:`cluster_phi`)."""

    iters: int = 10
    seed: int = 0
    causal: ClassVar[bool] = False  # clustering reads the whole sequence

    def phi_rows(self, t0, t1, weights=None):
        raise ValueError("cluster control is computed from the keys; use phi_from_keys")

    def phi_from_keys(self, K: np.ndarray) -> np.ndarray:
        """(B, H, N, n) control for (B, H, N, d_head) keys, one clustering per head.

        The membership is a constant of the pass: backward holds it fixed and
        the next forward clusters again.
        """
        B, H, N, _ = K.shape
        phi = np.zeros((B, H, N, self.n))
        for b, h in np.ndindex(B, H):
            m = cluster_assign(K[b, h], self.n, self.iters, make_rng(self.seed))
            phi[b, h] = cluster_phi(m)
        return phi


@dataclass(frozen=True)
class WindowControl(Control):
    sequence: ClassVar[bool] = False  # a per-step queue
    stride: ClassVar[int] = 1

    def phi_rows(self, t0, t1, weights=None):
        rows = np.zeros((t1 - t0, self.n))
        rows[:, -1] = 1.0  # write the last slot after the upper shift
        return rows


@dataclass(frozen=True)
class DilatedControl(WindowControl):
    stride: ClassVar[int] = 2  # one queue per parity


@dataclass(frozen=True)
class MlpControl(Control):
    """Learned control: alpha_t = exp(W_phi @ x_t), W_phi of shape (n, d_model).

    The site picks how the raw alphas become control weights: encoder-self
    and cross divide by the sum over the whole sequence, which makes each
    slot's weights a softmax over positions (:func:`phi_mlp_sequence`);
    causal divides by the running per-slot sum of
    :func:`activation_forward` (the prefix), so it never looks at future
    tokens.
    """

    def weight_shape(self, d_model):
        return (self.n, d_model)

    def phi_rows(self, t0, t1, weights=None):
        raise ValueError(
            "MLP control needs the token representation x; use phi_mlp_sequence"
            " or activation_forward"
        )


def phi_at(control: Control, t: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Control vector of position t (0-based)."""
    if t < 0:
        raise ValueError(f"negative position {t}")
    return control.phi_rows(t, t + 1, weights)[0]


def phi_matrix(control: Control, length: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Stack phi_0..phi_{length-1} into a (length, n) matrix.

    Only accumulating strategies have a meaningful stacked form: queue
    strategies reuse slots over time.
    """
    if control.stride:
        raise ValueError("queue strategies have no stacked control matrix")
    return control.phi_rows(0, length, weights)


# --- learned control ------------------------------------------------------------


def activation_forward(z: np.ndarray) -> np.ndarray:
    """exp(z), the causal learned control's raw slot weights.

    Nothing is clipped: a pre-activation above about 709 overflows, and that
    raises a NumericError.
    """
    with np.errstate(over="ignore"):  # reported as the NumericError below
        a = np.exp(z)
    return check_finite(a, "exp of the learned control's pre-activations")


def phi_mlp_sequence(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sequence-normalized learned control phi^T, (..., n, N) for (..., N,
    d_model) inputs X: the control of the encoder-self and cross sites.

    Row l is softmax_i(w_l . x_i), a softmax over positions with the l-th
    weight row as a context-independent query, so the control weights
    written to each slot sum to one over the sequence.  The causal step is
    ``activation_forward(x_t @ weights.T)`` with a running per-slot sum.
    """
    return softmax_rows(np.matmul(weights, np.swapaxes(X, -1, -2)))


def cluster_phi(membership: np.ndarray) -> np.ndarray:
    """Control rows of centroid attention from a hard (N, n) membership.

    Token t spreads 1/|cluster| onto its cluster's slot, so every column
    sums to one and the memory rows are the cluster centroids.
    """
    m = as_matrix(membership)
    if not np.all((m == 0.0) | (m == 1.0)) or not np.all(m.sum(axis=1) == 1.0):
        raise ValueError("membership rows must be one-hot")
    sizes = m.sum(axis=0)
    if np.any(sizes == 0.0):
        raise ValueError("membership has an empty cluster")
    return m / sizes


# --- clustering ---------------------------------------------------------------


def cluster_assign(
    K: np.ndarray, n: int, iters: int = 10, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Hard k-means (Lloyd) over key rows, returning the (N, n) membership.

    Initialization samples n distinct rows; an empty cluster is repaired by
    stealing the point farthest from the centroid of the largest cluster.
    """
    K = as_matrix(K)
    N = K.shape[0]
    if n > N:
        raise ValueError(f"cannot form {n} clusters from {N} points")
    if rng is None:
        rng = make_rng(0)

    centroids = K[rng.choice(N, size=n, replace=False)].copy()
    labels = np.zeros(N, dtype=np.intp)
    for _ in range(max(iters, 1)):
        d2 = ((K[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for j in range(n):
            mask = labels == j
            if not mask.any():
                donor = np.bincount(labels, minlength=n).argmax()
                donor_pts = np.flatnonzero(labels == donor)
                far = donor_pts[d2[donor_pts, donor].argmax()]
                labels[far] = j
                mask = labels == j
            centroids[j] = K[mask].mean(axis=0)

    membership = np.zeros((N, n))
    membership[np.arange(N), labels] = 1.0
    return membership


def centroids_via_phi(K: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Cluster centroids: row j is the mean of the keys assigned to cluster j.

    Equals the memory built from the cluster control vectors, which is what
    makes centroid attention a bounded-memory instance.
    """
    K = as_matrix(K)
    m = as_matrix(membership, rows=K.shape[0])
    sizes = m.sum(axis=0)
    if np.any(sizes == 0.0):
        raise ValueError("membership has an empty cluster")
    return (m.T @ K) / sizes[:, None]


def cluster_sse(K: np.ndarray, membership: np.ndarray) -> float:
    """Within-cluster sum of squared distances (the k-means objective)."""
    centroids = centroids_via_phi(K, membership)
    labels = np.asarray(membership).argmax(axis=1)
    return float(((K - centroids[labels]) ** 2).sum())
