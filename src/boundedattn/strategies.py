"""Control-vector strategies: who decides which slot a token is written to.

Eight ways to produce the per-token control vector phi_t over n slots:

* ``LinformerControl``   -- learned per-position columns of an n-by-N_max matrix
* ``LocalToGlobalControl`` -- e_i if the token is the i-th designated global
  token, the zero vector otherwise
* ``RandomSlotControl``  -- a uniformly random slot per position, drawn once
  from a seeded stream and then frozen
* ``CompressiveControl`` -- chunk mean-pooling: e_{t // c} / c
* ``ClusterControl``     -- soft spreading over cluster centroids from a hard
  membership matrix
* ``WindowControl``      -- e_{n-1} combined with the upper-shift transition:
  a FIFO queue over the most recent n tokens
* ``DilatedControl``     -- two interleaved FIFO queues covering every other
  token within a 2n window
* ``MlpControl``         -- learned: alpha_t = act(W_phi x_t), normalized over
  the sequence (encoder/cross) or over the prefix (causal)

Positions are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .memory import BoundedMemory, TransitionOp, step
from .numerics import NumericError, as_matrix, as_vector, check_finite, make_rng

EXP_CLAMP = 30.0  # training-path guard for exp(); equivalence paths never clamp


# --- strategy descriptors ---------------------------------------------------


@dataclass(frozen=True)
class LinformerControl:
    """phi_t = column t of a learned n-by-N_max projection.

    Assumes fixed-length inputs: sequences longer than N_max are rejected,
    shorter ones use a prefix of the columns.
    """

    weights: np.ndarray  # (n, n_max)

    def __post_init__(self):
        object.__setattr__(self, "weights", as_matrix(self.weights))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def max_len(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class LocalToGlobalControl:
    n: int
    global_positions: tuple[int, ...]  # 0-based, one slot per listed position

    def __post_init__(self):
        object.__setattr__(self, "global_positions", tuple(int(p) for p in self.global_positions))
        if len(self.global_positions) > self.n:
            raise ValueError("more global tokens than slots")
        if len(set(self.global_positions)) != len(self.global_positions):
            raise ValueError("duplicate global positions")


@dataclass(frozen=True)
class RandomSlotControl:
    """One uniformly random slot per position, materialized from the seed."""

    n: int
    seed: int
    max_len: int

    def __post_init__(self):
        slots = make_rng(self.seed).integers(0, self.n, size=self.max_len)
        object.__setattr__(self, "slots", slots)


@dataclass(frozen=True)
class CompressiveControl:
    """Mean-pool chunks of ``ratio`` consecutive tokens into successive slots."""

    n: int
    ratio: int  # compression ratio c; slot t // c gets weight 1/c

    def __post_init__(self):
        if self.ratio < 1:
            raise ValueError("compression ratio must be >= 1")


@dataclass(frozen=True)
class ClusterControl:
    """Hard membership matrix (N, n): token t spreads 1/|cluster| onto its slot."""

    membership: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.membership, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("membership must be an (N, n) matrix")
        if not np.all((m == 0.0) | (m == 1.0)) or not np.all(m.sum(axis=1) == 1.0):
            raise ValueError("membership rows must be one-hot")
        object.__setattr__(self, "membership", m)

    @property
    def n(self) -> int:
        return self.membership.shape[1]

    @property
    def length(self) -> int:
        return self.membership.shape[0]


@dataclass(frozen=True)
class WindowControl:
    n: int


@dataclass(frozen=True)
class DilatedControl:
    n: int


@dataclass(frozen=True)
class MlpControl:
    """Learned control: alpha_t = activation(weights @ x_t).

    ``normalization`` picks how the raw alphas become control weights:
    "sequence" divides by the sum over the whole sequence (encoder self /
    cross attention), "prefix" defers to the running-normalizer memory path
    (causal attention; never looks at future tokens).
    """

    weights: np.ndarray  # (n, d_model)
    normalization: str = "sequence"  # "sequence" | "prefix"
    activation: str = "exp"  # "exp" | "relu" | "sigmoid"

    def __post_init__(self):
        object.__setattr__(self, "weights", as_matrix(self.weights))
        if self.normalization not in ("sequence", "prefix"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.activation not in ("exp", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


ControlStrategy = Union[
    LinformerControl,
    LocalToGlobalControl,
    RandomSlotControl,
    CompressiveControl,
    ClusterControl,
    WindowControl,
    DilatedControl,
    MlpControl,
]


def transition_for(strategy: ControlStrategy) -> TransitionOp:
    """Queue strategies shift slots before each write; the rest accumulate."""
    if isinstance(strategy, (WindowControl, DilatedControl)):
        return TransitionOp.upper_shift(strategy.n)
    return TransitionOp.identity(strategy.n)


def causal_legal(strategy: ControlStrategy) -> bool:
    """True when phi_t never depends on tokens after t."""
    if isinstance(strategy, ClusterControl):
        return False  # membership comes from clustering the full sequence
    if isinstance(strategy, MlpControl):
        return strategy.normalization == "prefix"
    return True


def identity_strategy(n: int) -> LocalToGlobalControl:
    """phi_t = e_t: with n = N this makes the bounded path reproduce exact
    softmax attention (every token gets its own slot)."""
    return LocalToGlobalControl(n=n, global_positions=tuple(range(n)))


# --- activations -------------------------------------------------------------


def activation_forward(name: str, z: np.ndarray, clamp: float | None = None) -> np.ndarray:
    if name == "exp":
        if clamp is not None:
            z = np.clip(z, -clamp, clamp)
        a = np.exp(z)
        check_finite(a, "exp activation (inputs too large; pass a clamp in training paths)")
        return a
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {name!r}")


def activation_grad(name: str, z: np.ndarray, a: np.ndarray, clamp: float | None = None) -> np.ndarray:
    """d activation / d z, expressed from the pre-activation and its output."""
    if name == "exp":
        g = a.copy()
        if clamp is not None:
            g[(z <= -clamp) | (z >= clamp)] = 0.0
        return g
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


def mlp_alpha(strategy: MlpControl, x: np.ndarray, clamp: float | None = None) -> np.ndarray:
    """Raw slot weights for one token (1-D x) or a stack of tokens (2-D x)."""
    x = np.asarray(x, dtype=np.float64)
    z = x @ strategy.weights.T
    return activation_forward(strategy.activation, z, clamp)


# --- the per-position control vector -----------------------------------------


def phi_at(
    strategy: ControlStrategy,
    t: int,
    length: int,
    x: np.ndarray | None = None,
    alpha_sum: np.ndarray | None = None,
):
    """Control vector for position t (0-based) of a length-``length`` sequence.

    For the learned MLP strategy the return value is the pair (phi, raw alpha);
    all other strategies return just phi.  Sequence-normalized MLP needs the
    per-slot normalizer ``alpha_sum`` = sum of all alphas (see
    :func:`phi_mlp_sequence`, which computes the whole stack at once).
    """
    if not 0 <= t < length:
        raise ValueError(f"position {t} outside sequence of length {length}")

    if isinstance(strategy, LinformerControl):
        if t >= strategy.max_len:
            raise ValueError(
                f"position {t} exceeds the fixed input length {strategy.max_len}"
            )
        return strategy.weights[:, t].copy()

    if isinstance(strategy, LocalToGlobalControl):
        phi = np.zeros(strategy.n)
        if t in strategy.global_positions:
            phi[strategy.global_positions.index(t)] = 1.0
        return phi

    if isinstance(strategy, RandomSlotControl):
        if t >= strategy.max_len:
            raise ValueError(f"position {t} exceeds materialized draws {strategy.max_len}")
        phi = np.zeros(strategy.n)
        phi[strategy.slots[t]] = 1.0
        return phi

    if isinstance(strategy, CompressiveControl):
        slot = t // strategy.ratio
        if slot >= strategy.n:
            raise ValueError(
                f"position {t} needs slot {slot}, but only {strategy.n} slots exist"
            )
        phi = np.zeros(strategy.n)
        phi[slot] = 1.0 / strategy.ratio
        return phi

    if isinstance(strategy, ClusterControl):
        sizes = strategy.membership.sum(axis=0)
        if np.any(sizes == 0.0):
            raise ValueError("membership has an empty cluster")
        return strategy.membership[t] / sizes

    if isinstance(strategy, (WindowControl, DilatedControl)):
        phi = np.zeros(strategy.n)
        phi[-1] = 1.0
        return phi

    if isinstance(strategy, MlpControl):
        if x is None:
            raise ValueError("MLP control needs the token representation x")
        alpha = mlp_alpha(strategy, as_vector(x))
        if strategy.normalization == "prefix":
            return alpha.copy(), alpha
        if alpha_sum is None:
            raise ValueError(
                "sequence normalization needs alpha_sum; use phi_mlp_sequence"
            )
        alpha_sum = as_vector(alpha_sum, strategy.n)
        if np.any(alpha_sum <= 0.0):
            raise NumericError("sequence normalizer has a zero entry")
        return alpha / alpha_sum, alpha

    raise TypeError(f"unknown strategy {type(strategy).__name__}")


def phi_matrix(strategy: ControlStrategy, length: int, X: np.ndarray | None = None) -> np.ndarray:
    """Stack phi_0..phi_{N-1} into an (N, n) matrix.

    Only identity-transition strategies have a meaningful stacked form (queue
    strategies reuse slots over time).  For the MLP strategy the rows are the
    sequence-normalized weights when normalization is "sequence" and the raw
    alphas when it is "prefix".
    """
    if isinstance(strategy, (WindowControl, DilatedControl)):
        raise ValueError("queue strategies have no stacked control matrix")
    if isinstance(strategy, MlpControl):
        X = as_matrix(X, rows=length)
        alphas = mlp_alpha(strategy, X)
        if strategy.normalization == "sequence":
            return _normalize_sequence(alphas)
        return alphas
    return np.stack([phi_at(strategy, t, length) for t in range(length)])


# --- learned-control helpers --------------------------------------------------


def _normalize_sequence(alphas: np.ndarray) -> np.ndarray:
    total = alphas.sum(axis=0)
    if np.any(total <= 0.0):
        raise NumericError("sequence normalizer has a zero entry")
    return alphas / total


def phi_mlp_sequence(X: np.ndarray, weights: np.ndarray, activation: str = "exp") -> np.ndarray:
    """Sequence-normalized learned control for a whole input.

    alpha_i = act(W x_i), phi_i = alpha_i / sum_j alpha_j (per slot), so the
    control weights written to each slot sum to exactly one over the sequence.
    """
    strategy = MlpControl(weights=weights, normalization="sequence", activation=activation)
    return _normalize_sequence(mlp_alpha(strategy, as_matrix(X)))


def phi_mlp_prefix(
    x_t: np.ndarray,
    weights: np.ndarray,
    running_alpha_sum: np.ndarray,
    activation: str = "exp",
) -> tuple[np.ndarray, np.ndarray]:
    """One causal step of the learned control.

    Returns the raw alpha_t (which doubles as the control vector written into
    the un-normalized memory) and the advanced running per-slot sum used by
    the normalized readout.  Never reads anything after position t.
    """
    strategy = MlpControl(weights=weights, normalization="prefix", activation=activation)
    alpha = mlp_alpha(strategy, as_vector(x_t))
    running = as_vector(running_alpha_sum, strategy.n)
    return alpha, running + alpha


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


# --- dilated two-queue recurrence ----------------------------------------------


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
