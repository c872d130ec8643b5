"""Multihead bounded-memory attention with hand-written backward passes.

Every site reads one memory through one softmax readout; the strategies
differ only in how the control phi organizes that memory, and softmax is
the identity control, whose memory is the keys and values themselves.
Drop-in replacement for softmax multihead attention at three sites:

* ``encoder_self`` -- queries and keys/values from the same full sequence;
  the memory (phi^T K, phi^T V) is built once from all tokens, by one
  batched product each with phi^T in one layout (:func:`_sequence_phi`),
  and every query reads it through the softmax kernel pair (``_softmax_forward`` /
  ``_softmax_backward``) that exact attention uses.
* ``causal``       -- self-attention over the prefix; the memory is the
  recurrent state ktilde_t = transition . ktilde_{t-1} + phi_t (x) k_t.
  Training runs it in linear time, on one grid of chunks of C <= 32 steps
  with the heavy work in batched GEMMs.  The accumulating strategies use a
  chunkwise scan: the masked parallel form inside a chunk, plus the
  (n x d_head) memory carried in from the earlier chunks, at
  O(N C (n + d_head) + N n d_head) per head.  The queue strategies (window,
  dilated), whose n slots reach back h = stride (n - 1) steps, score each
  chunk against the C + h key rows it can reach in one (C x (C + h)) GEMM
  and read the slot scores off a strided band of it, at O(N (C + h) d_head).
* ``cross``        -- decoder queries over a memory built once from the
  encoder output, as at ``encoder_self``; the decoder state caches exactly
  that memory for all decode steps.

A decode state (:class:`AttnState`) is likewise one memory of
(B, H, slots, d_head) key/value slots, and :func:`stream_step`, the one
decode entry, reads it through the same readout.  The accumulating
strategies add every token into their n slots through one write, whatever
their control; softmax and the queue strategies keep a ring that writes
token t to slot t mod slots.

Every projection is stored C-contiguous as (d_out, d_in) and applied as
``x @ W.T``, as the strategy weights are; its gradient is
``fold_outer(dY, X)`` and the input gradient ``dY @ W``.  A decode step
multiplies a few rows (the batch) by each weight.  OpenBLAS runs that
product on its small-matrix kernel while rows x d_out <= 1200 and packs the
whole weight on every call past it; every product here stays under that
bound at the decode bench's batch of 4 (the toy model's FFN, whose first
matrix would not, is stored (d_in, d_out) instead).  An accumulating
decode step adds its control rows only to the slots some row names.

The control vector phi is computed from the pre-projection token
representation (the same x that feeds the q/k/v projections) and is shared
across heads; each head keeps its own (n x d_head) slot matrices.  The
learned control (``mlp``) has one form per site, and no option: at the
sequence sites phi^T is a softmax over positions of W_phi x per slot, n
pseudo-query attentions whose backward is the softmax's own; at the causal
site the raw weights exp(W_phi x_t) are written and each slot is divided by
their running sum.  Nothing clips them: an exp that overflows raises a
NumericError.  The strategy object behind a config (:func:`control_for`,
``config.control``) decides where it may run, whether its slots accumulate
or form a queue, the shape of its learned weights and its control rows;
this module only picks the kernel family.

Backward passes are a manual per-operation chain (projections, control
weights, memory build, readout softmax), not a graph engine; every gradient
is checked against central finite differences in the tests.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import strategies as st
from .numerics import (
    NumericError,
    check_finite,
    softmax_rows,
    softmax_rows_backward,
)

SITES = ("encoder_self", "causal", "cross")

# kind -> strategy object for n slots; softmax is the identity control (None):
# its memory is the keys and values themselves, one slot per token
_CONTROLS = {
    "softmax": lambda n, spec: None,
    "mlp": lambda n, spec: st.MlpControl(n),
    "linformer": lambda n, spec: st.LinformerControl(n, spec.max_len),
    "local_to_global": lambda n, spec: st.LocalToGlobalControl(n, spec.global_positions),
    "random": lambda n, spec: st.RandomSlotControl(n, spec.seed, spec.max_len),
    "compressive": lambda n, spec: st.CompressiveControl(n, spec.ratio),
    "cluster": lambda n, spec: st.ClusterControl(n, spec.cluster_iters, spec.seed),
    "window": lambda n, spec: st.WindowControl(n),
    "dilated": lambda n, spec: st.DilatedControl(n),
}
STRATEGY_KINDS = tuple(_CONTROLS)


@dataclass(frozen=True)
class StrategySpec:
    """Configuration-level strategy descriptor; learned weights live in params."""

    kind: str
    seed: int = 0  # random slots
    ratio: int = 4  # compressive chunk size
    global_positions: tuple[int, ...] = ()  # local_to_global; default first n
    cluster_iters: int = 10
    max_len: int = 512  # linformer fixed input length; random-slot draw count

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")


@functools.lru_cache(maxsize=64)
def control_for(n: int, spec: StrategySpec) -> st.Control | None:
    """The strategy object of ``spec`` with n slots (None for softmax).

    Built once per (n, spec): a random-slot control draws its ``max_len``
    slots on construction, which a decode step must not repeat per token.
    """
    return _CONTROLS[spec.kind](n, spec)


@dataclass(frozen=True)
class AttentionConfig:
    heads: int
    d_model: int
    site: str
    strategy: StrategySpec
    n: int
    temperature: float | None = None  # None -> sqrt(d_head)

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown site {self.site!r}")
        if self.heads < 1 or self.d_model % self.heads:
            raise ValueError(f"{self.heads} heads do not divide d_model {self.d_model}")
        if self.n < 1:
            raise ValueError("memory needs at least one slot")
        control = self.control
        if control is not None and not (control.causal if self.site == "causal" else control.sequence):
            raise ValueError(f"{self.strategy.kind} control is illegal at the {self.site} site")

    @property
    def control(self) -> st.Control | None:
        return control_for(self.n, self.strategy)

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def tau(self) -> float:
        return math.sqrt(self.d_head) if self.temperature is None else self.temperature


@dataclass
class LayerParams:
    """Projections plus (optionally shared) strategy weights.

    Each projection is C-contiguous (d_out, d_in), here (d_model, d_model),
    and maps x to ``x @ w.T``.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    strategy_weights: np.ndarray | None = None  # mlp: (n, d_model); linformer: (n, max_len)


@dataclass
class GradTape:
    """Primal intermediates recorded by one forward; consumed by one backward.

    ``take`` hands the arrays to that backward and leaves the tape empty, so
    the backward can drop each one after its last use.  ``config`` is the
    attention config of an attention tape, None on a model's tape.
    """

    config: AttentionConfig | None
    arrays: dict = field(default_factory=dict)
    consumed: bool = False

    def take(self) -> dict:
        if self.consumed:
            raise RuntimeError("gradient tape already consumed by a backward pass")
        self.consumed = True
        arrays, self.arrays = self.arrays, {}
        return arrays


def draw_weight(
    rng: np.random.Generator, d_in: int, d_out: int, std: float | None = None
) -> np.ndarray:
    """A (d_out, d_in) dense weight, N(0, std^2) with std 1/sqrt(d_in) by
    default: the draws of a (d_in, d_out) matrix stored transposed, so a seed
    gives the same model in either layout."""
    std = 1.0 / math.sqrt(d_in) if std is None else std
    return np.ascontiguousarray(rng.normal(0.0, std, (d_in, d_out)).T)


def init_layer_params(config: AttentionConfig, rng: np.random.Generator) -> LayerParams:
    d = config.d_model
    return LayerParams(
        wq=draw_weight(rng, d, d),
        wk=draw_weight(rng, d, d),
        wv=draw_weight(rng, d, d),
        wo=draw_weight(rng, d, d),
        strategy_weights=init_strategy_weights(config, rng),
    )


def init_strategy_weights(
    config: AttentionConfig, rng: np.random.Generator
) -> np.ndarray | None:
    control = config.control
    shape = None if control is None else control.weight_shape(config.d_model)
    if shape is None:
        return None
    return rng.normal(0.0, 1.0 / math.sqrt(shape[1]), shape)


# --- head plumbing ------------------------------------------------------------


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _batched(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[None, :, :], True
    if x.ndim == 3:
        return x, False
    raise ValueError(f"expected (N, d_model) or (B, N, d_model), got {x.shape}")


def _reverse_cumsum(x: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(x, axis), axis=axis), axis)


def _chunk_cumsum(x: np.ndarray, reverse: bool = False) -> np.ndarray:
    """x summed in place over its chunk axis 1, from the back when reverse.

    One add per chunk: numpy's cumsum over a leading axis runs its inner loop
    across the chunks, which is about 5x slower for a few dozen chunks.
    """
    steps = range(x.shape[1] - 2, -1, -1) if reverse else range(1, x.shape[1])
    for j in steps:
        x[:, j] += x[:, j + 1 if reverse else j - 1]
    return x


def fold_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of a[..., i] b[..., j]: one flat GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


# --- control weights ----------------------------------------------------------


def _mask_unwritten(s: np.ndarray, written: np.ndarray) -> np.ndarray:
    """Slot scores ``s`` (..., n) set to -inf, in place, at the slots
    ``written`` marks False, on the rows where some slot is written.

    A constant control reads only the slots it has written: an all-zero slot
    would score q . 0 = 0 and soak up weight, and excluding it is what makes
    the identity control with n = N reproduce causal softmax exactly.  A row
    with no slot written yet reads the all-zero memory as-is (uniform weights
    over zero values: a zero output).  The batch kernel and the decode step
    both mask through here.
    """
    np.copyto(s, -np.inf, where=~written & written.any(axis=-1, keepdims=True))
    return s


# --- causal kernels ----------------------------------------------------------------
# The accumulating strategies run a chunkwise scan, the queue strategies
# banded block GEMMs; neither holds an (N, N) or (N, n, d_head) array.

_CHUNK = 32  # longest chunk of the causal kernels


def _chunking(N: int) -> tuple[int, int]:
    """(chunk length c, chunk count) for N tokens: near-even chunks of <= _CHUNK."""
    c = -(-N // -(-N // _CHUNK))
    return c, -(-N // c)


def _pad_time(x: np.ndarray, length: int, axis: int) -> np.ndarray:
    """x with zero rows appended along ``axis`` up to ``length``."""
    if length == x.shape[axis]:
        return x
    out = np.zeros(x.shape[:axis] + (length,) + x.shape[axis + 1:])
    out[(slice(None),) * axis + (slice(0, x.shape[axis]),)] = x
    return out


def _heads_to_chunks(x: np.ndarray, c: int, nc: int) -> np.ndarray:
    """(B, H, N, d) -> (B*nc, H, c, d), the ragged tail padded with zero rows."""
    B, H, _, d = x.shape
    x = _pad_time(x, nc * c, axis=2)
    return x.reshape(B, H, nc, c, d).transpose(0, 2, 1, 3, 4).reshape(B * nc, H, c, d)


def _chunks_to_heads(x: np.ndarray, B: int, N: int) -> np.ndarray:
    """(B*nc, H, c, d) -> (B, H, N, d), the padded tail dropped."""
    _, H, c, d = x.shape
    return x.reshape(B, -1, H, c, d).transpose(0, 2, 1, 3, 4).reshape(B, H, -1, d)[:, :, :N]


def _by_chunk(x: np.ndarray, B: int) -> np.ndarray:
    """(B*nc, ...) -> (B, nc, ...), a view: [:, 1:] are the chunks that read a
    carried memory, [:, :-1] the chunks whose writes are carried."""
    return x.reshape(B, -1, *x.shape[1:])


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _head_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over heads and steps of x[b, h, t, i] y[b, h, t, l]: (b, i, l), one
    GEMM per chunk with the heads stacked on the contracted axis."""
    b = x.shape[0]
    return _swap(np.matmul(_swap(y.reshape(b, -1, y.shape[-1])), x.reshape(b, -1, x.shape[-1])))


def _masked_gram(X, Y, mask, out=None):
    """X Y^T per chunk and head, (B*nc, H, c, c), kept where i <= t; written
    into ``out`` when given."""
    P = np.matmul(X, _swap(Y), out=out)
    P *= mask
    return P


def _masked_slot_gram(G, A, mask, out=None):
    """G A^T per chunk, (B*nc, H, c, c), kept where i <= t: the (B*nc, H, c,
    n) rows G of every head against the chunk's (B*nc, c, n) control rows A;
    written into ``out`` when given."""
    Bnc, H, c, n = G.shape
    W = np.matmul(G.reshape(Bnc, H * c, n), _swap(A),
                  out=None if out is None else out.reshape(Bnc, H * c, c))
    W = W.reshape(Bnc, H, c, c)
    W *= mask
    return W


def _carried(A, X, B):
    """The memory entering chunks 1..nc-1, (B, nc-1, H, n, d): A_c^T X_c of
    every earlier chunk c, summed."""
    return _chunk_cumsum(np.matmul(_swap(_by_chunk(A[:, None], B)[:, :-1]), _by_chunk(X, B)[:, :-1]))


def _slot_scores(Q, K, A, P, B, out=None, scratch=None):
    """Raw slot scores (B*nc, H, c, n), written into ``out`` when given, and
    the carried key memory (None with one chunk).

    Inside a chunk the score of step t is sum_{i<=t} P[t, i] A[i], with P the
    masked chunk gram Q K^T; each later chunk adds q_t . kmem, computed into
    ``scratch`` (shaped like the scores) when given.
    """
    Bnc, H, c, _ = Q.shape
    n = A.shape[-1]
    s = np.matmul(P.reshape(Bnc, H * c, c), A,
                  out=None if out is None else out.reshape(Bnc, H * c, n)).reshape(Bnc, H, c, n)
    kmem = None
    if Bnc > B:
        kmem = _carried(A, K, B)
        later = _by_chunk(s, B)[:, 1:]
        later += np.matmul(_by_chunk(Q, B)[:, 1:], _swap(kmem),
                           out=None if scratch is None else _by_chunk(scratch, B)[:, 1:])
    return s, kmem


def _additive_causal_forward(Q, K, V, A, normalize, tau):
    # Chunkwise scan of the recurrence ktilde_t = ktilde_{t-1} + alpha_t (x) k_t.
    # Inside a chunk the raw slot score of step t is the masked parallel form
    # sum_{i<=t} P[t, i] A[i], with P[t, i] = q_t . k_i, over that chunk's
    # tokens only; each later chunk adds q_t . ktilde for the memory the
    # earlier chunks left behind (their A_c^T K_c, summed over chunks).  The
    # learned control (normalize) divides by the running per-slot weight S_t;
    # a constant control instead masks the slots it has not written yet.  The
    # readout weight of chunk token i at step t is W2[t, i] = g_t . A[i]
    # (i <= t), with g = a / S.  The tape keeps only what the backward cannot
    # cheaply rebuild, in the layout the backward reads it: a, A, the mask,
    # S for the learned control, and the chunked Q, K and V.  The backward
    # rebuilds P, the scores s, g, W2 and the carried memories kmem and vmem
    # with these same calls, so it reads the same bits.  One (c x c) buffer
    # holds P and then W2; the scores are normalized in their own buffer.
    B, H, N, _ = Q.shape
    n = A.shape[2]
    c, nc = _chunking(N)
    Q, K, V = (_heads_to_chunks(x, c, nc) for x in (Q, K, V))
    # zero rows pad A, so S and the written-slot mask repeat their last row
    A = _pad_time(A, nc * c, axis=1)
    if normalize:
        S = np.cumsum(A, axis=1)
        if np.any(S <= 0.0):
            raise NumericError("prefix normalizer hit zero (no weight written yet)")
        S = S.reshape(B * nc, 1, c, n)
    else:
        written = (np.cumsum(np.abs(A[0]), axis=0) > 0.0).reshape(nc, 1, c, n)
    A = A.reshape(B * nc, c, n)
    mask = np.tril(np.ones((c, c)))
    square = _masked_gram(Q, K, mask)
    s, _ = _slot_scores(Q, K, A, square, B)
    if normalize:
        s /= S * tau
    else:
        s /= tau
        _mask_unwritten(_by_chunk(s, B), written)
    a = softmax_rows(s, out=s)
    g = a / S if normalize else a
    out = np.matmul(_masked_slot_gram(g, A, mask, out=square), V)
    del square
    if nc > 1:
        later = _by_chunk(out, B)[:, 1:]
        later += np.matmul(_by_chunk(g, B)[:, 1:], _carried(A, V, B))
    cache = {"a": a, "A": A, "mask": mask, "Q": Q, "K": K, "V": V}
    if normalize:
        cache["S"] = S
    return _chunks_to_heads(out, B, N), cache


def _additive_causal_backward(dout, cache, normalize, tau, grad_A):
    # grad_A: the control has weights, so the gradient reaches A (dA is None
    # otherwise).  The cache is taken apart, and each array here is dropped
    # after its last use.  g, W2, vmem, kmem, P and (learned control) the
    # scores s are rebuilt once each, just before their first use.  One
    # (c x c) buffer holds W2, dW2, P and dP in turn; g's buffer becomes the
    # scratch of the normalizer terms and a's buffer the rebuilt s.
    a, A, mask, S = cache.pop("a"), cache.pop("A"), cache.pop("mask"), cache.pop("S", None)
    Q, K, V = cache.pop("Q"), cache.pop("K"), cache.pop("V")
    B, H, N, _ = dout.shape
    c, n = A.shape[1:]
    nc = A.shape[0] // B
    dout = _heads_to_chunks(dout, c, nc)
    g = a / S if normalize else a
    square = _masked_slot_gram(g, A, mask)  # W2
    dV = np.matmul(_swap(square), dout)
    dW2 = _masked_gram(dout, V, mask, out=square)
    dg = np.matmul(dW2.reshape(B * nc, H * c, c), A).reshape(B * nc, H, c, n)
    if grad_A:
        dA = _head_sum(dW2, g)
    del dW2
    if nc > 1:
        later = _by_chunk(dg, B)[:, 1:]
        later += np.matmul(_by_chunk(dout, B)[:, 1:], _swap(_carried(A, V, B)))
        dvmem = np.matmul(_swap(_by_chunk(g, B)[:, 1:]), _by_chunk(dout, B)[:, 1:])
    del dout
    # dg's buffer becomes da, then ds, then dC
    if normalize:
        t = np.multiply(dg, g, out=g)  # scratch for dg * g, then ds * s
        dS = -np.sum(t, axis=1, keepdims=True)
        dS /= S  # g = a / S
        dg /= S
    del g
    softmax_rows_backward(a, dg, out=dg, scratch=t if normalize else None)
    kmem = P = None
    if normalize:
        P = _masked_gram(Q, K, mask, out=square)
        s, kmem = _slot_scores(Q, K, A, P, B, out=a, scratch=t)
        del a
        s /= S * tau
        dS -= np.sum(np.multiply(dg, s, out=t), axis=1, keepdims=True) / S  # s = C / (S tau)
        dg /= S * tau
        del s, t
    else:
        del a
        dg /= tau
    dC = dg
    if grad_A:
        if P is None:
            P = _masked_gram(Q, K, mask, out=square)
        dA += _head_sum(P, dC)
    del P
    dP = _masked_slot_gram(dC, A, mask, out=square)
    del square
    dQ = np.matmul(dP, K)
    dK = np.matmul(_swap(dP), Q)
    del dP
    if nc > 1:
        if kmem is None:
            kmem = _carried(A, K, B)
        later = _by_chunk(dQ, B)[:, 1:]
        later += np.matmul(_by_chunk(dC, B)[:, 1:], kmem)
        del kmem
        dkmem = np.matmul(_swap(_by_chunk(dC, B)[:, 1:]), _by_chunk(Q, B)[:, 1:])
        # chunk j's writes reach the memory of every chunk after it
        dkw = _chunk_cumsum(dkmem, reverse=True)
        dvw = _chunk_cumsum(dvmem, reverse=True)
        A_w = _by_chunk(A[:, None], B)[:, :-1]
        earlier = _by_chunk(dK, B)[:, :-1]
        earlier += np.matmul(A_w, dkw)
        earlier = _by_chunk(dV, B)[:, :-1]
        earlier += np.matmul(A_w, dvw)
        if grad_A:
            earlier = _by_chunk(dA, B)[:, :-1]
            earlier += (np.matmul(_by_chunk(K, B)[:, :-1], _swap(dkw))
                        + np.matmul(_by_chunk(V, B)[:, :-1], _swap(dvw))).sum(axis=2)
    del dC, dg, Q, K, V
    dQ, dK, dV = (_chunks_to_heads(x, B, N) for x in (dQ, dK, dV))
    if not grad_A:
        return dQ, dK, dV, None
    dA = dA.reshape(B, -1, n)[:, :N]
    if normalize:
        dA += _reverse_cumsum(dS.reshape(B, -1, n)[:, :N], axis=1)  # S = cumsum(A)
    return dQ, dK, dV, dA


def _windows(x: np.ndarray, c: int, nc: int, h: int) -> np.ndarray:
    """(B, H, N, d) -> (B, H, nc, c + h, d), a read-only view of x with h zero
    rows in front and zero rows behind: block j sees padded rows
    [j*c, j*c + c + h), and padded row t + stride*l is the pair slot l holds
    at step t."""
    B, H, N, d = x.shape
    padded = np.zeros((B, H, h + nc * c, d))
    padded[:, :, h: h + N] = x
    sb, sh, st_, sd = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, (B, H, nc, c + h, d), (sb, sh, c * st_, st_, sd), writeable=False)


def _band(x: np.ndarray, n: int, stride: int) -> np.ndarray:
    """(..., c, c + h) -> (..., c, n) view of the entries [i, i + stride*l]:
    row i's n queue slots, all distinct since stride*(n-1) = h < c + h + 1."""
    *lead, c, _ = x.shape
    *outer, si, sj = x.strides
    return np.lib.stride_tricks.as_strided(x, (*lead, c, n), (*outer, si + sj, stride * sj))


def _put_band(W: np.ndarray, x: np.ndarray, stride: int) -> np.ndarray:
    """Write (B, H, N, n) per-slot values onto the band of the (B, H, nc, c,
    c + h) block matrices W: x[t, l] at [t - j*c, t - j*c + stride*l]."""
    B, H, nc, c, _ = W.shape
    _band(W, x.shape[-1], stride)[...] = _pad_time(x, nc * c, axis=2).reshape(B, H, nc, c, -1)
    return W


def _overlap_add(win: np.ndarray, h: int, N: int) -> np.ndarray:
    """Sum (B, H, nc, c + h, d) per-block window rows back onto the padded
    rows they were read from, and drop the padding: (B, H, N, d).  Windows
    step by c rows, so window row r of block j adds to c-row block j + r // c:
    one pass per c rows of window, more than two when h > c."""
    B, H, nc, w, d = win.shape
    c = w - h
    out = np.zeros((B, H, nc + -(-h // c), c, d))
    for r in range(0, w, c):
        k = min(c, w - r)
        out[:, :, r // c: r // c + nc, :k] += win[:, :, :, r: r + k]
    return out.reshape(B, H, -1, d)[:, :, h: h + N]


def _queue_causal_forward(Q, K, V, n, stride, tau):
    # After the step-t write, slot l holds the pair written at t - h + stride*l
    # (h = stride*(n-1)), which is row t + stride*l of K and V with h zero
    # rows in front.  Before its source step exists a slot still holds the
    # zero pair the queue started with: it scores q . 0 = 0 and reads a zero
    # value.  Each block of c steps makes one (c x (c + h)) score GEMM against
    # the key rows its queues can hold; the slot scores are a strided band of
    # it, and the readout is the band-placed weights times the same rows.
    # The weights are normalized in the copy of the band and written back
    # into the zeroed score buffer; the tape holds only them.
    B, H, N, dh = Q.shape
    c, nc = _chunking(N)
    h = stride * (n - 1)
    Qc = _pad_time(Q, nc * c, axis=2).reshape(B, H, nc, c, dh)
    Kw, Vw = (_windows(x, c, nc, h) for x in (K, V))
    scores = np.matmul(Qc, _swap(Kw))
    s = _band(scores, n, stride) / tau
    a = s.reshape(B, H, nc * c, n)[:, :, :N]
    softmax_rows(a, out=a)
    scores[...] = 0.0
    _band(scores, n, stride)[...] = s  # the padded rows' scores are zero
    out = np.matmul(scores, Vw)
    return out.reshape(B, H, nc * c, dh)[:, :, :N], {"a": a}


def _queue_causal_backward(dout, Q, K, V, cache, stride, tau):
    # each array is dropped after its last use; the score-sized product
    # dout V^T becomes the band matrix of the weights, then of ds
    a = cache.pop("a")
    B, H, N, n = a.shape
    dh = Q.shape[-1]
    c, nc = _chunking(N)
    h = stride * (n - 1)
    Qc, dc = (_pad_time(x, nc * c, axis=2).reshape(B, H, nc, c, dh) for x in (Q, dout))
    Kw, Vw = (_windows(x, c, nc, h) for x in (K, V))
    del dout, Q, K, V
    W = np.matmul(dc, _swap(Vw))
    da = _band(W, n, stride).copy().reshape(B, H, nc * c, n)[:, :, :N]
    W[...] = 0.0
    _put_band(W, a, stride)
    dV = _overlap_add(np.matmul(_swap(W), dc), h, N)
    del dc, Vw
    softmax_rows_backward(a, da, out=da)  # da's buffer becomes ds
    del a
    da /= tau
    _put_band(W, da, stride)  # the same band: W now holds ds
    del da
    dQ = np.matmul(W, Kw).reshape(B, H, nc * c, dh)[:, :, :N]
    del Kw
    dK = _overlap_add(np.matmul(_swap(W), Qc), h, N)
    return dQ, dK, dV


def _softmax_forward(Q, K, V, tau, causal):
    # the scores are scaled, masked and normalized in their own buffer, so
    # one score-sized array is live: it becomes the readout weights
    s = np.matmul(Q, K.transpose(0, 1, 3, 2))
    s /= tau
    if causal:
        N = Q.shape[2]
        np.copyto(s, -np.inf, where=np.triu(np.ones((N, N), dtype=bool), 1))
    a = softmax_rows(s, out=s)
    out = np.matmul(a, V)
    return out, {"a": a}


def _softmax_backward(dout, Q, K, V, cache, tau):
    a = cache.pop("a")
    da = np.matmul(dout, V.transpose(0, 1, 3, 2))
    dV = np.matmul(a.transpose(0, 1, 3, 2), dout)
    softmax_rows_backward(a, da, out=da)  # da's buffer becomes ds
    del a
    da /= tau
    dQ = np.matmul(da, K)
    dK = np.matmul(da.transpose(0, 1, 3, 2), Q)
    return dQ, dK, dV


def _slot_memory_backward(phiT, K, V, dkt, dvt, grad_phi):
    """(dK, dV, dphiT) of the slot memory (phi^T K, phi^T V) from its
    gradients.  dphiT, (B, n, Nk) summed over heads, is made only when the
    control has weights (grad_phi); it is None otherwise."""
    dphiT = None
    if grad_phi:
        dphiT = np.matmul(dkt, _swap(K)).sum(axis=1)
        dphiT += np.matmul(dvt, _swap(V)).sum(axis=1)
    phi = _swap(phiT)
    return np.matmul(phi, dkt), np.matmul(phi, dvt), dphiT


def _sequence_phi(config: AttentionConfig, params: LayerParams, Xkv, K):
    """Transposed control phi^T over a whole key/value sequence (the
    encoder_self and cross sites), in the one layout the slot memory is
    built with, ``np.matmul(phiT, K)`` and ``np.matmul(phiT, V)``: (B, 1, n,
    Nk) for the controls shared across heads, (B, H, n, Nk) for cluster
    control.

    The learned control is :func:`strategies.phi_mlp_sequence`: n
    pseudo-query attentions (``memory.pseudo_query_memory``).
    """
    control = config.control
    if isinstance(control, st.MlpControl):
        return st.phi_mlp_sequence(Xkv, params.strategy_weights)[:, None]
    if isinstance(control, st.ClusterControl):
        return _swap(control.phi_from_keys(K))
    B, Nk, _ = Xkv.shape
    phiT = _swap(st.phi_matrix(control, Nk, params.strategy_weights))
    return np.broadcast_to(phiT, (B, 1, config.n, Nk))


# --- public batch forward/backward ----------------------------------------------


def mha_forward(Xq, Xkv, params: LayerParams, config: AttentionConfig):
    """Multihead attention forward over whole sequences; returns (Y, tape).

    ``Xq``/``Xkv`` are (N, d_model) or (B, N, d_model); ``Xkv`` may be None at
    the self sites.  Decode goes through :func:`stream_step`.
    """
    Xq, squeeze = _batched(Xq)
    if config.site == "cross":
        if Xkv is None:
            raise ValueError("cross attention needs the encoder output as Xkv")
        Xkv, _ = _batched(Xkv)
    else:
        if Xkv is not None and Xkv is not Xq:
            raise ValueError("self sites take their keys/values from Xq; pass Xkv=None")
        Xkv = Xq
    H, tau = config.heads, config.tau
    B, N, _ = Xq.shape

    Q = _split_heads(Xq @ params.wq.T, H)
    K = _split_heads(Xkv @ params.wk.T, H)
    V = _split_heads(Xkv @ params.wv.T, H)

    control = config.control
    tape = GradTape(config=config)
    ar = tape.arrays
    ar.update(
        Xq=Xq, Xkv=Xkv,
        wq=params.wq, wk=params.wk, wv=params.wv, wo=params.wo,
        sw=params.strategy_weights,
    )

    if control is None or config.site != "causal":
        # one softmax readout of one memory: the keys and values themselves,
        # or under a bounded control the sequence's slots (phi^T K, phi^T V)
        Km, Vm = K, V
        if control is not None:
            phiT = ar["phiT"] = _sequence_phi(config, params, Xkv, K)
            Km, Vm = np.matmul(phiT, K), np.matmul(phiT, V)
        out, cache = _softmax_forward(Q, Km, Vm, tau, config.site == "causal")
        ar.update(Q=Q, K=K, V=V, Km=Km, Vm=Vm, family="softmax")
    elif control.stride:
        out, cache = _queue_causal_forward(Q, K, V, control.n, control.stride, tau)
        ar.update(Q=Q, K=K, V=V, family="queue")
    else:
        normalize = isinstance(control, st.MlpControl)
        if normalize:
            A = st.activation_forward(Xq @ params.strategy_weights.T)
        else:
            phi = st.phi_matrix(control, N, params.strategy_weights)
            A = np.broadcast_to(phi, (B, N, config.n))
        # the kernel tapes Q, K and V in its chunk layout
        out, cache = _additive_causal_forward(Q, K, V, A, normalize, tau)
        ar["family"] = "additive"
        ar["normalize"] = normalize

    ar["cache"] = cache
    O = _merge_heads(out)
    Y = O @ params.wo.T
    ar["O"] = O
    check_finite(Y, "attention output")
    return (Y[0] if squeeze else Y), tape


def mha_backward(tape: GradTape, d_out):
    """Gradients of one recorded forward.

    Returns (grads, dXq, dXkv): grads has keys wq/wk/wv/wo plus
    strategy_weights for the learned strategies.  dXkv is None at the self
    sites (already folded into dXq).
    """
    config = tape.config
    ar = tape.take()  # popped below, so each array goes after its last use
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.ndim == 2:
        d_out = d_out[None, :, :]
    H, tau = config.heads, config.tau
    cache = ar.pop("cache")

    dwo = fold_outer(d_out, ar.pop("O"))
    dout_h = _split_heads(d_out @ ar["wo"], H)

    dA = None
    family = ar["family"]
    if family == "softmax":
        K, V = ar.pop("K"), ar.pop("V")
        dQ, dK, dV = _softmax_backward(dout_h, ar.pop("Q"), ar.pop("Km"), ar.pop("Vm"), cache, tau)
        if "phiT" in ar:
            dK, dV, dA = _slot_memory_backward(ar["phiT"], K, V, dK, dV, ar["sw"] is not None)
        del K, V
    elif family == "queue":
        dQ, dK, dV = _queue_causal_backward(
            dout_h, ar.pop("Q"), ar.pop("K"), ar.pop("V"), cache, config.control.stride, tau)
    else:
        if ar["normalize"]:  # the scan's A is alpha, padded to whole chunks
            B, N = d_out.shape[:2]
            alpha = cache["A"].reshape(B, -1, config.n)[:, :N]
        dQ, dK, dV, dA = _additive_causal_backward(
            dout_h, cache, ar["normalize"], tau, ar["sw"] is not None)
    del dout_h

    dQf, dKf, dVf = _merge_heads(dQ), _merge_heads(dK), _merge_heads(dV)
    del dQ, dK, dV
    Xq, Xkv = ar.pop("Xq"), ar.pop("Xkv")
    grads = {
        "wq": fold_outer(dQf, Xq),
        "wk": fold_outer(dKf, Xkv),
        "wv": fold_outer(dVf, Xkv),
        "wo": dwo,
    }
    dXq = dQf @ ar["wq"]
    dXkv = dKf @ ar["wk"] + dVf @ ar["wv"]

    if isinstance(config.control, st.MlpControl):
        if config.site == "causal":  # alpha = exp(x W_phi^T)
            dZ = dA * alpha
            grads["strategy_weights"] = fold_outer(dZ, Xq)
            dXq = dXq + dZ @ ar["sw"]
        else:  # phi^T = softmax over positions of W_phi x^T
            dZT = softmax_rows_backward(ar["phiT"][:, 0], dA, out=dA)
            grads["strategy_weights"] = np.matmul(dZT, Xkv).sum(axis=0)
            dXkv = dXkv + np.matmul(_swap(dZT), ar["sw"])
    elif dA is not None:  # linformer: phi^T is the weights' first columns
        dphiT = dA.sum(axis=0)
        if config.site == "causal":  # the scan's dA is (B, N, n)
            dphiT = dphiT.T
        gw = np.zeros_like(ar["sw"])
        gw[:, : dphiT.shape[1]] = dphiT
        grads["strategy_weights"] = gw

    if config.site == "cross":
        return grads, dXq, dXkv
    return grads, dXq + dXkv, None


# --- streaming state -------------------------------------------------------------


@dataclass
class AttnState:
    """Per-layer recurrent state of one attention instance during decode.

    Every state is one memory, ``ktilde``/``vtilde`` of shape (B, H, slots,
    d_head), that a step reads through one softmax readout.  An accumulating
    strategy adds every token into its n slots.  Softmax (the identity
    control, capacity slots) and the queue strategies (stride * n slots) keep
    a ring: token t goes to slot t mod slots.  The softmax ring never wraps,
    and a step reads its filled slots; a queue step reads the n slots of t's
    stride residue, which hold tokens t, t - stride, ..., t - stride (n - 1)
    (zero before their step).  A cross state holds the memory the batch
    forward reads, built once from the encoder output, and never changes.

    ``size_bytes`` counts every ndarray field (the softmax cache up to the
    filled length).  A causal state's arrays each sit in an anonymous
    mapping of their own (:func:`init_attn_state`), so the resident bytes
    are the slots its steps have written, and a dropped state returns them.
    """

    config: AttentionConfig
    ktilde: np.ndarray
    vtilde: np.ndarray
    t: int = 0
    # accumulating causal strategies: running per-slot sum of |phi| (B, H, n);
    # the learned control divides by it, constant controls read only the
    # slots where it is nonzero (the written ones)
    norm: np.ndarray | None = None

    def state_arrays(self) -> list[np.ndarray]:
        out = [a for a in (self.ktilde, self.vtilde, self.norm) if a is not None]
        if self.config.control is None and self.config.site == "causal":
            # the filled region is what a growing cache would occupy
            out = [a[:, :, : self.t] for a in out]
        return out

    def size_bytes(self) -> int:
        """Bytes held for one sequence (batch divided out)."""
        arrays = self.state_arrays()
        return sum(a.nbytes for a in arrays) // arrays[0].shape[0]


def _mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zero float64 array of ``shape`` in an anonymous mapping of its own.

    The kernel backs a page of it only when that page is first written, and
    takes every page back when the array is dropped.
    """
    nbytes = math.prod(shape) * 8
    if nbytes == 0:
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64).reshape(shape)


def init_attn_state(
    config: AttentionConfig,
    params: LayerParams,
    batch: int,
    capacity: int,
    encoder_out: np.ndarray | None = None,
) -> AttnState:
    """Fresh decode state; for cross sites this builds and caches the memory.

    A causal state's arrays are each mapped on their own (``_mapped_zeros``),
    not taken from the heap.  A decode loop builds the next state while the
    last is still referenced; once glibc serves multi-megabyte arrays from
    the heap (its dynamic mmap threshold has risen, or ``adam_init`` set its
    policy), the new rings would fill beside the old ones, whose pages stay
    resident as free heap after they are dropped.  A cross state is
    computed, not zero-filled, so it stays an ordinary array.
    """
    H, dh, n = config.heads, config.d_head, config.n
    control = config.control
    if config.site == "cross":
        if encoder_out is None:
            raise ValueError("cross attention state needs the encoder output")
        enc, _ = _batched(encoder_out)
        K = _split_heads(enc @ params.wk.T, H)
        V = _split_heads(enc @ params.wv.T, H)
        if control is not None:
            phiT = _sequence_phi(config, params, enc, K)
            K, V = np.matmul(phiT, K), np.matmul(phiT, V)
        return AttnState(config=config, ktilde=K, vtilde=V)

    if config.site != "causal":
        raise ValueError("only causal and cross sites have decode state")
    slots = capacity if control is None else max(control.stride, 1) * n
    shape = (batch, H, slots, dh)
    norm = None if control is None or control.stride else _mapped_zeros((batch, H, n))
    return AttnState(config=config, ktilde=_mapped_zeros(shape), vtilde=_mapped_zeros(shape), norm=norm)


def stream_step(x, params: LayerParams, config: AttentionConfig, state: AttnState) -> np.ndarray:
    """Advance one decode step: x is (B, d_model), returns (B, d_model).

    The one decode entry.  A causal step writes the token into the memory,
    into a ring slot or, for every accumulating control, by one add of its
    control row to the slots the row names; every step then reads the
    memory through the one softmax readout.
    Per-step cost depends only on the slot count for the bounded strategies;
    the softmax baseline reads its filled cache.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"stream_step takes (B, d_model), got {x.shape}")
    B = x.shape[0]
    H, dh, n, tau = config.heads, config.d_head, config.n, config.tau
    control = config.control
    t = state.t
    q = (x @ params.wq.T).reshape(B, H, dh)

    # the learned control reads the memory divided by its running normalizer:
    # the scores and the readout weights are divided, not the slot matrices
    norm = None
    learned = isinstance(control, st.MlpControl)
    kt, vt = state.ktilde, state.vtilde
    if config.site == "causal":
        k = (x @ params.wk.T).reshape(B, H, dh)
        v = (x @ params.wv.T).reshape(B, H, dh)
        if control is None or control.stride:
            # the token takes ring slot t mod slots; softmax reads its filled
            # slots, a queue the every-stride-th slots of t's residue
            slots = kt.shape[2]
            if control is None and t >= slots:
                raise ValueError("decode exceeded the preallocated cache capacity")
            kt[:, :, t % slots] = k
            vt[:, :, t % slots] = v
            read = slice(t + 1) if control is None else slice(t % control.stride, None, control.stride)
            kt, vt = kt[:, :, read], vt[:, :, read]
        else:
            # the row is (B, n) for the learned control, (1, n) for a constant
            # one; a one-hot or zero row writes one slot or none, and a dense
            # row takes the whole slot axis as a view.  A slot starts at +0.0
            # and never holds -0.0, so a skipped exact-zero add changes no bit.
            if learned:
                row = st.activation_forward(x @ params.strategy_weights.T)
            else:
                row = st.phi_at(control, t, params.strategy_weights)[None]
            slots = np.flatnonzero(row.any(axis=0))
            if len(slots) == n:
                slots = slice(None)
            w = row[:, slots]
            kt[:, :, slots] += w[:, None, :, None] * k[:, :, None, :]
            vt[:, :, slots] += w[:, None, :, None] * v[:, :, None, :]
            state.norm[:, :, slots] += np.abs(w)[:, None]
        state.t = t + 1
        if learned:
            if np.any(state.norm <= 0.0):
                raise NumericError(
                    f"prefix normalizer hit zero at the {config.site} site "
                    f"({config.strategy.kind} control) at decode step {t}")
            norm = state.norm
    s = np.matmul(kt, q[..., None])[..., 0]
    s /= tau if norm is None else norm * tau
    if state.norm is not None and not learned:
        _mask_unwritten(s, state.norm > 0.0)
    a = softmax_rows(s)
    if norm is not None:
        a /= norm
    out = np.matmul(a[:, :, None, :], vt)[:, :, 0, :]
    return check_finite(out.reshape(B, H * dh) @ params.wo.T, "attention output")
