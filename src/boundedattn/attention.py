"""Multihead bounded-memory attention with hand-written backward passes.

Drop-in replacement for softmax multihead attention at three sites:

* ``encoder_self`` -- queries and keys/values from the same full sequence;
  the slot memory is built once from all tokens and every query reads it.
* ``causal``       -- self-attention over the prefix; the memory is the
  recurrent state ktilde_t = transition . ktilde_{t-1} + phi_t (x) k_t, with
  an exactly equivalent parallel formulation used for training.
* ``cross``        -- decoder queries over a memory built once from the
  encoder output and cached in the decoder state for all decode steps.

The control vector phi is computed from the pre-projection token
representation (the same x that feeds the q/k/v projections) and is shared
across heads; each head keeps its own (n x d_head) slot matrices.

Backward passes are a manual per-operation chain (projections, control
weights, memory build, readout softmax), not a graph engine; every gradient
is checked against central finite differences in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import strategies as st
from .memory import full_attention
from .numerics import (
    NumericError,
    as_matrix,
    check_finite,
    make_rng,
    softmax_rows,
    softmax_rows_backward,
)

SITES = ("encoder_self", "causal", "cross")
STRATEGY_KINDS = (
    "softmax",  # exact baseline with a growing key/value cache
    "mlp",
    "linformer",
    "local_to_global",
    "random",
    "compressive",
    "cluster",
    "window",
    "dilated",
)


@dataclass(frozen=True)
class StrategySpec:
    """Configuration-level strategy descriptor; learned weights live in params."""

    kind: str
    activation: str = "exp"  # mlp
    normalization: str = "auto"  # mlp: sequence | prefix | auto (per site)
    seed: int = 0  # random slots
    ratio: int = 4  # compressive chunk size
    global_positions: tuple[int, ...] = ()  # local_to_global; default first n
    cluster_iters: int = 10
    max_len: int = 512  # linformer fixed input length; random-slot draw count

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")

    def needs_weights(self) -> bool:
        return self.kind in ("mlp", "linformer")


@dataclass(frozen=True)
class AttentionConfig:
    heads: int
    d_model: int
    d_head: int
    site: str
    strategy: StrategySpec
    n: int
    temperature: float | None = None  # None -> sqrt(d_head)
    tie_phi_across_layers: bool = True

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown site {self.site!r}")
        if self.heads * self.d_head != self.d_model:
            raise ValueError("heads * d_head must equal d_model")
        if self.n < 1:
            raise ValueError("memory needs at least one slot")
        k = self.strategy.kind
        if self.site == "causal":
            if k == "cluster":
                raise ValueError(
                    "cluster control needs the full sequence; illegal for causal attention"
                )
            if k == "mlp" and self.strategy.normalization == "sequence":
                raise ValueError(
                    "sequence normalization reads future tokens; use prefix for causal attention"
                )
        else:
            if k in ("window", "dilated"):
                raise ValueError(f"{k} control is a per-step queue; causal attention only")
            if k == "mlp" and self.strategy.normalization == "prefix":
                raise ValueError("prefix normalization is the causal mode; use sequence here")

    @property
    def tau(self) -> float:
        return math.sqrt(self.d_head) if self.temperature is None else self.temperature


@dataclass
class LayerParams:
    """Projections plus (optionally shared) strategy weights."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    strategy_weights: np.ndarray | None = None  # mlp: (n, d_model); linformer: (n, max_len)


@dataclass
class GradTape:
    """Primal intermediates recorded by one forward; consumed by one backward."""

    config: AttentionConfig
    arrays: dict = field(default_factory=dict)
    consumed: bool = False

    def take(self) -> dict:
        if self.consumed:
            raise RuntimeError("gradient tape already consumed by a backward pass")
        self.consumed = True
        return self.arrays


def init_layer_params(config: AttentionConfig, rng: np.random.Generator) -> LayerParams:
    d = config.d_model
    scale = 1.0 / math.sqrt(d)
    return LayerParams(
        wq=rng.normal(0.0, scale, (d, d)),
        wk=rng.normal(0.0, scale, (d, d)),
        wv=rng.normal(0.0, scale, (d, d)),
        wo=rng.normal(0.0, scale, (d, d)),
        strategy_weights=init_strategy_weights(config, rng),
    )


def init_strategy_weights(
    config: AttentionConfig, rng: np.random.Generator
) -> np.ndarray | None:
    spec = config.strategy
    if spec.kind == "mlp":
        return rng.normal(0.0, 1.0 / math.sqrt(config.d_model), (config.n, config.d_model))
    if spec.kind == "linformer":
        return rng.normal(0.0, 1.0 / math.sqrt(spec.max_len), (config.n, spec.max_len))
    return None


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


def fold_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of a[..., i] b[..., j]: one flat GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


# --- control weights ----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _constant_strategy(n: int, spec: StrategySpec):
    """Strategy object behind a constant control, built once per (n, spec).

    Building a random-slot strategy draws its ``max_len`` slots, which a
    decode step must not repeat for every token.
    """
    if spec.kind == "local_to_global":
        pos = spec.global_positions or tuple(range(n))
        return st.LocalToGlobalControl(n=n, global_positions=pos)
    if spec.kind == "random":
        return st.RandomSlotControl(n=n, seed=spec.seed, max_len=spec.max_len)
    if spec.kind == "compressive":
        return st.CompressiveControl(n=n, ratio=spec.ratio)
    raise ValueError(f"{spec.kind} has no input-independent control")


def _constant_phi(config: AttentionConfig, params: LayerParams, length: int) -> np.ndarray:
    """(N, n) control matrix for the strategies that never look at x."""
    spec = config.strategy
    if spec.kind == "linformer":
        if length > spec.max_len:
            raise ValueError(f"sequence length {length} exceeds the fixed {spec.max_len}")
        return params.strategy_weights[:, :length].T.copy()
    return st.phi_matrix(_constant_strategy(config.n, spec), length)


def _constant_phi_row(config: AttentionConfig, params: LayerParams, t: int) -> np.ndarray:
    spec = config.strategy
    if spec.kind == "linformer":
        if t >= spec.max_len:
            raise ValueError(f"position {t} exceeds the fixed input length {spec.max_len}")
        return params.strategy_weights[:, t].copy()
    return st.phi_at(_constant_strategy(config.n, spec), t, t + 1)


def _queue_gather_indices(config: AttentionConfig, length: int):
    """Per-step slot -> source position map for the queue strategies.

    After the step-t write, queue slot l holds the key written at position
    t - stride*(n-1-l); slots whose source would be negative still hold the
    zero pair the queue started with.
    """
    n = config.n
    stride = 1 if config.strategy.kind == "window" else 2
    t = np.arange(length)[:, None]
    sl = np.arange(n)[None, :]
    idx = t - stride * (n - 1 - sl)
    valid = idx >= 0
    return np.clip(idx, 0, None), valid


# --- per-family forward/backward kernels ---------------------------------------
# Q, K, V are per-head tensors (B, H, N, d_head); A is the shared control
# stack (B, N, n).  Each forward returns (out, cache) for its backward.


def _oneshot_forward(Q, K, V, phi, tau):
    # phi: (B, N, n) shared across heads, or (B, H, N, n) for cluster control.
    # All contractions are broadcasted batched matmuls (BLAS), not einsum.
    if phi.ndim == 4:
        phiT = phi.transpose(0, 1, 3, 2)  # (B, H, n, N)
    else:
        phiT = phi.transpose(0, 2, 1)[:, None]  # (B, 1, n, N)
    ktilde = np.matmul(phiT, K)
    vtilde = np.matmul(phiT, V)
    s = np.matmul(Q, ktilde.transpose(0, 1, 3, 2)) / tau
    a = softmax_rows(s)
    out = np.matmul(a, vtilde)
    return out, {"a": a, "ktilde": ktilde, "vtilde": vtilde, "phi": phi}


def _oneshot_backward(dout, Q, K, V, cache, tau):
    a, ktilde, vtilde, phi = cache["a"], cache["ktilde"], cache["vtilde"], cache["phi"]
    da = np.matmul(dout, vtilde.transpose(0, 1, 3, 2))
    dvtilde = np.matmul(a.transpose(0, 1, 3, 2), dout)
    ds = softmax_rows_backward(a, da)
    dQ = np.matmul(ds, ktilde) / tau
    dktilde = np.matmul(ds.transpose(0, 1, 3, 2), Q) / tau
    if phi.ndim == 4:
        dK = np.matmul(phi, dktilde)
        dV = np.matmul(phi, dvtilde)
        dphi = None  # cluster membership is held fixed during backward
    else:
        dK = np.matmul(phi[:, None], dktilde)
        dV = np.matmul(phi[:, None], dvtilde)
        dphi = np.matmul(K, dktilde.transpose(0, 1, 3, 2)).sum(axis=1)
        dphi += np.matmul(V, dvtilde.transpose(0, 1, 3, 2)).sum(axis=1)
    return dQ, dK, dV, dphi


def written_slot_mask(phi: np.ndarray) -> np.ndarray:
    """(N, n) bools: has slot l received any nonzero weight by step t?

    Readout at step t excludes slots that are still all-zero rows (they would
    otherwise score q . 0 = 0 and soak up weight); this is what makes the
    identity control with n = N reproduce causal softmax attention exactly.
    Steps where *no* slot has been written yet are left unmasked and read the
    all-zero memory as-is (uniform weights over zero values: a zero output).
    """
    return np.cumsum(np.abs(phi), axis=0) > 0.0


def _unwritten_bias(slot_mask: np.ndarray) -> np.ndarray:
    bias = np.zeros(slot_mask.shape)
    rows = slot_mask.any(axis=1)
    bias[rows[:, None] & ~slot_mask] = -np.inf
    return bias


def _additive_causal_forward(Q, K, V, A, normalize, tau, slot_mask=None):
    # Parallel form of the recurrence ktilde_t = ktilde_{t-1} + alpha_t (x) k_t:
    # the raw slot score of step t is sum_{i<=t} (q_t . k_i) A[i], divided by
    # the running per-slot weight S_t when the strategy normalizes.
    B, H, N, _ = Q.shape
    n = A.shape[2]
    mask = np.tril(np.ones((N, N)))
    P = np.matmul(Q, K.transpose(0, 1, 3, 2)) * mask
    C = np.matmul(P.reshape(B, H * N, N), A).reshape(B, H, N, n)
    if normalize:
        S = np.cumsum(A, axis=1)
        if np.any(S <= 0.0):
            raise NumericError("prefix normalizer hit zero (no weight written yet)")
        s = C / (S[:, None, :, :] * tau)
    else:
        S = None
        s = C / tau
    if slot_mask is not None:
        s = s + _unwritten_bias(slot_mask)
    a = softmax_rows(s)
    g = a / S[:, None, :, :] if normalize else a
    W2 = np.matmul(g.reshape(B, H * N, n), A.transpose(0, 2, 1)).reshape(B, H, N, N) * mask
    out = np.matmul(W2, V)
    return out, {"P": P, "a": a, "s": s, "g": g, "W2": W2, "S": S, "A": A, "mask": mask}


def _additive_causal_backward(dout, Q, K, V, cache, normalize, tau):
    P, a, s, g, W2 = cache["P"], cache["a"], cache["s"], cache["g"], cache["W2"]
    S, A, mask = cache["S"], cache["A"], cache["mask"]
    B, H, N, _ = dout.shape
    n = A.shape[2]
    dW2 = np.matmul(dout, V.transpose(0, 1, 3, 2)) * mask
    dV = np.matmul(W2.transpose(0, 1, 3, 2), dout)
    dg = np.matmul(dW2.reshape(B, H * N, N), A).reshape(B, H, N, n)
    # dA[b, i, l] = sum_{h,t} dW2[b,h,t,i] g[b,h,t,l]
    dA = np.matmul(dW2.transpose(0, 3, 1, 2).reshape(B, N, H * N), g.reshape(B, H * N, n))
    if normalize:
        da = dg / S[:, None, :, :]
        dS = -np.sum(dg * g, axis=1) / S  # g = a / S
    else:
        da = dg
    ds = softmax_rows_backward(a, da)
    if normalize:
        dC = ds / (S[:, None, :, :] * tau)
        dS -= np.sum(ds * s, axis=1) / S  # s = C / (S tau)
    else:
        dC = ds / tau
    dP = np.matmul(dC.reshape(B, H * N, n), A.transpose(0, 2, 1)).reshape(B, H, N, N) * mask
    dA += np.matmul(P.transpose(0, 3, 1, 2).reshape(B, N, H * N), dC.reshape(B, H * N, n))
    dQ = np.matmul(dP, K)
    dK = np.matmul(dP.transpose(0, 1, 3, 2), Q)
    if normalize:
        dA += _reverse_cumsum(dS, axis=1)  # S = cumsum(A)
    return dQ, dK, dV, dA


def _queue_causal_forward(Q, K, V, idx, valid, tau):
    # Gathered view of the FIFO queue: at step t slot l holds position
    # idx[t, l], or the zero pair the queue started with (which scores
    # q . 0 = 0, exactly like the materialized queue rows).
    v4 = valid[None, None, :, :, None]
    Kg = K[:, :, idx, :] * v4
    Vg = V[:, :, idx, :] * v4
    s = np.matmul(Kg, Q[..., None])[..., 0] / tau
    a = softmax_rows(s)
    out = np.matmul(a[:, :, :, None, :], Vg)[:, :, :, 0, :]
    return out, {"a": a, "Kg": Kg, "Vg": Vg, "idx": idx, "valid": valid}


def _queue_causal_backward(dout, Q, K, V, cache, tau):
    a, Kg, Vg = cache["a"], cache["Kg"], cache["Vg"]
    idx, valid = cache["idx"], cache["valid"]
    da = np.matmul(Vg, dout[..., None])[..., 0]
    dVg = a[..., None] * dout[:, :, :, None, :]
    ds = softmax_rows_backward(a, da) / tau
    dQ = np.matmul(ds[:, :, :, None, :], Kg)[:, :, :, 0, :]
    dKg = ds[..., None] * Q[:, :, :, None, :]
    # scatter the gathered gradients back to their source positions
    dKt = np.zeros_like(K).transpose(2, 0, 1, 3)
    dVt = np.zeros_like(V).transpose(2, 0, 1, 3)
    for sl in range(idx.shape[1]):
        steps = np.flatnonzero(valid[:, sl])
        if steps.size == 0:
            continue
        rows = idx[steps, sl]
        np.add.at(dKt, rows, dKg[:, :, steps, sl, :].transpose(2, 0, 1, 3))
        np.add.at(dVt, rows, dVg[:, :, steps, sl, :].transpose(2, 0, 1, 3))
    return dQ, dKt.transpose(1, 2, 0, 3), dVt.transpose(1, 2, 0, 3)


def _softmax_forward(Q, K, V, tau, causal):
    s = np.matmul(Q, K.transpose(0, 1, 3, 2)) / tau
    if causal:
        N = Q.shape[2]
        s = np.where(np.tril(np.ones((N, N), dtype=bool)), s, -np.inf)
    a = softmax_rows(s)
    out = np.matmul(a, V)
    return out, {"a": a}


def _softmax_backward(dout, Q, K, V, cache, tau):
    a = cache["a"]
    da = np.matmul(dout, V.transpose(0, 1, 3, 2))
    dV = np.matmul(a.transpose(0, 1, 3, 2), dout)
    ds = softmax_rows_backward(a, da) / tau
    dQ = np.matmul(ds, K)
    dK = np.matmul(ds.transpose(0, 1, 3, 2), Q)
    return dQ, dK, dV


def _cluster_phi(config: AttentionConfig, K: np.ndarray) -> np.ndarray:
    # per-head hard k-means over this forward's keys; membership is treated
    # as a constant of the pass (re-assigned on the next forward)
    B, H, N, _ = K.shape
    spec = config.strategy
    phi = np.zeros((B, H, N, config.n))
    for b in range(B):
        for h in range(H):
            m = st.cluster_assign(K[b, h], config.n, spec.cluster_iters, make_rng(spec.seed))
            phi[b, h] = m / m.sum(axis=0)
    return phi


def _sequence_phi(config: AttentionConfig, params: LayerParams, Xkv, K, tape: dict):
    """Control over a whole key/value sequence (the encoder_self and cross sites).

    (B, Nk, n), or (B, H, Nk, n) for cluster control; the mlp strategy's
    pre-activations and normalizer go into ``tape`` for its backward.
    """
    spec = config.strategy
    B, Nk, _ = Xkv.shape
    if spec.kind == "mlp":
        Z = Xkv @ params.strategy_weights.T
        alpha = st.activation_forward(spec.activation, Z, clamp=st.EXP_CLAMP)
        total = alpha.sum(axis=1)  # (B, n)
        if np.any(total <= 0.0):
            raise NumericError("sequence normalizer has a zero entry")
        tape.update(Z=Z, alpha=alpha, total=total)
        return alpha / total[:, None, :]
    if spec.kind == "cluster":
        return _cluster_phi(config, K)
    return np.broadcast_to(_constant_phi(config, params, Nk), (B, Nk, config.n))


# --- public batch forward/backward ----------------------------------------------


def mha_forward(
    Xq,
    Xkv,
    params: LayerParams,
    config: AttentionConfig,
    state: "AttnState | None" = None,
):
    """Multihead attention forward.

    ``Xq``/``Xkv`` are (N, d_model) or (B, N, d_model); ``Xkv`` may be None at
    the self sites.  When ``state`` is given (streaming decode), Xq is one
    step of shape (B, d_model) and no tape is recorded.  Returns
    (Y, tape, state).
    """
    if state is not None:
        y = stream_step(Xq, params, config, state)
        return y, None, state

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

    Q = _split_heads(Xq @ params.wq, H)
    K = _split_heads(Xkv @ params.wk, H)
    V = _split_heads(Xkv @ params.wv, H)

    spec = config.strategy
    tape = GradTape(config=config)
    ar = tape.arrays
    ar.update(
        Xq=Xq, Xkv=Xkv, Q=Q, K=K, V=V,
        wq=params.wq, wk=params.wk, wv=params.wv, wo=params.wo,
        sw=params.strategy_weights,
    )

    if spec.kind == "softmax":
        out, cache = _softmax_forward(Q, K, V, tau, config.site == "causal")
        ar["family"] = "softmax"
    elif config.site == "causal":
        if spec.kind in ("window", "dilated"):
            idx, valid = _queue_gather_indices(config, N)
            out, cache = _queue_causal_forward(Q, K, V, idx, valid, tau)
            ar["family"] = "queue"
        else:
            if spec.kind == "mlp":
                Z = Xq @ params.strategy_weights.T
                A = st.activation_forward(spec.activation, Z, clamp=st.EXP_CLAMP)
                ar.update(Z=Z, alpha=A)
                normalize = True
                slot_mask = None
            else:
                phi = _constant_phi(config, params, N)
                A = np.broadcast_to(phi, (B, N, config.n))
                normalize = False
                slot_mask = written_slot_mask(phi)
            out, cache = _additive_causal_forward(Q, K, V, A, normalize, tau, slot_mask)
            ar["family"] = "additive"
            ar["normalize"] = normalize
    else:
        phi = _sequence_phi(config, params, Xkv, K, ar)
        out, cache = _oneshot_forward(Q, K, V, phi, tau)
        ar["family"] = "oneshot"

    ar["cache"] = cache
    O = _merge_heads(out)
    Y = O @ params.wo
    ar["O"] = O
    check_finite(Y, "attention output")
    return (Y[0] if squeeze else Y), tape, None


def mha_backward(tape: GradTape, d_out):
    """Gradients of one recorded forward.

    Returns (grads, dXq, dXkv): grads has keys wq/wk/wv/wo plus
    strategy_weights for the learned strategies (zeros when the strategy has
    weights the output provably does not depend on).  dXkv is None at the
    self sites (already folded into dXq).
    """
    config = tape.config
    ar = tape.take()
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.ndim == 2:
        d_out = d_out[None, :, :]
    Xq, Xkv, Q, K, V, O = ar["Xq"], ar["Xkv"], ar["Q"], ar["K"], ar["V"], ar["O"]
    H, tau = config.heads, config.tau
    spec = config.strategy
    cache = ar["cache"]

    dwo = fold_outer(O, d_out)
    dO = d_out @ ar["wo"].T
    dout_h = _split_heads(dO, H)

    dA = None
    family = ar["family"]
    if family == "softmax":
        dQ, dK, dV = _softmax_backward(dout_h, Q, K, V, cache, tau)
    elif family == "queue":
        dQ, dK, dV = _queue_causal_backward(dout_h, Q, K, V, cache, tau)
    elif family == "additive":
        dQ, dK, dV, dA = _additive_causal_backward(dout_h, Q, K, V, cache, ar["normalize"], tau)
    else:
        dQ, dK, dV, dphi = _oneshot_backward(dout_h, Q, K, V, cache, tau)
        if spec.kind == "mlp":
            total = ar["total"]
            dA = dphi / total[:, None, :]
            dtotal = -np.sum(dphi * cache["phi"], axis=1) / total
            dA += dtotal[:, None, :]
        elif spec.kind == "linformer":
            dA = dphi

    dQf = _merge_heads(dQ)
    dKf = _merge_heads(dK)
    dVf = _merge_heads(dV)
    grads = {
        "wq": fold_outer(Xq, dQf),
        "wk": fold_outer(Xkv, dKf),
        "wv": fold_outer(Xkv, dVf),
        "wo": dwo,
    }
    dXq = dQf @ ar["wq"].T
    dXkv = dKf @ ar["wk"].T + dVf @ ar["wv"].T

    if spec.kind == "mlp" and dA is not None:
        Z, alpha = ar["Z"], ar["alpha"]
        dZ = dA * st.activation_grad(spec.activation, Z, alpha, clamp=st.EXP_CLAMP)
        x_phi = Xq if config.site == "causal" else Xkv
        grads["strategy_weights"] = fold_outer(dZ, x_phi)
        dx_phi = dZ @ ar["sw"]
        if config.site == "causal":
            dXq = dXq + dx_phi
        else:
            dXkv = dXkv + dx_phi
    elif spec.kind == "linformer" and dA is not None:
        gw = np.zeros_like(ar["sw"])
        gw[:, : dA.shape[1]] = dA.sum(axis=0).T
        grads["strategy_weights"] = gw
    elif spec.needs_weights():
        grads["strategy_weights"] = np.zeros_like(ar["sw"])

    if config.site == "cross":
        return grads, dXq, dXkv
    return grads, dXq + dXkv, None


# --- pseudo-query view of the learned memory ------------------------------------


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


# --- streaming state -------------------------------------------------------------


@dataclass
class AttnState:
    """Per-layer recurrent state of one attention instance during decode."""

    config: AttentionConfig
    t: int = 0
    # bounded-memory strategies: slot matrices (B, H, n, d_head) + normalizer
    ktilde: np.ndarray | None = None
    vtilde: np.ndarray | None = None
    norm: np.ndarray | None = None  # (B, H, n)
    # dilated second queue
    ktilde2: np.ndarray | None = None
    vtilde2: np.ndarray | None = None
    # softmax baseline: growing key/value cache, preallocated to capacity
    kcache: np.ndarray | None = None
    vcache: np.ndarray | None = None
    # cross attention: memory is static after init
    static: bool = False
    # causal constant-control strategies: per-step written-slot masks
    slot_mask: np.ndarray | None = None

    def state_arrays(self) -> list[np.ndarray]:
        out = []
        for a in (self.ktilde, self.vtilde, self.norm, self.ktilde2, self.vtilde2):
            if a is not None:
                out.append(a)
        if self.kcache is not None:
            # the filled region is what a growing cache would occupy
            out.append(self.kcache[:, :, : self.t])
            out.append(self.vcache[:, :, : self.t])
        return out

    def size_bytes(self) -> int:
        """Bytes held for one sequence (batch divided out)."""
        arrays = self.state_arrays()
        if not arrays:
            return 0
        batch = arrays[0].shape[0]
        return sum(a.nbytes for a in arrays) // batch


def init_attn_state(
    config: AttentionConfig,
    params: LayerParams,
    batch: int,
    capacity: int,
    encoder_out: np.ndarray | None = None,
) -> AttnState:
    """Fresh decode state; for cross sites this builds and caches the memory."""
    H, dh, n = config.heads, config.d_head, config.n
    spec = config.strategy
    if config.site == "cross":
        if encoder_out is None:
            raise ValueError("cross attention state needs the encoder output")
        enc, _ = _batched(encoder_out)
        K = _split_heads(enc @ params.wk, H)
        V = _split_heads(enc @ params.wv, H)
        if spec.kind == "softmax":
            return AttnState(config=config, kcache=K, vcache=V, t=K.shape[2], static=True)
        phi = _sequence_phi(config, params, enc, K, {})
        eq = "bhtn,bhtd->bhnd" if phi.ndim == 4 else "btn,bhtd->bhnd"
        return AttnState(
            config=config,
            ktilde=np.einsum(eq, phi, K, optimize=True),
            vtilde=np.einsum(eq, phi, V, optimize=True),
            static=True,
        )

    if config.site != "causal":
        raise ValueError("only causal and cross sites have decode state")
    if spec.kind == "softmax":
        return AttnState(
            config=config,
            kcache=np.zeros((batch, H, capacity, dh)),
            vcache=np.zeros((batch, H, capacity, dh)),
        )
    state = AttnState(
        config=config,
        ktilde=np.zeros((batch, H, n, dh)),
        vtilde=np.zeros((batch, H, n, dh)),
        norm=np.zeros((batch, H, n)),
    )
    if spec.kind == "dilated":
        state.ktilde2 = np.zeros((batch, H, n, dh))
        state.vtilde2 = np.zeros((batch, H, n, dh))
    elif spec.kind not in ("mlp", "window"):
        state.slot_mask = written_slot_mask(_constant_phi(config, params, capacity))
    return state


def stream_step(x, params: LayerParams, config: AttentionConfig, state: AttnState) -> np.ndarray:
    """Advance one decode step: x is (B, d_model), returns (B, d_model).

    Per-step cost depends only on the slot count for the bounded strategies;
    the softmax baseline reads its whole cache.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"stream_step takes (B, d_model), got {x.shape}")
    B = x.shape[0]
    H, dh, n, tau = config.heads, config.d_head, config.n, config.tau
    spec = config.strategy
    t = state.t

    q = (x @ params.wq).reshape(B, H, dh)
    if not state.static:
        k = (x @ params.wk).reshape(B, H, dh)
        v = (x @ params.wv).reshape(B, H, dh)

    if spec.kind == "softmax":
        if state.static:
            kc, vc = state.kcache, state.vcache
        else:
            if t >= state.kcache.shape[2]:
                raise ValueError("decode exceeded the preallocated cache capacity")
            state.kcache[:, :, t] = k
            state.vcache[:, :, t] = v
            state.t = t + 1
            kc = state.kcache[:, :, : t + 1]
            vc = state.vcache[:, :, : t + 1]
        # batched BLAS matmuls: this cache read is the O(t) per-token cost
        s = np.matmul(kc, q[..., None])[..., 0] / tau
        a = softmax_rows(s)
        out = np.matmul(a[:, :, None, :], vc)[:, :, 0, :]
        return out.reshape(B, H * dh) @ params.wo

    if not state.static:
        if spec.kind in ("window", "dilated"):
            if spec.kind == "dilated" and t % 2 == 1:
                kt, vt = state.ktilde2, state.vtilde2
            else:
                kt, vt = state.ktilde, state.vtilde
            kt[:, :, :-1] = kt[:, :, 1:]
            vt[:, :, :-1] = vt[:, :, 1:]
            kt[:, :, -1] = k
            vt[:, :, -1] = v
        else:
            if spec.kind == "mlp":
                alpha = st.activation_forward(
                    spec.activation, x @ params.strategy_weights.T, clamp=st.EXP_CLAMP
                )
            else:
                alpha = np.broadcast_to(_constant_phi_row(config, params, t), (B, n))
            state.ktilde += np.einsum("bn,bhd->bhnd", alpha, k, optimize=True)
            state.vtilde += np.einsum("bn,bhd->bhnd", alpha, v, optimize=True)
            state.norm += alpha[:, None, :]
        state.t = t + 1

    if spec.kind == "dilated" and not state.static:
        kt = state.ktilde2 if t % 2 == 1 else state.ktilde
        vt = state.vtilde2 if t % 2 == 1 else state.vtilde
    else:
        kt, vt = state.ktilde, state.vtilde
    if spec.kind == "mlp" and not state.static:
        if np.any(state.norm <= 0.0):
            raise NumericError("prefix normalizer hit zero")
        kt = kt / state.norm[..., None]
        vt = vt / state.norm[..., None]
    s = np.einsum("bhnd,bhd->bhn", kt, q, optimize=True) / tau
    if state.slot_mask is not None:
        m = state.slot_mask[t]
        if m.any():
            s = np.where(m[None, None, :], s, -np.inf)
    a = softmax_rows(s)
    out = np.einsum("bhn,bhnd->bhd", a, vt, optimize=True)
    return out.reshape(B, H * dh) @ params.wo
