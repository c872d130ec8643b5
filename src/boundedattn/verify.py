"""Verification suites: equivalence, causality, gradient and invariant checks.

Each suite returns a :class:`SuiteResult` with the worst observed error, so
the command-line runner can print one line per suite and exit nonzero if any
tolerance is violated.  The acceptance tests call the same functions.
"""

from __future__ import annotations


import time
from dataclasses import dataclass

import numpy as np

from . import strategies as st
from .attention import AttentionConfig, StrategySpec, init_layer_params, mha_forward
from .memory import TransitionOp, dilated_step, pseudo_query_memory
from .memory import build_memory, full_attention, readout, readout_normalized, step, zero_memory
from .numerics import finite_diff_grad, make_rng
from .toymodel import SiteSpec, ToyLM, ToyModelConfig, ToySeq2Seq, masked_cross_entropy, next_token_loss


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max err {self.max_err:.3e}"
            f" (tol {self.tolerance:.1e}, {self.seconds:.2f}s)"
            + (f" -- {self.detail}" if self.detail else "")
        )


def _result(name, max_err, tol, detail="", t0=None):
    return SuiteResult(
        name=name,
        passed=bool(max_err <= tol),
        max_err=float(max_err),
        tolerance=tol,
        detail=detail,
        seconds=0.0 if t0 is None else time.perf_counter() - t0,
    )


# --- 1. softmax recovery -------------------------------------------------------


def suite_softmax_recovery(instances: int = 50) -> SuiteResult:
    """Identity control with n = N reads back exact softmax attention."""
    t0 = time.perf_counter()
    rng = make_rng(101)
    worst = 0.0
    for _ in range(instances):
        N = int(rng.integers(2, 65))
        d = int(rng.integers(2, 33))
        K = rng.normal(size=(N, d))
        V = rng.normal(size=(N, d))
        q = rng.normal(size=d)
        mem = build_memory(np.eye(N), K, V)
        worst = max(worst, float(np.abs(readout(q, mem) - full_attention(q, K, V)).max()))
    return _result("softmax-recovery", worst, 1e-10, f"{instances} instances", t0)


# --- 2. batch/recurrent equivalence ----------------------------------------------


def _fold(phis, K, V, with_norm=False):
    state = zero_memory(phis.shape[1], K.shape[1], with_norm=with_norm)
    for t in range(K.shape[0]):
        state = step(state, phis[t], K[t], V[t], alpha=phis[t] if with_norm else None)
    return state


def suite_batch_recurrent() -> SuiteResult:
    t0 = time.perf_counter()
    rng = make_rng(202)
    N, n, d = 24, 4, 6
    K = rng.normal(size=(N, d))
    V = rng.normal(size=(N, d))
    X = rng.normal(size=(N, d))
    worst = 0.0
    details = []

    controls = {
        "linformer": st.phi_matrix(st.LinformerControl(n, N), N, rng.normal(size=(n, N))),
        "local_to_global": st.phi_matrix(st.LocalToGlobalControl(n, (1, 5, 9, 20)), N),
        "random": st.phi_matrix(st.RandomSlotControl(n, seed=7, max_len=N), N),
        "compressive": st.phi_matrix(st.CompressiveControl(n, ratio=(N + n - 1) // n), N),
        "cluster": st.cluster_phi(st.cluster_assign(K, n, 6, make_rng(3))),
        "mlp-sequence": st.phi_mlp_sequence(X, rng.normal(size=(n, d))).T,
        # the causal learned control writes its raw alphas into the memory
        "mlp-prefix": st.activation_forward(X @ rng.normal(size=(n, d)).T),
    }
    for name, phis in controls.items():
        batch = build_memory(phis, K, V)
        folded = _fold(phis, K, V)
        err = max(
            float(np.abs(batch.ktilde - folded.ktilde).max()),
            float(np.abs(batch.vtilde - folded.vtilde).max()),
        )
        worst = max(worst, err)
        details.append(name)

    # queue strategies: fold with the shift transition, compare the readout
    # against direct attention over the window / parity set (full queues only)
    shift = TransitionOp.upper_shift(n)
    phi_last = st.phi_at(st.WindowControl(n), 0)
    state = zero_memory(n, d)
    q = rng.normal(size=d)
    win_err = 0.0
    for t in range(N):
        state = step(state, phi_last, K[t], V[t], shift)
        if t >= n - 1:
            window = list(range(t - n + 1, t + 1))
            got = readout(q, state)
            want = full_attention(q, K[window], V[window])
            win_err = max(win_err, float(np.abs(got - want).max()))
    even = zero_memory(n, d)
    odd = zero_memory(n, d)
    dil_err = 0.0
    for t in range(N):
        even, odd, active = dilated_step(t, K[t], V[t], even, odd)
        parity = [p for p in range(t % 2, t + 1, 2) if p > t - 2 * n]
        if len(parity) == n:
            got = readout(q, active)
            want = full_attention(q, K[parity], V[parity])
            dil_err = max(dil_err, float(np.abs(got - want).max()))

    queue_worst = max(win_err, dil_err)
    passed = worst <= 1e-12 and queue_worst <= 1e-10
    res = SuiteResult(
        name="batch-recurrent",
        passed=passed,
        max_err=max(worst, queue_worst),
        tolerance=1e-12,
        detail=f"additive {worst:.2e} (tol 1e-12); window/dilated vs direct {queue_worst:.2e} (tol 1e-10)",
        seconds=time.perf_counter() - t0,
    )
    return res


# --- 3. prefix-normalized equivalence ----------------------------------------------


def suite_prefix_normalization(seeds: int = 20) -> SuiteResult:
    """Normalized-memory path == per-step renormalized control path."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(seeds):
        rng = make_rng(300 + seed)
        N, n, d = 12, 3, 5
        X = rng.normal(size=(N, d))
        W = rng.normal(size=(n, d))
        K = rng.normal(size=(N, d))
        V = rng.normal(size=(N, d))
        q = rng.normal(size=d)
        state = zero_memory(n, d, with_norm=True)
        for t in range(N):
            alpha = st.activation_forward(X[t] @ W.T)
            state = step(state, alpha, K[t], V[t], alpha=alpha)
            got = readout_normalized(q, state)
            # oracle: renormalize every control vector over the prefix sum
            alphas = np.exp(X[: t + 1] @ W.T)
            phis = alphas / alphas.sum(axis=0)
            mem = build_memory(phis, K[: t + 1], V[: t + 1])
            want = readout(q, mem)
            worst = max(worst, float(np.abs(got - want).max()))
    return _result("prefix-normalization", worst, 1e-10, f"{seeds} seeds, every prefix", t0)


# --- 4. pseudo-query decomposition ---------------------------------------------------


def suite_pseudo_query() -> SuiteResult:
    t0 = time.perf_counter()
    rng = make_rng(404)
    worst = 0.0
    for n in (1, 3, 5):
        N, d, dm = 7, 4, 6
        X = rng.normal(size=(N, dm))
        K = rng.normal(size=(N, d))
        W = rng.normal(size=(n, dm))
        got = pseudo_query_memory(W, X, K)
        want = build_memory(st.phi_mlp_sequence(X, W).T, K, K).ktilde
        worst = max(worst, float(np.abs(got - want).max()))
    return _result("pseudo-query", worst, 1e-12, "n in {1, 3, 5}", t0)


# --- 5. causality ----------------------------------------------------------------------


CAUSAL_STRATEGIES = (
    ("window", {}),
    ("dilated", {}),
    ("random", {"seed": 5, "max_len": 64}),
    ("compressive", {"ratio": 4}),
    ("linformer", {"max_len": 64}),
    ("mlp", {}),
)


def suite_causality() -> SuiteResult:
    t0 = time.perf_counter()
    rng = make_rng(505)
    N, d = 14, 8
    X = rng.normal(size=(N, d))
    worst = 0.0
    for kind, extra in CAUSAL_STRATEGIES:
        config = AttentionConfig(
            heads=2, d_model=d, site="causal",
            strategy=StrategySpec(kind=kind, **extra), n=4,
        )
        params = init_layer_params(config, make_rng(9))
        y0, _ = mha_forward(X, None, params, config)
        for cut in (4, 9):
            X2 = X.copy()
            X2[cut:] += rng.normal(size=(N - cut, d)) * 3.0
            y1, _ = mha_forward(X2, None, params, config)
            worst = max(worst, float(np.abs(y0[:cut] - y1[:cut]).max()))
    return _result("causality", worst, 1e-12, "6 causal-legal strategies", t0)


# --- 6. gradient checks -------------------------------------------------------------------


def _gradcheck_model(model, forward_loss, floor=1e-5):
    loss0, grads = forward_loss()
    worst = 0.0
    for name, base0 in model.params.items():
        base = base0.copy()

        def f(flat, name=name, base=base):
            model.params[name] = flat.reshape(base.shape)
            val, _ = forward_loss(grad=False)
            model.params[name] = base
            return val

        fd = finite_diff_grad(f, base.ravel()).reshape(base.shape)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), floor)
        worst = max(worst, float((np.abs(grads[name] - fd) / denom).max()))
    return worst


def suite_gradcheck() -> SuiteResult:
    """Analytic backward vs central differences on 2-layer toy models."""
    t0 = time.perf_counter()
    worst = 0.0
    details = []

    lm_cases = [
        ("mlp", StrategySpec(kind="mlp")),
        ("linformer", StrategySpec(kind="linformer", max_len=16)),
    ]
    tokens = make_rng(66).integers(0, 7, size=(2, 6))
    mask = np.ones((2, 6))
    mask[:, -1] = 0
    for name, spec in lm_cases:
        cfg = ToyModelConfig(
            layers=2, d_model=8, heads=2, ffn_mult=2, vocab=7, max_positions=16,
            causal=SiteSpec(spec, 3),
        )
        model = ToyLM(cfg)

        def forward_loss(grad=True, model=model):
            logits, tape = model.forward(tokens)
            loss, _, dlogits = next_token_loss(logits, tokens, mask)
            return (loss, model.backward(tape, dlogits)) if grad else (loss, None)

        err = _gradcheck_model(model, forward_loss)
        worst = max(worst, err)
        details.append(f"{name} {err:.1e}")

    # the learned control at all three sites: the prefix and both sequence forms
    cfg = ToyModelConfig(
        layers=2, d_model=8, heads=2, ffn_mult=2, vocab=7, max_positions=12,
        causal=SiteSpec(StrategySpec(kind="mlp"), 3),
        encoder=SiteSpec(StrategySpec(kind="mlp"), 3),
        cross=SiteSpec(StrategySpec(kind="mlp"), 3),
    )
    model = ToySeq2Seq(cfg, rng=make_rng(1))
    rng = make_rng(8)
    src = rng.integers(0, 7, size=(2, 4))
    tgt_in = rng.integers(0, 7, size=(2, 4))
    tgt_out = rng.integers(0, 7, size=(2, 4))

    def forward_loss_s2s(grad=True):
        logits, tape = model.forward(src, tgt_in)
        loss, _, dlogits = masked_cross_entropy(logits, tgt_out, np.ones(tgt_out.shape))
        return (loss, model.backward(tape, dlogits)) if grad else (loss, None)

    err = _gradcheck_model(model, forward_loss_s2s)
    worst = max(worst, err)
    details.append(f"seq2seq mlp at every site {err:.1e}")
    return _result("gradcheck", worst, 1e-4, "; ".join(details), t0)


# --- 7. normalization invariants --------------------------------------------------------------


def suite_normalization() -> SuiteResult:
    t0 = time.perf_counter()
    rng = make_rng(707)
    worst = 0.0
    details = []

    # learned control, sequence mode: per-slot weights sum to one
    X = rng.normal(size=(9, 5))
    W = rng.normal(size=(4, 5))
    phis = st.phi_mlp_sequence(X, W).T
    err = float(np.abs(phis.sum(axis=0) - 1.0).max())
    worst = max(worst, err)
    details.append(f"mlp sums {err:.1e}")

    # cluster control: every column of stacked controls sums to one
    K = rng.normal(size=(20, 4))
    m = st.cluster_assign(K, 5, 8, make_rng(4))
    cphis = st.cluster_phi(m)
    err = float(np.abs(cphis.sum(axis=0) - 1.0).max())
    worst = max(worst, err)
    details.append(f"cluster sums {err:.1e}")

    # compressive memory rows are chunk means, bit-exact for power-of-two
    # ratios (dividing by 2^m is exact, and the deterministic accumulation
    # in build_memory adds the scaled keys in the same order)
    exact_ok = True
    for ratio, N in ((2, 12), (4, 16), (8, 32)):
        n = N // ratio
        Kc = rng.normal(size=(N, 3)) * 50
        mem = build_memory(st.phi_matrix(st.CompressiveControl(n=n, ratio=ratio), N), Kc, Kc)
        for j in range(n):
            acc = np.zeros(3)
            for row in Kc[j * ratio : (j + 1) * ratio]:
                acc = acc + row
            if not np.array_equal(mem.ktilde[j], acc / ratio):
                exact_ok = False
    details.append(f"compressive exact={exact_ok}")

    res = _result("normalization", worst, 1e-12, "; ".join(details), t0)
    res.passed = res.passed and exact_ok
    return res


# --- 10. parameter tying ------------------------------------------------------------------------


def suite_param_tying() -> SuiteResult:
    """Tied learned-control weights add < 1% parameters to the toy model."""
    t0 = time.perf_counter()
    cfg = ToyModelConfig(
        layers=4, d_model=64, heads=4, ffn_mult=4, vocab=64, max_positions=128,
        causal=SiteSpec(StrategySpec(kind="mlp"), 16),
    )
    model = ToyLM(cfg)
    frac = model.strategy_param_count() / model.param_count()
    res = SuiteResult(
        name="param-tying",
        passed=frac < 0.01,
        max_err=frac,
        tolerance=0.01,
        detail=f"{model.strategy_param_count()} of {model.param_count()} params "
        f"({100 * frac:.3f}%), counted once across {cfg.layers} layers",
        seconds=time.perf_counter() - t0,
    )
    return res


SUITES = {
    "softmax-recovery": suite_softmax_recovery,
    "batch-recurrent": suite_batch_recurrent,
    "prefix-normalization": suite_prefix_normalization,
    "pseudo-query": suite_pseudo_query,
    "causality": suite_causality,
    "gradcheck": suite_gradcheck,
    "normalization": suite_normalization,
    "param-tying": suite_param_tying,
}


def run_suites(names=None) -> list[SuiteResult]:
    names = list(SUITES) if not names else list(names)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[n]() for n in names]
