import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boundedattn import attention as att
from boundedattn import strategies as st
from boundedattn.memory import build_memory, full_attention, pseudo_query_memory, readout
from boundedattn.numerics import NumericError, finite_diff_grad, make_rng, softmax, softmax_rows
from boundedattn.strategies import phi_mlp_sequence


def cfg(site="causal", kind="mlp", n=3, heads=2, d_model=8, **kw):
    spec_kw = {}
    for key in ("seed", "ratio", "global_positions", "max_len"):
        if key in kw:
            spec_kw[key] = kw.pop(key)
    spec = att.StrategySpec(kind=kind, **spec_kw)
    return att.AttentionConfig(
        heads=heads, d_model=d_model, site=site,
        strategy=spec, n=n, **kw,
    )


def make_params(config, seed=0):
    return att.init_layer_params(config, make_rng(seed))


# --- softmax recovery ----------------------------------------------------------


def test_identity_control_recovers_softmax_encoder():
    rng = make_rng(1)
    N, d = 7, 8
    X = rng.normal(size=(N, d))
    c_id = cfg(site="encoder_self", kind="local_to_global", n=N,
               global_positions=tuple(range(N)), d_model=d)
    c_sm = cfg(site="encoder_self", kind="softmax", n=N, d_model=d)
    p = make_params(c_id, seed=3)
    y_id, _ = att.mha_forward(X, None, p, c_id)
    y_sm, _ = att.mha_forward(X, None, p, c_sm)
    assert np.abs(y_id - y_sm).max() <= 1e-10


def test_identity_control_recovers_softmax_causal():
    rng = make_rng(2)
    N, d = 9, 8
    X = rng.normal(size=(N, d))
    c_id = cfg(site="causal", kind="local_to_global", n=N,
               global_positions=tuple(range(N)), d_model=d)
    c_sm = cfg(site="causal", kind="softmax", n=N, d_model=d)
    p = make_params(c_id, seed=5)
    y_id, _ = att.mha_forward(X, None, p, c_id)
    y_sm, _ = att.mha_forward(X, None, p, c_sm)
    assert np.abs(y_id - y_sm).max() <= 1e-10


# --- batch vs streaming ----------------------------------------------------------


STREAMABLE = [
    ("softmax", {}),
    ("mlp", {}),
    ("mlp", {"heads": 1}),  # tau = sqrt(8), not 2
    ("linformer", {"max_len": 16}),
    ("random", {"seed": 11, "max_len": 16}),
    ("compressive", {"ratio": 4}),
    ("local_to_global", {"global_positions": (0, 2, 5)}),
    ("window", {}),
    ("dilated", {}),
]


def _batch_minus_stream(c, N, B=2):
    X = make_rng(42).normal(size=(B, N, c.d_model))
    p = make_params(c, seed=7)
    y_batch, _ = att.mha_forward(X, None, p, c)
    state = att.init_attn_state(c, p, batch=B, capacity=N)
    outs = [att.stream_step(X[:, t], p, c, state) for t in range(N)]
    return np.abs(y_batch - np.stack(outs, axis=1)).max()


@pytest.mark.parametrize("kind,extra", STREAMABLE)
def test_causal_batch_equals_streaming(kind, extra):
    assert _batch_minus_stream(cfg(site="causal", kind=kind, n=3, d_model=8, **extra), 12) <= 1e-10


CHUNK = att._CHUNK
# several chunks of the causal kernels, the last ragged
MULTI_CHUNK_LENGTHS = (127, 128, 129, 261)
MULTI_CHUNK = [
    ("mlp", {}),
    ("mlp", {"heads": 1}),  # tau = sqrt(8), not 2
    ("linformer", {"max_len": 261}),
    ("random", {"seed": 11, "max_len": 261}),
    ("compressive", {"ratio": 70}),  # 4 slots reach 280 tokens
    # slot 2 is first written in a later chunk, slot 3 never
    ("local_to_global", {"global_positions": (0, 2, CHUNK + 20)}),
    ("window", {}),
    ("dilated", {}),
]


@pytest.mark.parametrize("N", MULTI_CHUNK_LENGTHS)
@pytest.mark.parametrize("kind,extra", MULTI_CHUNK)
def test_multi_chunk_causal_batch_equals_streaming(kind, extra, N):
    # the causal training kernels split time into chunks; the recurrence
    # they must agree with knows none
    c = cfg(site="causal", kind=kind, n=4, d_model=8, **extra)
    assert _batch_minus_stream(c, N) <= 1e-10


@pytest.mark.parametrize("N", (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5))
@pytest.mark.parametrize("kind,n", [
    ("window", 4),
    ("dilated", 4),
    # the queue reaches back h = stride*(n-1) > CHUNK steps: a block's key
    # window spans more than the block before it, and at N < h every step
    # still holds some zero pairs
    ("window", CHUNK + 2),
    ("dilated", CHUNK // 2 + 2),
])
def test_queue_block_boundaries_batch_equals_streaming(kind, n, N):
    c = cfg(site="causal", kind=kind, n=n, d_model=8)
    assert _batch_minus_stream(c, N) <= 1e-10


@pytest.mark.parametrize("kind,extra", [
    ("softmax", {}),
    ("mlp", {}),
    ("linformer", {"max_len": 16}),
    ("cluster", {}),
    ("compressive", {"ratio": 4}),
    ("random", {"seed": 3, "max_len": 16}),
    ("local_to_global", {}),
])
def test_cross_batch_equals_cached_memory_decode(kind, extra):
    rng = make_rng(43)
    B, Ns, Nt, d = 2, 10, 5, 8
    enc = rng.normal(size=(B, Ns, d))
    Xq = rng.normal(size=(B, Nt, d))
    c = cfg(site="cross", kind=kind, n=3, d_model=d, **extra)
    p = make_params(c, seed=9)
    y_batch, tape = att.mha_forward(Xq, enc, p, c)
    state = att.init_attn_state(c, p, batch=B, capacity=Nt, encoder_out=enc)
    # the decode state caches exactly the memory the batch forward reads
    assert np.array_equal(state.ktilde, tape.arrays["Km"])
    assert np.array_equal(state.vtilde, tape.arrays["Vm"])
    outs = [att.stream_step(Xq[:, t], p, c, state) for t in range(Nt)]
    y_stream = np.stack(outs, axis=1)
    assert np.abs(y_batch - y_stream).max() <= 1e-10


def test_random_slots_are_drawn_once_across_decode_steps(monkeypatch):
    # the per-position slot draws are a property of the strategy: building
    # them again on every decode step would cost O(max_len) per token
    built = []
    orig = st.RandomSlotControl.__post_init__

    def counting(self):
        built.append(self)
        orig(self)

    monkeypatch.setattr(st.RandomSlotControl, "__post_init__", counting)
    B, N, d = 2, 40, 8
    c = cfg(site="causal", kind="random", n=3, d_model=d, seed=9001, max_len=N)
    p = make_params(c, seed=7)
    state = att.init_attn_state(c, p, batch=B, capacity=N)
    X = make_rng(44).normal(size=(B, N, d))
    for t in range(N):
        att.stream_step(X[:, t], p, c, state)
    assert len(built) <= 1


def test_learned_decode_step_does_not_copy_the_slot_memory():
    # the running normalizer divides the scores and readout weights; a step
    # that built ktilde / norm and vtilde / norm would hold two more memories
    import tracemalloc

    B, d, H, n = 4, 256, 4, 32
    c = cfg(site="causal", kind="mlp", n=n, d_model=d, heads=H)
    p = make_params(c, seed=5)
    state = att.init_attn_state(c, p, batch=B, capacity=4)
    X = make_rng(45).normal(size=(3, B, d))
    for x in X[:2]:
        att.stream_step(x, p, c, state)
    tracemalloc.start()
    try:
        att.stream_step(X[2], p, c, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.ktilde.nbytes


@pytest.mark.parametrize("kind", ["window", "dilated"])
def test_queue_decode_step_does_not_copy_its_queue(kind):
    # a queue step writes the token into one ring slot; shifting the queue up
    # a slot instead would copy (and buffer) a whole (B, H, n, d_head) queue
    import tracemalloc

    B, d, H, n = 4, 256, 4, 32
    c = cfg(site="causal", kind=kind, n=n, d_model=d, heads=H)
    p = make_params(c, seed=5)
    state = att.init_attn_state(c, p, batch=B, capacity=71)
    X = make_rng(46).normal(size=(71, B, d))
    for x in X[:70]:
        att.stream_step(x, p, c, state)
    tracemalloc.start()
    try:
        att.stream_step(X[70], p, c, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * H * n * (d // H) * 8


CONSTANT_DECODE = [
    ("random", {"seed": 4, "max_len": 64}),
    ("compressive", {"ratio": 2}),
    ("local_to_global", {"global_positions": (0, 3, 5)}),
    ("linformer", {"max_len": 64}),
]


@pytest.mark.parametrize("kind,extra", CONSTANT_DECODE)
def test_constant_control_decode_step_equals_the_dense_update(kind, extra):
    # the step adds the shared control row to the slots it names; the
    # memory and normalizer must be the bits of adding the whole row
    B, n = 2, 4
    c = cfg(site="causal", kind=kind, n=n, **extra)
    p = make_params(c, seed=8)
    state = att.init_attn_state(c, p, batch=B, capacity=6)
    X = make_rng(48).normal(size=(6, B, c.d_model))
    for t, x in enumerate(X):
        row = st.phi_at(c.control, t, p.strategy_weights)
        alpha = np.broadcast_to(row, (B, n))
        k = (x @ p.wk).reshape(B, c.heads, c.d_head)
        v = (x @ p.wv).reshape(B, c.heads, c.d_head)
        want = [state.ktilde.copy(), state.vtilde.copy(), state.norm.copy()]
        before = [a.copy() for a in want]
        want[0] += alpha[:, None, :, None] * k[:, :, None, :]
        want[1] += alpha[:, None, :, None] * v[:, :, None, :]
        want[2] += np.abs(alpha)[:, None, :]
        att.stream_step(x, p, c, state)
        got = [state.ktilde, state.vtilde, state.norm]
        for g, w, b in zip(got, want, before):
            assert np.array_equal(g, w)
            assert np.array_equal(g[:, :, row == 0], b[:, :, row == 0])


def test_learned_decode_step_equals_the_dense_update():
    # the learned row exp(W_phi x), one per batch row, goes through the same
    # write as a constant control's row: the memory and normalizer must be
    # the bits of adding the whole (B, n) row
    B, n = 2, 4
    c = cfg(site="causal", kind="mlp", n=n)
    p = make_params(c, seed=8)
    state = att.init_attn_state(c, p, batch=B, capacity=6)
    X = make_rng(48).normal(size=(6, B, c.d_model))
    for x in X:
        alpha = np.exp(x @ p.strategy_weights.T)
        k = (x @ p.wk).reshape(B, c.heads, c.d_head)
        v = (x @ p.wv).reshape(B, c.heads, c.d_head)
        want = [state.ktilde + alpha[:, None, :, None] * k[:, :, None, :],
                state.vtilde + alpha[:, None, :, None] * v[:, :, None, :],
                state.norm + alpha[:, None, :]]
        att.stream_step(x, p, c, state)
        for g, w in zip([state.ktilde, state.vtilde, state.norm], want):
            assert np.array_equal(g, w)


def _decode_step_peak(kind, extra):
    import tracemalloc

    B, d, H, n = 4, 256, 4, 32
    c = cfg(site="causal", kind=kind, n=n, d_model=d, heads=H, **extra)
    p = make_params(c, seed=5)
    state = att.init_attn_state(c, p, batch=B, capacity=11)
    X = make_rng(49).normal(size=(11, B, d))
    for x in X[:10]:
        att.stream_step(x, p, c, state)
    tracemalloc.start()
    try:
        att.stream_step(X[10], p, c, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, state.ktilde.nbytes


@pytest.mark.parametrize("kind,extra", [
    ("random", {"seed": 4, "max_len": 64}),
    ("compressive", {"ratio": 2}),
    ("local_to_global", {"global_positions": (3, 10, 20)}),
])
def test_sparse_control_decode_step_writes_no_memory_sized_array(kind, extra):
    # a one-hot (or zero) row touches one slot (or none): building the
    # (B, H, n, d_head) product of the whole row would allocate a memory
    peak, memory = _decode_step_peak(kind, extra)
    assert peak < memory / 4


def test_dense_control_decode_step_updates_the_slots_as_a_view():
    # a linformer row names every slot; indexing all n slots would add a
    # gathered copy of the memory to the product the update needs
    peak, memory = _decode_step_peak("linformer", {"max_len": 64})
    assert peak < 2 * memory


def test_prefix_normalizer_error_names_the_site_kind_and_step():
    c = cfg(site="causal", kind="mlp", n=3)
    p = make_params(c)
    state = att.init_attn_state(c, p, batch=2, capacity=8)
    state.t = 5
    # pre-activations below about -745 underflow exp to 0: a control that
    # writes no weight leaves the prefix normalizer at zero
    p.strategy_weights = np.full((3, c.d_model), -1e3)
    x = np.abs(make_rng(50).normal(size=(2, c.d_model)))
    with pytest.raises(NumericError, match=r"causal site \(mlp control\) at decode step 5"):
        att.stream_step(x, p, c, state)


def test_causal_softmax_masks_its_scores_in_place():
    import tracemalloc

    N, H, d = 256, 4, 16
    c = cfg(site="causal", kind="softmax", n=1, heads=H, d_model=d)
    p = make_params(c, seed=6)
    X = make_rng(52).normal(size=(1, N, d))
    att.mha_forward(X, None, p, c)
    tracemalloc.start()
    try:
        att.mha_forward(X, None, p, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (H * N * N * 8)


def test_causal_softmax_equals_the_masked_copy_form():
    N, tau = 37, 2.0
    rng = make_rng(51)
    Q, K, V = (rng.normal(size=(2, 3, N, 4)) for _ in range(3))
    s = np.matmul(Q, K.transpose(0, 1, 3, 2)) / tau
    a = softmax_rows(np.where(np.tril(np.ones((N, N), dtype=bool)), s, -np.inf))
    out, cache = att._softmax_forward(Q, K, V, tau, causal=True)
    assert np.array_equal(cache["a"], a)
    assert np.array_equal(out, np.matmul(a, V))


@pytest.mark.parametrize("kind,slots",[("softmax", 5), ("mlp", 3), ("window", 3), ("dilated", 6)])
def test_causal_decode_state_is_one_slot_layout(kind, slots):
    # capacity slots for softmax, stride * n for a queue, n for an accumulating control
    c = cfg(site="causal", kind=kind, n=3)
    p = make_params(c)
    state = att.init_attn_state(c, p, batch=2, capacity=5)
    assert state.ktilde.shape == state.vtilde.shape == (2, c.heads, slots, c.d_head)
    for a in (state.ktilde, state.vtilde, state.norm):  # each its own mapping
        if a is not None:
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            assert not a.any()
    X = make_rng(47).normal(size=(5, 2, c.d_model))
    for x in X:
        att.stream_step(x, p, c, state)
    if kind == "softmax":  # its ring never wraps
        with pytest.raises(ValueError, match="capacity"):
            att.stream_step(X[0], p, c, state)
        empty = att.init_attn_state(c, p, batch=2, capacity=0)
        assert empty.ktilde.shape == (2, c.heads, 0, c.d_head) and empty.size_bytes() == 0


# --- causality -------------------------------------------------------------------


CAUSAL_LEGAL = [
    ("window", {}),
    ("dilated", {}),
    ("random", {"seed": 4, "max_len": 16}),
    ("compressive", {"ratio": 3}),
    ("linformer", {"max_len": 16}),
    ("mlp", {}),
]


@pytest.mark.parametrize("kind,extra", CAUSAL_LEGAL)
def test_future_perturbation_leaves_prefix_unchanged(kind, extra):
    rng = make_rng(3)
    N, d = 10, 8
    X = rng.normal(size=(N, d))
    c = cfg(site="causal", kind=kind, n=4, d_model=d, **extra)
    p = make_params(c, seed=1)
    y0, _ = att.mha_forward(X, None, p, c)
    cut = 6
    X2 = X.copy()
    X2[cut:] += rng.normal(size=(N - cut, d)) * 5.0
    y1, _ = att.mha_forward(X2, None, p, c)
    assert np.abs(y0[:cut] - y1[:cut]).max() <= 1e-12


def test_head_independence():
    # zeroing one head's columns of the value projection changes only that
    # head's slice of the concatenated output (checked with identity Wo)
    rng = make_rng(8)
    N, d, heads = 6, 8, 2
    X = rng.normal(size=(N, d))
    c = cfg(site="encoder_self", kind="mlp", n=3, d_model=d, heads=heads)
    p = make_params(c, seed=2)
    p.wo = np.eye(d)
    y0, _ = att.mha_forward(X, None, p, c)
    p.wv = p.wv.copy()
    p.wv[:, : d // heads] = 0.0  # head 0's value columns
    y1, _ = att.mha_forward(X, None, p, c)
    dh = d // heads
    assert np.abs(y1[:, :dh]).max() <= 1e-12 or np.abs(y0[:, :dh] - y1[:, :dh]).max() > 0
    assert np.abs(y0[:, dh:] - y1[:, dh:]).max() <= 1e-15


# --- pseudo-query decomposition ---------------------------------------------------


def test_pseudo_query_memory_equals_control_vector_build():
    rng = make_rng(21)
    N, n, d, dm = 7, 3, 4, 5
    X = rng.normal(size=(N, dm))
    K = rng.normal(size=(N, d))
    w = rng.normal(size=(n, dm))
    got = pseudo_query_memory(w, X, K)
    want = build_memory(phi_mlp_sequence(X, w).T, K, K).ktilde
    assert np.abs(got - want).max() <= 1e-12


def test_pseudo_query_memory_single_slot_scalar_case():
    rng = make_rng(22)
    N, d, dm = 6, 3, 4
    X = rng.normal(size=(N, dm))
    K = rng.normal(size=(N, d))
    w = rng.normal(size=(1, dm))
    got = pseudo_query_memory(w, X, K)
    weights = softmax(X @ w[0])
    np.testing.assert_allclose(got[0], weights @ K, atol=1e-12)


def test_pseudo_query_memory_constant_input_gives_mean_key():
    rng = make_rng(23)
    N, n, d, dm = 5, 3, 4, 4
    X = np.tile(rng.normal(size=dm), (N, 1))
    K = rng.normal(size=(N, d))
    w = rng.normal(size=(n, dm))
    got = pseudo_query_memory(w, X, K)
    np.testing.assert_allclose(got, np.tile(K.mean(axis=0), (n, 1)), atol=1e-12)


def test_single_head_single_slot_mlp_matches_hand_computation():
    # one slot: the memory rows are pseudo-query attention summaries and the
    # readout weight over that one slot is 1, so the output is vtilde @ wo
    rng = make_rng(24)
    N, d = 5, 4
    X = rng.normal(size=(N, d))
    c = cfg(site="encoder_self", kind="mlp", n=1, heads=1, d_model=d)
    p = make_params(c, seed=6)
    y, _ = att.mha_forward(X, None, p, c)
    phi = softmax(X @ p.strategy_weights[0])
    vtilde = phi @ (X @ p.wv)
    np.testing.assert_allclose(y, np.tile(vtilde @ p.wo, (N, 1)), atol=1e-12)


# --- equivalence with the memory-level ops ----------------------------------------


def _memory_level_causal_mlp(X, p, c):
    """The causal learned layer as a per-head recurrence through memory.py."""
    from boundedattn.memory import readout_normalized, step as mem_step, zero_memory
    from boundedattn.strategies import activation_forward

    (N, d), H, dh = X.shape, c.heads, c.d_head
    Q = (X @ p.wq).reshape(N, H, dh)
    K = (X @ p.wk).reshape(N, H, dh)
    V = (X @ p.wv).reshape(N, H, dh)
    out = np.zeros((N, H, dh))
    for h in range(H):
        state = zero_memory(c.n, dh, with_norm=True)
        for t in range(N):
            alpha = activation_forward(X[t] @ p.strategy_weights.T)
            state = mem_step(state, alpha, K[t, h], V[t, h], alpha=alpha)
            out[t, h] = readout_normalized(Q[t, h], state, temperature=c.tau)
    return out.reshape(N, d) @ p.wo


def test_causal_mlp_matches_memory_level_normalized_readout():
    rng = make_rng(31)
    N, d, n = 8, 8, 3
    X = rng.normal(size=(N, d))
    c = cfg(site="causal", kind="mlp", n=n, d_model=d, heads=2)
    p = make_params(c, seed=12)
    y, _ = att.mha_forward(X, None, p, c)
    assert np.abs(y - _memory_level_causal_mlp(X, p, c)).max() <= 1e-10


def _scaled_phi(p, X, top):
    """``p`` with W_phi scaled so that the largest W_phi x over ``X`` is ``top``."""
    p.strategy_weights = p.strategy_weights * (top / (X @ p.strategy_weights.T).max())
    return p


def test_causal_mlp_at_large_pre_activations_is_unclipped():
    # exp(W_phi x) with W_phi x up to 40: batch, streaming and the
    # memory-level oracle agree; near 800 exp overflows, which is an error
    rng = make_rng(33)
    N, d = 40, 8
    X = rng.normal(size=(N, d))
    c = cfg(site="causal", kind="mlp", n=4, d_model=d, heads=2)
    p = _scaled_phi(make_params(c, seed=14), X, 40.0)
    y, _ = att.mha_forward(X, None, p, c)
    state = att.init_attn_state(c, p, batch=1, capacity=N)
    stream = np.concatenate([att.stream_step(X[t: t + 1], p, c, state) for t in range(N)])
    assert np.abs(y - stream).max() <= 1e-10
    assert np.abs(y - _memory_level_causal_mlp(X, p, c)).max() <= 1e-10

    p = _scaled_phi(p, X, 800.0)
    with pytest.raises(NumericError, match="exp of the learned control"):
        att.mha_forward(X, None, p, c)
    state = att.init_attn_state(c, p, batch=1, capacity=N)
    x_top = X[(X @ p.strategy_weights.T).max(axis=1).argmax()][None]
    with pytest.raises(NumericError, match="exp of the learned control"):
        att.stream_step(x_top, p, c, state)


@pytest.mark.parametrize("site", ["encoder_self", "cross"])
def test_sequence_mlp_at_large_pre_activations_is_n_pseudo_query_attentions(site):
    # with W_phi x up to 100 the memory is still n softmax attentions over
    # positions, one per weight row, and every slot's weights sum to one
    rng = make_rng(34)
    N, Nk, d = 6, 9, 8
    X = rng.normal(size=(2, N, d))
    Xkv = rng.normal(size=(2, Nk, d)) if site == "cross" else None
    kv = X if Xkv is None else Xkv
    c = cfg(site=site, kind="mlp", n=3, d_model=d, heads=2)
    p = _scaled_phi(make_params(c, seed=15), kv.reshape(-1, d), 100.0)
    _, tape = att.mha_forward(X, Xkv, p, c)
    ar = tape.arrays
    dh = c.d_head
    for b in range(2):
        K, V = kv[b] @ p.wk, kv[b] @ p.wv
        for h in range(c.heads):
            heads = slice(h * dh, (h + 1) * dh)
            want_k = pseudo_query_memory(p.strategy_weights, kv[b], K[:, heads])
            want_v = pseudo_query_memory(p.strategy_weights, kv[b], V[:, heads])
            assert np.abs(ar["Km"][b, h] - want_k).max() <= 1e-12
            assert np.abs(ar["Vm"][b, h] - want_v).max() <= 1e-12
    assert np.abs(ar["phiT"].sum(axis=-1) - 1.0).max() <= 1e-12


def test_causal_window_matches_direct_window_attention():
    rng = make_rng(32)
    N, d, n = 12, 8, 3
    X = rng.normal(size=(N, d))
    c = cfg(site="causal", kind="window", n=n, d_model=d, heads=2)
    p = make_params(c, seed=13)
    y, _ = att.mha_forward(X, None, p, c)
    H, dh = c.heads, c.d_head
    Q = (X @ p.wq).reshape(N, H, dh)
    K = (X @ p.wk).reshape(N, H, dh)
    V = (X @ p.wv).reshape(N, H, dh)
    for t in range(n - 1, N):  # full windows only
        window = list(range(t - n + 1, t + 1))
        out_t = np.stack(
            [full_attention(Q[t, h], K[window, h], V[window, h], c.tau) for h in range(H)]
        ).reshape(d)
        assert np.abs(y[t] - out_t @ p.wo).max() <= 1e-10


@pytest.mark.parametrize("site", ["causal", "encoder_self", "cross"])
def test_never_written_slot_is_masked_only_at_the_causal_site(site):
    # compressive, ratio 2, over 6 tokens writes slots 0..2, never slot 3.
    # The causal readout masks that slot, so n = 4 reads as n = 3; the
    # sequence sites read it as a zero key/value pair, whose score 0 takes
    # a share of the softmax and whose zero value adds nothing, so each
    # output row is the n = 3 row scaled by 1 - 1 / (1 + sum_l exp(s_l)).
    rng = make_rng(41)
    N, d = 6, 8
    X = rng.normal(size=(N, d))
    Xkv = rng.normal(size=(N, d)) if site == "cross" else None

    def run(n):
        c = cfg(site=site, kind="compressive", n=n, ratio=2, heads=1, d_model=d)
        return att.mha_forward(X, Xkv, make_params(c, seed=9), c)[0], c

    (y3, c3), (y4, _) = run(3), run(4)
    if site == "causal":
        assert np.abs(y4 - y3).max() <= 1e-12
        return
    p = make_params(c3, seed=9)
    src = X if Xkv is None else Xkv
    phiT = st.phi_matrix(c3.control, N).T
    s = (X @ p.wq) @ (phiT @ (src @ p.wk)).T / c3.tau
    scale = 1.0 - 1.0 / (1.0 + np.exp(s).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(y4, scale * y3, atol=1e-12)
    assert np.abs(y4 - y3).max() > 0.05


# --- gradients ---------------------------------------------------------------------


def _loss_through(config, params, X, Xkv, R):
    y, tape = att.mha_forward(X, Xkv, params, config)
    return float((y * R).sum()), tape


def _check_param_grad(config, params, X, Xkv, R, getter, setter, analytic, tol=1e-4):
    base = getter().copy()

    def f(flat):
        setter(flat.reshape(base.shape))
        val, _ = _loss_through(config, params, X, Xkv, R)
        setter(base)
        return val

    fd = finite_diff_grad(f, base.ravel()).reshape(base.shape)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
    rel = np.abs(analytic - fd) / denom
    assert rel.max() <= tol, f"max rel err {rel.max():.2e}"


GRAD_CASES = [
    ("causal", "mlp", {}),
    ("causal", "mlp", {"heads": 1}),  # tau = sqrt(8), not 2
    ("causal", "linformer", {"max_len": 12}),
    ("causal", "window", {}),
    ("causal", "random", {"seed": 2, "max_len": 12}),
    ("causal", "softmax", {}),
    ("encoder_self", "mlp", {}),
    ("encoder_self", "mlp", {"heads": 1}),
    ("encoder_self", "linformer", {"max_len": 12}),
    ("cross", "mlp", {}),
    ("encoder_self", "softmax", {}),
    ("cross", "softmax", {}),
    ("causal", "dilated", {}),
    ("causal", "compressive", {"ratio": 2}),
    ("causal", "local_to_global", {"global_positions": (0, 3)}),  # slot 2 never written
    # every sequence-site memory shape: cluster's per-head (B, H, N, n)
    # control, whose membership the backward holds fixed, and the constant ones
    ("encoder_self", "cluster", {}),
    ("cross", "cluster", {}),
    ("cross", "linformer", {"max_len": 12}),
    ("cross", "compressive", {"ratio": 3}),
    ("cross", "random", {"seed": 2, "max_len": 12}),
    ("encoder_self", "local_to_global", {}),
    ("cross", "local_to_global", {}),
]


@pytest.mark.parametrize("site,kind,extra", GRAD_CASES)
def test_backward_matches_finite_differences(site, kind, extra):
    _gradcheck(site, kind, extra, N=6)


@pytest.mark.parametrize("kind,extra", [
    ("mlp", {}),
    ("linformer", {"max_len": CHUNK + 3}),
    ("window", {}),
])
def test_multi_chunk_backward_matches_finite_differences(kind, extra):
    # two chunks, the second ragged: the carried memory and its gradient
    _gradcheck("causal", kind, extra, N=CHUNK + 3)


def _gradcheck(site, kind, extra, N):
    rng = make_rng(77)
    d = 8
    X = rng.normal(size=(N, d))
    Xkv = rng.normal(size=(7, d)) if site == "cross" else None
    c = cfg(site=site, kind=kind, n=3, d_model=d, **extra)
    p = make_params(c, seed=20)
    R = rng.normal(size=(N, d))

    _, tape = att.mha_forward(X, Xkv, p, c)
    grads, dXq, dXkv = att.mha_backward(tape, R, X, Xkv)

    names = ["wq", "wk", "wv", "wo"] + (["strategy_weights"] if p.strategy_weights is not None else [])
    for name in names:
        def get(n=name):
            return getattr(p, n)

        def put(v, n=name):
            setattr(p, n, v)

        _check_param_grad(c, p, X, Xkv, R, get, put, grads[name])

    # input gradients through the same oracle
    def f_x(flat):
        y, _ = att.mha_forward(flat.reshape(X.shape), Xkv, p, c)
        return float((y * R).sum())

    fd_x = finite_diff_grad(f_x, X.ravel()).reshape(X.shape)
    denom = np.maximum(np.maximum(np.abs(fd_x), np.abs(dXq)), 1e-5)
    assert (np.abs(dXq - fd_x) / denom).max() <= 1e-4

    if site == "cross":
        def f_kv(flat):
            y, _ = att.mha_forward(X, flat.reshape(Xkv.shape), p, c)
            return float((y * R).sum())

        fd_kv = finite_diff_grad(f_kv, Xkv.ravel()).reshape(Xkv.shape)
        denom = np.maximum(np.maximum(np.abs(fd_kv), np.abs(dXkv)), 1e-5)
        assert (np.abs(dXkv - fd_kv) / denom).max() <= 1e-4


@pytest.mark.parametrize("kind,extra", [
    ("mlp", {}),
    ("linformer", {"max_len": 2 * CHUNK + 5}),
    ("dilated", {}),
    ("window", {"n": CHUNK + 2}),  # h > CHUNK: windows overlap-add over 3 blocks
    ("dilated", {"n": CHUNK // 2 + 2}),
])
def test_three_chunk_backward_matches_directional_derivatives(kind, extra):
    # three chunks: a chunk's writes reach every later chunk, so the carried
    # memory's gradient is a reverse cumsum over chunks; one random direction
    # per input keeps this to two forwards each
    rng = make_rng(78)
    N, d, h = 2 * CHUNK + 5, 8, 1e-6
    c = cfg(site="causal", kind=kind, d_model=d, **{"n": 3, **extra})
    p = make_params(c, seed=21)
    X, R = rng.normal(size=(N, d)), rng.normal(size=(N, d))
    _, tape = att.mha_forward(X, None, p, c)
    grads, dX, _ = att.mha_backward(tape, R, X)
    grads["X"] = dX

    def loss(name, value):
        if name == "X":
            y, _ = att.mha_forward(value, None, p, c)
            return float((y * R).sum())
        base = getattr(p, name)
        setattr(p, name, value)
        y, _ = att.mha_forward(X, None, p, c)
        setattr(p, name, base)
        return float((y * R).sum())

    for name, g in grads.items():
        x0 = X if name == "X" else getattr(p, name)
        u = rng.normal(size=x0.shape)
        fd = (loss(name, x0 + h * u) - loss(name, x0 - h * u)) / (2 * h)
        assert abs(fd - (g * u).sum()) <= 1e-5 * max(abs(fd), 1.0), name


def test_zero_upstream_gives_zero_grads():
    rng = make_rng(50)
    X = rng.normal(size=(6, 8))
    c = cfg(site="causal", kind="mlp", n=3)
    p = make_params(c)
    _, tape = att.mha_forward(X, None, p, c)
    grads, dX, _ = att.mha_backward(tape, np.zeros((6, 8)), X)
    for g in grads.values():
        assert np.abs(g).max() == 0.0
    assert np.abs(dX).max() == 0.0


def test_non_learned_strategy_has_no_strategy_gradient():
    rng = make_rng(51)
    X = rng.normal(size=(6, 8))
    c = cfg(site="causal", kind="window", n=3)
    p = make_params(c)
    assert p.strategy_weights is None
    _, tape = att.mha_forward(X, None, p, c)
    grads, _, _ = att.mha_backward(tape, rng.normal(size=(6, 8)), X)
    assert "strategy_weights" not in grads


def test_tape_reuse_rejected():
    rng = make_rng(52)
    X = rng.normal(size=(4, 8))
    c = cfg(site="causal", kind="softmax", n=4)
    p = make_params(c)
    _, tape = att.mha_forward(X, None, p, c)
    att.mha_backward(tape, np.zeros((4, 8)), X)
    with pytest.raises(RuntimeError):
        att.mha_backward(tape, np.zeros((4, 8)), X)


def _tape_arrays(tape):
    """The arrays a tape holds, nested dicts included."""
    arrays, todo = [], [tape.arrays]
    while todo:
        for v in todo.pop().values():
            if isinstance(v, dict):
                todo.append(v)
            elif isinstance(v, np.ndarray):
                arrays.append(v)
    return arrays


def _tape_nbytes(tape):
    """Bytes of the distinct arrays a tape holds, nested dicts included."""
    return sum({id(a): a.nbytes for a in _tape_arrays(tape)}.values())


@pytest.mark.parametrize("kind,extra", [
    ("mlp", {}),
    ("window", {}),
    ("dilated", {}),
    ("random", {"max_len": 4 * CHUNK}),
])
def test_causal_tape_grows_linearly(kind, extra):
    sizes = []
    for N in (CHUNK, 4 * CHUNK):
        c = cfg(site="causal", kind=kind, n=4, d_model=16, **extra)
        X = make_rng(53).normal(size=(1, N, 16))
        _, tape = att.mha_forward(X, None, make_params(c), c)
        sizes.append(_tape_nbytes(tape))
    assert sizes[1] / sizes[0] <= 4.5


def test_queue_tape_keeps_only_readout_weights():
    c = cfg(site="causal", kind="window", n=4)
    _, tape = att.mha_forward(make_rng(54).normal(size=(20, 8)), None, make_params(c), c)
    cache = tape.arrays["cache"]
    assert list(cache) == ["a"] and cache["a"].shape == (1, 2, 20, 4)
    assert not {"Xq", "Xkv"} & set(tape.arrays)


@pytest.mark.parametrize("site,kind", [
    ("causal", "mlp"), ("causal", "window"), ("encoder_self", "softmax"), ("cross", "mlp"),
])
def test_tape_holds_no_input_and_backward_takes_it_again(site, kind):
    # a layer tapes what it computed, never its input: the caller passes
    # Xq (and Xkv at the cross site) to the backward again
    rng = make_rng(61)
    X = rng.normal(size=(2, 9, 8))
    Xkv = rng.normal(size=(2, 7, 8)) if site == "cross" else None
    c = cfg(site=site, kind=kind, n=3)
    p = make_params(c)
    _, tape = att.mha_forward(X, Xkv, p, c)
    inputs = [X] if Xkv is None else [X, Xkv]
    assert not any(np.shares_memory(a, x) for a in _tape_arrays(tape) for x in inputs)
    wrong = (X,) if site == "cross" else (X, X.copy())  # no Xkv / a second Xkv
    with pytest.raises(ValueError, match="encoder output" if site == "cross" else "pass Xkv=None"):
        att.mha_backward(tape, np.ones_like(X), *wrong)
    assert not tape.consumed
    grads, _, _ = att.mha_backward(tape, np.ones_like(X), X, Xkv)
    assert set(grads) >= {"wq", "wk", "wv", "wo"}


@pytest.mark.parametrize("kind,keys", [
    ("mlp", {"a", "S", "A", "mask", "Q", "K", "V"}),
    ("local_to_global", {"a", "A", "mask", "Q", "K", "V"}),
])
def test_additive_tape_keeps_no_chunk_square_arrays(kind, keys):
    # the backward rebuilds the masked chunk scores P, the slot scores s,
    # g = a / S, the readout weights W2 and the carried memories; of the
    # (c x c) arrays the tape keeps only the mask.  Q, K and V are taped once,
    # in the chunk layout the kernel reads, not also in the head layout.
    N = 3 * CHUNK + 5
    c = cfg(site="causal", kind=kind, n=4, d_model=16)
    X = make_rng(55).normal(size=(2, N, 16))
    _, tape = att.mha_forward(X, None, make_params(c), c)
    cache = tape.arrays["cache"]
    assert set(cache) == keys
    assert not {"Q", "K", "V", "Xq", "Xkv"} & set(tape.arrays)
    chunk, count = att._chunking(N)
    assert all(cache[k].shape == (2 * count, 2, chunk, 8) for k in "QKV")
    chunk = att._chunking(N)[0]
    square = [k for k, v in cache.items() if v.shape[-2:] == (chunk, chunk)]
    assert square == ["mask"]
    grads, _, _ = att.mha_backward(tape, np.ones((2, N, 16)), X)
    assert cache == {} and tape.arrays == {}


def test_causal_mlp_tape_holds_no_array_twice():
    # the learned control's raw weights alpha are the scan's A: taped beside
    # it as well, they were counted twice (held twice at a ragged N)
    c = cfg(site="causal", kind="mlp", n=4, d_model=16)
    _, tape = att.mha_forward(make_rng(58).normal(size=(2, 2 * CHUNK, 16)), None, make_params(c), c)
    arrays, todo = {}, [("", tape.arrays)]
    while todo:
        prefix, d = todo.pop()
        for k, v in d.items():
            if isinstance(v, dict):
                todo.append((k + ".", v))
            elif isinstance(v, np.ndarray):
                arrays.setdefault(id(v), (prefix + k, v))
    named = list(arrays.values())
    for i, (ka, a) in enumerate(named):
        for kb, b in named[i + 1:]:
            assert not np.shares_memory(a, b), f"{ka} and {kb} share memory"


def test_window_layer_training_peak_memory_is_bounded():
    # tracemalloc peak of one window layer's mha_forward + mha_backward at
    # B 1, H 4, N 1024, n 32: 8.62 MB here (a 4.33 MB tape), against 9.41 MB
    # when the queue forward filled a second (c, c + h) block array for its
    # band weights and the backward a fresh one for W
    c = cfg(site="causal", kind="window", n=32, heads=4, d_model=64)
    p = make_params(c)
    X, dY = make_rng(56).normal(size=(1, 1024, 64)), make_rng(57).normal(size=(1, 1024, 64))
    att.mha_backward(att.mha_forward(X, None, p, c)[1], dY, X)
    tracemalloc.start()
    try:
        _, tape = att.mha_forward(X, None, p, c)
        att.mha_backward(tape, dY, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0e6, f"window forward + backward peaked at {peak / 1e6:.2f} MB"


def test_mlp_layer_training_peak_memory_is_bounded():
    # tracemalloc peak of one mlp layer's mha_forward + mha_backward at B 1,
    # H 4, N 1024, n 32: 8.73 MB here, against 9.78 MB when the scan
    # backward held four score-sized arrays at once, added the carried
    # memory's score term through a whole score-sized product and made the
    # carried memory's control gradient for every chunk at once
    c = cfg(site="causal", kind="mlp", n=32, heads=4, d_model=64)
    p = make_params(c)
    X, dY = make_rng(56).normal(size=(1, 1024, 64)), make_rng(57).normal(size=(1, 1024, 64))
    att.mha_backward(att.mha_forward(X, None, p, c)[1], dY, X)
    tracemalloc.start()
    try:
        _, tape = att.mha_forward(X, None, p, c)
        att.mha_backward(tape, dY, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0e6, f"mlp forward + backward peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("kind,extra", [
    ("compressive", {"ratio": 2}),
    ("random", {"seed": 1, "max_len": 64}),
    ("local_to_global", {}),
])
def test_weightless_sequence_control_backward_makes_no_phi_gradient(kind, extra):
    # tracemalloc peak of one encoder_self backward at B 8, N 64, d 64, H 4,
    # n 32: 1.71 MB here, against 1.84 MB when the backward also made the
    # phi gradient (a (B, H, n, N) product per memory, summed over heads)
    # that a control without weights has no use for
    c = cfg(site="encoder_self", kind=kind, n=32, heads=4, d_model=64, **extra)
    p = make_params(c)
    X, dY = make_rng(59).normal(size=(8, 64, 64)), make_rng(60).normal(size=(8, 64, 64))
    _, tape = att.mha_forward(X, None, p, c)
    tracemalloc.start()
    try:
        grads, _, _ = att.mha_backward(tape, dY, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "strategy_weights" not in grads
    assert peak <= 1.77e6, f"{kind} encoder_self backward peaked at {peak / 1e6:.2f} MB"


def test_weightless_sequence_control_tapes_no_keys_or_values():
    # only a control with weights reads K and V in its backward (for dphi):
    # at B 8, N 64, d 64, H 4, n 32 the compressive encoder_self tape holds
    # 1,572,864 bytes, against 2,097,152 with K and V taped beside Km and Vm
    X = make_rng(59).normal(size=(8, 64, 64))
    for kind, taped in (("compressive", False), ("mlp", True)):
        c = cfg(site="encoder_self", kind=kind, n=32, heads=4, d_model=64, ratio=2)
        _, tape = att.mha_forward(X, None, make_params(c), c)
        assert ({"K", "V"} <= set(tape.arrays)) == taped, kind
        if not taped:
            assert _tape_nbytes(tape) == 1_572_864
        grads, _, _ = att.mha_backward(tape, np.ones_like(X), X)
        assert ("strategy_weights" in grads) == taped, kind


# --- config validation ----------------------------------------------------------


def test_config_rejects_future_peeking_causal_strategies():
    with pytest.raises(ValueError):
        cfg(site="causal", kind="cluster", n=3)
    with pytest.raises(ValueError):
        cfg(site="encoder_self", kind="window", n=3)
    with pytest.raises(ValueError):
        att.AttentionConfig(
            heads=3, d_model=8, site="causal",
            strategy=att.StrategySpec(kind="softmax"), n=4,
        )


def _readme_site_table():
    """kind -> (causal legal, encoder/cross legal), read from the README table."""
    table = {}
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = (cells[2] != "no", cells[3] != "no")
    return table


@pytest.mark.parametrize("site", att.SITES)
@pytest.mark.parametrize("kind", att.STRATEGY_KINDS)
def test_site_legality_matrix(kind, site):
    # every kind x site either runs or is rejected at config validation,
    # exactly as the README table says
    table = _readme_site_table()
    assert set(table) == set(att.STRATEGY_KINDS)
    legal = table[kind][0 if site == "causal" else 1]
    if not legal:
        with pytest.raises(ValueError):
            cfg(site=site, kind=kind, n=3)
        return
    c = cfg(site=site, kind=kind, n=3)
    rng = make_rng(70)
    X = rng.normal(size=(2, 6, 8))
    Xkv = rng.normal(size=(2, 7, 8)) if site == "cross" else None
    y, tape = att.mha_forward(X, Xkv, make_params(c), c)
    assert y.shape == X.shape and np.isfinite(y).all()
    grads, _, _ = att.mha_backward(tape, np.ones_like(y), X, Xkv)
    assert ("strategy_weights" in grads) == (kind in ("mlp", "linformer"))


def test_cross_requires_encoder_output():
    c = cfg(site="cross", kind="mlp", n=3)
    p = make_params(c)
    with pytest.raises(ValueError):
        att.mha_forward(make_rng(0).normal(size=(4, 8)), None, p, c)


def test_linformer_rejects_sequences_beyond_fixed_length():
    rng = make_rng(60)
    c = cfg(site="causal", kind="linformer", n=3, max_len=8)
    p = make_params(c)
    with pytest.raises(ValueError):
        att.mha_forward(rng.normal(size=(9, 8)), None, p, c)
    # shorter sequences use a prefix of the learned columns
    y, _ = att.mha_forward(rng.normal(size=(5, 8)), None, p, c)
    assert y.shape == (5, 8)
