import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from boundedattn import toymodel as tm
from boundedattn.attention import StrategySpec
from boundedattn.numerics import NumericError, finite_diff_grad, make_rng


def lm_config(kind="softmax", n=4, d_model=16, heads=2, layers=2, vocab=11,
              max_positions=16, **kw):
    spec_kw = {
        k: kw.pop(k)
        for k in ("max_len", "seed", "ratio", "global_positions")
        if k in kw
    }
    return tm.ToyModelConfig(
        layers=layers, d_model=d_model, heads=heads, ffn_mult=2, vocab=vocab,
        max_positions=max_positions,
        causal=tm.SiteSpec(StrategySpec(kind=kind, **spec_kw), n),
        **kw,
    )


def seq2seq_config(enc_kind="mlp", causal_kind="mlp", cross_kind="mlp", **kw):
    enc_extra = kw.pop("enc_extra", {})
    causal_extra = kw.pop("causal_extra", {})
    cross_extra = kw.pop("cross_extra", {})
    return tm.ToyModelConfig(
        layers=2, d_model=16, heads=2, ffn_mult=2, vocab=11, max_positions=16,
        causal=tm.SiteSpec(StrategySpec(kind=causal_kind, **causal_extra), 3),
        encoder=tm.SiteSpec(StrategySpec(kind=enc_kind, **enc_extra), 3),
        cross=tm.SiteSpec(StrategySpec(kind=cross_kind, **cross_extra), 3),
        **kw,
    )


def test_untrained_loss_is_near_uniform():
    cfg = lm_config(kind="mlp", n=4, vocab=32, d_model=32, max_positions=24)
    model = tm.ToyLM(cfg)
    rng = make_rng(1)
    tokens = rng.integers(0, 32, size=(4, 20))
    mask = np.ones((4, 20))
    mask[:, -1] = 0
    logits, _ = model.forward(tokens)
    loss, _, _ = tm.next_token_loss(logits, tokens, mask)
    assert abs(loss - math.log(32)) <= 0.05 * math.log(32)


def test_identity_strategy_reproduces_softmax_transformer():
    N = 12
    base = lm_config(kind="softmax", n=N, max_positions=N)
    ident = lm_config(kind="local_to_global", n=N, max_positions=N,
                      global_positions=tuple(range(N)))
    m0 = tm.ToyLM(base)
    m1 = tm.ToyLM(ident)
    m1.params = {k: v.copy() for k, v in m0.params.items()}
    tokens = make_rng(3).integers(0, 11, size=(2, N))
    l0, _ = m0.forward(tokens)
    l1, _ = m1.forward(tokens)
    assert np.abs(l0 - l1).max() <= 1e-8


@pytest.mark.parametrize("kind,extra", [
    ("softmax", {}),
    ("mlp", {}),
    ("window", {}),
    ("linformer", {"max_len": 16}),
])
def test_batch_and_streaming_logits_agree(kind, extra):
    cfg = lm_config(kind=kind, n=3, **extra)
    model = tm.ToyLM(cfg)
    tokens = make_rng(5).integers(0, 11, size=(2, 10))
    batch_logits, _ = model.forward(tokens)
    state = model.init_state(batch=2, capacity=10)
    stream = np.stack([model.step(tokens[:, t], state) for t in range(10)], axis=1)
    assert np.abs(batch_logits - stream).max() <= 1e-8


def _model_gradcheck(model, forward_loss, keys=None, tol=1e-4):
    loss0, grads = forward_loss()
    assert np.isfinite(loss0)
    for name in keys or model.params.keys():
        base = model.params[name].copy()

        def f(flat, name=name, base=base):
            model.params[name] = flat.reshape(base.shape)
            val, _ = forward_loss(grad=False)
            model.params[name] = base
            return val

        fd = finite_diff_grad(f, base.ravel()).reshape(base.shape)
        got = grads[name]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1e-5)
        rel = (np.abs(got - fd) / denom).max()
        assert rel <= tol, f"{name}: max rel err {rel:.2e}"


@pytest.mark.parametrize("kind,extra", [
    ("mlp", {}),
    ("mlp", {"tie_phi_across_layers": False}),
    ("linformer", {"max_len": 16}),
])
def test_lm_gradients_match_finite_differences(kind, extra):
    cfg = lm_config(kind=kind, n=3, d_model=8, heads=2, vocab=7, max_positions=8, **extra)
    model = tm.ToyLM(cfg)
    tokens = make_rng(9).integers(0, 7, size=(2, 6))
    mask = np.ones((2, 6))
    mask[:, -1] = 0

    def forward_loss(grad=True):
        logits, tape = model.forward(tokens)
        loss, _, dlogits = tm.next_token_loss(logits, tokens, mask)
        if not grad:
            return loss, None
        return loss, model.backward(tape, dlogits)

    _model_gradcheck(model, forward_loss)


def _seq2seq_gradcheck(tie_phi_across_layers):
    cfg = seq2seq_config(
        enc_kind="mlp", causal_kind="mlp", cross_kind="mlp",
        tie_phi_across_layers=tie_phi_across_layers,
    )
    model = tm.ToySeq2Seq(cfg, rng=make_rng(7))
    rng = make_rng(2)
    src = rng.integers(0, 11, size=(2, 5))
    tgt_in = rng.integers(0, 11, size=(2, 4))
    tgt_out = rng.integers(0, 11, size=(2, 4))

    def forward_loss(grad=True):
        logits, tape = model.forward(src, tgt_in)
        loss, _, dlogits = tm.masked_cross_entropy(logits, tgt_out, np.ones(tgt_out.shape))
        if not grad:
            return loss, None
        return loss, model.backward(tape, dlogits)

    _model_gradcheck(model, forward_loss)
    return model


def test_seq2seq_gradients_match_finite_differences():
    _seq2seq_gradcheck(tie_phi_across_layers=True)


def test_seq2seq_untied_gradients_match_finite_differences():
    # per-layer strategy weights at all three sites: enc{i}.attn.sw,
    # dec{i}.attn.sw and dec{i}.cross.sw each get their own gradient.
    model = _seq2seq_gradcheck(tie_phi_across_layers=False)
    assert sum(k.endswith(".sw") for k in model.params) == 6


@pytest.mark.parametrize("seq2seq", [False, True], ids=["lm", "seq2seq"])
def test_training_errors_name_the_optimizer_step_from_one(seq2seq, monkeypatch):
    # the curve numbers the first step 1, and so do its errors: a W_phi
    # large enough that exp overflows fails the first step, a NaN loss the
    # second
    if seq2seq:
        model = tm.ToySeq2Seq(seq2seq_config(), rng=make_rng(7))
        rng = make_rng(2)
        batch = (rng.integers(0, 11, size=(2, 5)), rng.integers(0, 11, size=(2, 4)),
                 rng.integers(0, 11, size=(2, 4)), np.ones((2, 4)))
        step, loss_name = tm.seq2seq_train_step, "masked_cross_entropy"
    else:
        model = tm.ToyLM(lm_config(kind="mlp", n=3))
        mask = np.ones((2, 6))
        mask[:, -1] = 0
        batch = (make_rng(9).integers(0, 11, size=(2, 6)), mask)
        step, loss_name = tm.train_step, "next_token_loss"
    opt = tm.adam_init(model)
    saved = model.params["phi.causal"].copy()
    model.params["phi.causal"] = saved * 1e4
    with pytest.raises(NumericError, match=r"^optimizer step 1: dec0 attn \(causal, mlp\): exp") as info:
        step(model, *batch, opt)
    assert isinstance(info.value.__cause__, NumericError)
    assert opt.t == 0
    model.params["phi.causal"] = saved
    step(model, *batch, opt)
    monkeypatch.setattr(tm, loss_name, lambda logits, *_: (float("nan"), 0.0, None))
    with pytest.raises(tm.TrainingDiverged, match="at optimizer step 2$"):
        step(model, *batch, opt)


def test_a_second_lm_backward_on_one_tape_is_refused():
    model = tm.ToyLM(lm_config(kind="mlp", n=3, d_model=8, heads=2, vocab=7, max_positions=8))
    tokens = make_rng(9).integers(0, 7, size=(2, 6))
    mask = np.ones((2, 6))
    mask[:, -1] = 0
    logits, tape = model.forward(tokens)
    _, _, dlogits = tm.next_token_loss(logits, tokens, mask)
    model.backward(tape, dlogits)
    assert tape.arrays == {}
    with pytest.raises(RuntimeError, match="gradient tape already consumed"):
        model.backward(tape, dlogits)


def test_a_second_seq2seq_backward_on_one_tape_is_refused():
    model = tm.ToySeq2Seq(seq2seq_config(), rng=make_rng(7))
    rng = make_rng(2)
    src, tgt = rng.integers(0, 11, size=(2, 5)), rng.integers(0, 11, size=(2, 4))
    logits, tape = model.forward(src, tgt)
    _, _, dlogits = tm.masked_cross_entropy(logits, tgt, np.ones(tgt.shape))
    model.backward(tape, dlogits)
    assert tape.arrays == {}
    with pytest.raises(RuntimeError, match="gradient tape already consumed"):
        model.backward(tape, dlogits)


@pytest.mark.parametrize("seq2seq", [False, True], ids=["lm", "seq2seq"])
def test_backward_creates_each_gradient_where_it_lands(seq2seq):
    # the gradient dict follows params order (the clip norm sums in it), and
    # each gradient is its own array.  None is zero-filled first: with a
    # 4096-token vocabulary the embedding and head gradients are most of the
    # bytes, and the traced peak of the backward must stay within a quarter
    # of the 524 KB token table above the gradients' own bytes.  It reads
    # 14 KB (LM) and 26 KB (seq2seq) above them here; a zero-filled dict, into
    # which the head and token gradients then land, read 538 KB and 546 KB.
    vocab, rng = 4096, make_rng(3)
    if seq2seq:
        model = tm.ToySeq2Seq(dataclasses.replace(seq2seq_config(), vocab=vocab), rng=make_rng(7))
        src, tgt = rng.integers(0, vocab, size=(2, 5)), rng.integers(0, vocab, size=(2, 4))
        logits, tape = model.forward(src, tgt)
        _, _, dlogits = tm.masked_cross_entropy(logits, tgt, np.ones(tgt.shape))
    else:
        model = tm.ToyLM(lm_config(kind="mlp", n=3, vocab=vocab))
        tokens, mask = rng.integers(0, vocab, size=(2, 6)), np.ones((2, 6))
        mask[:, -1] = 0
        logits, tape = model.forward(tokens)
        _, _, dlogits = tm.next_token_loss(logits, tokens, mask)
    tracemalloc.start()
    try:
        grads = model.backward(tape, dlogits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(grads) == list(model.params)
    for k, g in grads.items():
        assert g.shape == model.params[k].shape, k
        assert not any(np.shares_memory(g, p) for p in model.params.values()), k
        assert not any(np.shares_memory(g, h) for j, h in grads.items() if j != k), k
    grad_bytes = sum(g.nbytes for g in grads.values())
    assert peak <= grad_bytes + model.params["tok_emb"].nbytes / 4, (peak, grad_bytes)


def test_tied_strategy_weights_are_shared_and_accumulated():
    cfg = lm_config(kind="mlp", n=3, d_model=8, heads=2, vocab=7, max_positions=8,
                    tie_phi_across_layers=True)
    model = tm.ToyLM(cfg)
    assert "phi.causal" in model.params
    assert not any(k.endswith(".sw") for k in model.params)
    untied = lm_config(kind="mlp", n=3, d_model=8, heads=2, vocab=7, max_positions=8,
                       tie_phi_across_layers=False)
    m2 = tm.ToyLM(untied)
    assert sum(k.endswith(".sw") for k in m2.params) == 2
    # tying removes (layers - 1) copies from the parameter count
    assert m2.strategy_param_count() == 2 * model.strategy_param_count()


def test_fixed_batch_loss_strictly_decreases():
    cfg = lm_config(kind="mlp", n=4, d_model=16, vocab=16, max_positions=20,
                    lr=1e-3, warmup_steps=0)
    model = tm.ToyLM(cfg)
    sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=6, max_len=6, vocab=16))
    tokens, mask = sampler.sample(4, make_rng(0))
    opt = tm.adam_init(model)
    losses = [tm.train_step(model, tokens, mask, opt)[0] for _ in range(10)]
    for a, b in zip(losses, losses[1:]):
        assert b < a, losses


def test_zero_steps_leave_params_bitwise_unchanged():
    cfg = lm_config(kind="mlp", n=4)
    model = tm.ToyLM(cfg)
    before = {k: v.copy() for k, v in model.params.items()}
    curve = tm.train(model, tm.TaskSpec(kind="copy", min_len=4, max_len=4, vocab=11), 0, make_rng(0))
    assert curve == []
    for k in before:
        assert np.array_equal(before[k], model.params[k])


def test_training_is_deterministic_given_seed():
    cfg = lm_config(kind="mlp", n=4, vocab=16, max_positions=20)
    task = tm.TaskSpec(kind="copy", min_len=6, max_len=6, vocab=16)
    runs = []
    for _ in range(2):
        model = tm.ToyLM(cfg)
        curve = tm.train(model, task, 5, make_rng(7))
        runs.append((curve, {k: v.copy() for k, v in model.params.items()}))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_copy_task_learnable_quickly_at_tiny_scale():
    cfg = lm_config(kind="softmax", n=1, d_model=32, heads=2, vocab=12,
                    max_positions=16, batch_size=8, lr=2e-3, warmup_steps=20)
    model = tm.ToyLM(cfg)
    task = tm.TaskSpec(kind="copy", min_len=5, max_len=5, vocab=12)
    curve = tm.train(model, task, 250, make_rng(1))
    acc = tm.evaluate_accuracy(model, tm.TaskSampler(task), 8, make_rng(99))
    assert acc >= 0.9, f"tiny copy run should mostly fit, got {acc:.3f} (final loss {curve[-1][1]:.3f})"


def test_greedy_decode_zero_len_and_tie_breaking():
    cfg = lm_config(kind="softmax", n=1)
    model = tm.ToyLM(cfg)
    out = tm.greedy_decode(model, np.array([[2, 3]]), 0)
    assert out.shape == (1, 0)
    # exact logit ties break toward the lowest token id
    model.params["out_w"][:] = 0.0
    out = tm.greedy_decode(model, np.array([[2, 3]]), 3)
    np.testing.assert_array_equal(out, [[0, 0, 0]])


def test_greedy_decode_streaming_matches_batch_recompute():
    cfg = lm_config(kind="mlp", n=3, vocab=16, max_positions=24)
    model = tm.ToyLM(cfg)
    prefix = make_rng(13).integers(0, 16, size=(2, 5))
    got = tm.greedy_decode(model, prefix, 8)
    seq = prefix.copy()
    for _ in range(8):
        logits, _ = model.forward(seq)
        nxt = logits[:, -1].argmax(axis=-1)
        seq = np.concatenate([seq, nxt[:, None]], axis=1)
    np.testing.assert_array_equal(got, seq[:, 5:])


def test_greedy_decode_rejects_an_empty_prefix():
    model = tm.ToyLM(lm_config(kind="window", n=3))
    with pytest.raises(ValueError, match="non-empty prefix"):
        tm.greedy_decode(model, np.zeros((2, 0), dtype=np.intp), 4)


def test_dense_weights_are_c_contiguous_in_their_stored_shapes():
    cfg = seq2seq_config()
    d, f, vocab = cfg.d_model, cfg.ffn_mult * cfg.d_model, cfg.vocab
    shapes = {".wq": (d, d), ".wk": (d, d), ".wv": (d, d), ".wo": (d, d),
              ".ffn.w1": (d, f), ".ffn.w2": (d, f), "out_w": (vocab, d)}
    # the clip norm's list of the weights stored (d_out, d_in)
    assert set(tm._DENSE) == set(shapes) - {".ffn.w1"}
    # LM: 2 layers x (4 projections + 2 FFN) + head; seq2seq: encoder 2 x 6,
    # decoder 2 x (8 projections + 2 FFN), head
    for model, count in ((tm.ToyLM(cfg), 13), (tm.ToySeq2Seq(cfg), 33)):
        dense = {k: v for k, v in model.params.items() if k.endswith(tuple(shapes))}
        assert len(dense) == count
        for k, v in dense.items():
            want = next(shape for end, shape in shapes.items() if k.endswith(end))
            assert v.shape == want and v.flags.c_contiguous, k


def test_decoder_state_size_formula():
    cfg = lm_config(kind="mlp", n=5, d_model=16, heads=2, layers=3)
    model = tm.ToyLM(cfg)
    state = model.init_state(batch=2, capacity=10)
    dh = cfg.d_model // cfg.heads
    n = cfg.causal.n
    floats = cfg.layers * cfg.heads * (2 * n * dh + n)
    assert state.size_bytes() == floats * 8
    # a few decode steps later the footprint is unchanged
    for t in range(6):
        model.step(np.array([1, 2]), state)
    assert state.size_bytes() == floats * 8


def test_seq2seq_decoder_state_size_formula():
    # the causal slots and normalizer plus the cross (H, n, d_head)
    # key/value memories built from the source, per decoder layer
    cfg = seq2seq_config(enc_kind="softmax")
    model = tm.ToySeq2Seq(cfg, rng=make_rng(5))
    state = model.init_state(make_rng(16).integers(0, 11, size=(2, 6)))
    dh = cfg.d_model // cfg.heads
    n, n_cross = cfg.causal.n, cfg.cross.n
    causal = 2 * n * dh + n
    cross = 2 * n_cross * dh
    want = cfg.layers * cfg.heads * (causal + cross) * 8
    assert state.size_bytes() == want
    for _ in range(6):
        model.step(np.array([1, 2]), state)
    assert state.size_bytes() == want


def test_softmax_state_grows_with_decoded_length():
    cfg = lm_config(kind="softmax", n=1, d_model=16, heads=2, layers=2)
    model = tm.ToyLM(cfg)
    state = model.init_state(batch=2, capacity=12)
    sizes = []
    for t in range(8):
        model.step(np.array([1, 2]), state)
        sizes.append(state.size_bytes())
    dh = cfg.d_model // cfg.heads
    per_tok = cfg.layers * cfg.heads * 2 * dh * 8
    assert sizes == [per_tok * (t + 1) for t in range(8)]


BOUNDED_CAUSAL = ("window", "dilated", "mlp", "linformer", "random", "compressive", "local_to_global")


def _step_peak(model, state, tok):
    """tracemalloc peak of one decode step, above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.step(tok, state)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", BOUNDED_CAUSAL + ("softmax",))
def test_decode_step_work_is_constant_for_every_bounded_causal_kind(kind):
    # the peak memory one step allocates, early and at the end of a long
    # decode: flat for a bounded state, growing with the softmax cache
    N, n = 2048, 8
    cfg = lm_config(kind=kind, n=n, d_model=32, heads=2, max_positions=N, max_len=N, ratio=N // n)
    model = tm.ToyLM(cfg, rng=make_rng(0))
    tokens = make_rng(1).integers(0, cfg.vocab, size=(2, N))
    state = model.init_state(batch=2, capacity=N)
    for t in range(16):
        model.step(tokens[:, t], state)
    early = _step_peak(model, state, tokens[:, 16])
    for t in range(17, N - 1):
        model.step(tokens[:, t], state)
    late = _step_peak(model, state, tokens[:, N - 1])
    if kind == "softmax":
        assert late > 4 * early, (early, late)
    else:
        assert abs(late - early) <= 256, (early, late)


# Decodes a softmax ToyLM with 16 MB of rings to capacity four times, each
# pass building the next state while the last one is still referenced, and
# prints the current RSS after the first fresh state and after each pass.
_RSS_SCRIPT = textwrap.dedent("""
    import os, sys
    from boundedattn import toymodel as tm
    from boundedattn.attention import StrategySpec
    from boundedattn.numerics import make_rng

    def rss():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    B, T = 16, 256
    cfg = tm.ToyModelConfig(layers=1, d_model=256, heads=4, ffn_mult=1, vocab=8, max_positions=T,
                            causal=tm.SiteSpec(StrategySpec(kind="softmax"), 1))
    model = tm.ToyLM(cfg, rng=make_rng(0))
    if sys.argv[1] == "adam":
        tm.adam_init(model)
    tokens = make_rng(1).integers(0, 8, size=(B, T))
    start = rss()
    state = model.init_state(batch=B, capacity=T)
    print(sum(s.ktilde.nbytes + s.vtilde.nbytes for s in state.attn))
    print(rss() - start)
    for _ in range(4):
        state = model.init_state(batch=B, capacity=T)
        for t in range(T):
            model.step(tokens[:, t], state)
        print(rss() - start)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("heap", ["default", "adam"])
def test_dropped_decode_state_returns_its_memory(heap):
    # from the heap, the next state's rings would fill beside the dropped
    # ones, whose pages stay resident: two softmax caches from the third pass
    import boundedattn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(boundedattn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, heap], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    full, fresh, *passes = (int(v) for v in out)
    assert full >= 16 << 20
    assert fresh < 1 << 20, f"a fresh state added {fresh} bytes"
    assert max(passes) <= 1.25 * full, f"RSS above start per pass / full state: {[p / full for p in passes]}"


def test_overlong_and_invalid_tokens_rejected():
    cfg = lm_config(kind="softmax", n=1, max_positions=8)
    model = tm.ToyLM(cfg)
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 9), dtype=int))
    with pytest.raises(ValueError):
        model.forward(np.full((1, 4), 99))


def _check_seq2seq_streaming_decode(cfg):
    model = tm.ToySeq2Seq(cfg, rng=make_rng(4))
    src = make_rng(15).integers(0, 11, size=(2, 6))
    got = model.greedy_decode(src, 5)
    # batch-recompute oracle: rerun the full decoder on the growing prefix
    tgt = np.full((2, 1), tm.BOS, dtype=np.intp)
    for _ in range(5):
        logits, _ = model.forward(src, tgt)
        nxt = logits[:, -1].argmax(axis=-1)
        tgt = np.concatenate([tgt, nxt[:, None]], axis=1)
    np.testing.assert_array_equal(got, tgt[:, 1:])


def test_seq2seq_streaming_decode_matches_batch():
    _check_seq2seq_streaming_decode(seq2seq_config())


def test_seq2seq_streaming_decode_matches_batch_mixed_sites():
    _check_seq2seq_streaming_decode(
        seq2seq_config(enc_kind="softmax", causal_kind="window", cross_kind="cluster")
    )


def test_seq2seq_greedy_decode_rejects_an_empty_source():
    model = tm.ToySeq2Seq(seq2seq_config(), rng=make_rng(4))
    with pytest.raises(ValueError, match="non-empty source"):
        tm.greedy_decode(model, np.zeros((2, 0), dtype=np.intp), 4)


def test_dropped_models_are_freed_without_the_cycle_collector():
    lm = tm.ToyLM(lm_config(kind="mlp", n=3))
    s2s = tm.ToySeq2Seq(seq2seq_config())
    refs = [weakref.ref(lm), weakref.ref(s2s)]
    gc.disable()
    try:
        del lm, s2s
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_seq2seq_short_training_reduces_loss():
    cfg = seq2seq_config(lr=2e-3, warmup_steps=10)
    model = tm.ToySeq2Seq(cfg, rng=make_rng(6))
    rng = make_rng(8)
    opt = tm.adam_init(model)
    losses = []
    for _ in range(150):
        src = rng.integers(2, 11, size=(4, 5))
        tgt_in = np.concatenate([np.full((4, 1), tm.BOS, dtype=np.intp), src[:, :-1]], axis=1)
        loss, _, grads = tm.seq2seq_loss_and_grads(model, src, tgt_in, src)
        tm.adam_update(model, grads, opt)
        losses.append(loss)
    assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.8


def test_reverse_task_targets_are_reversed_payload():
    sampler = tm.TaskSampler(tm.TaskSpec(kind="reverse", min_len=5, max_len=5, vocab=16))
    tokens, mask = sampler.sample(3, make_rng(0))
    L = 5
    payload = tokens[:, 1 : L + 1]
    np.testing.assert_array_equal(tokens[:, L + 2 :], payload[:, ::-1])
    assert tokens[:, 0].tolist() == [tm.BOS] * 3
    assert tokens[:, L + 1].tolist() == [tm.SEP] * 3
    assert mask[:, L + 1 : 2 * L + 1].all() and mask.sum() == 3 * L


def test_char_lm_task_round_trips_corpus(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcab" * 50, encoding="utf-8")
    spec = tm.TaskSpec(kind="char_lm", min_len=8, max_len=8, vocab=8, corpus_path=str(corpus))
    sampler = tm.TaskSampler(spec)
    tokens, mask = sampler.sample(4, make_rng(1))
    assert tokens.shape == (4, 9) and mask.shape == (4, 9)
    assert mask[:, :-1].all() and not mask[:, -1].any()
    assert tokens.max() < 3  # only three distinct symbols
    decoded = "".join(sampler.itos[t] for t in tokens[0])
    assert decoded in "abcab" * 50


def test_char_lm_rejects_oversized_alphabet(tmp_path):
    corpus = tmp_path / "big.txt"
    corpus.write_text("".join(chr(97 + i) for i in range(10)) * 20, encoding="utf-8")
    with pytest.raises(ValueError):
        tm.TaskSampler(tm.TaskSpec(kind="char_lm", min_len=4, max_len=4, vocab=5,
                                   corpus_path=str(corpus)))


def test_perplexity_of_untrained_model_is_near_vocab():
    cfg = lm_config(kind="mlp", n=4, vocab=32, d_model=32, max_positions=24)
    model = tm.ToyLM(cfg)
    sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=8, max_len=8, vocab=32))
    ppl = tm.evaluate_perplexity(model, sampler, 4, make_rng(3))
    assert abs(ppl - 32.0) <= 0.05 * 32.0


# --- the in-place chains against their expression forms ----------------------------
#
# layer norm, FFN and Adam write into arrays they own; these are the plain
# expressions they replaced, kept as the reference the results must equal bit
# for bit.


def _ref_layer_norm_forward(x, g, b):
    xc = x - tm._feature_mean(x)
    var = tm._feature_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + tm.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _ref_layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dxhat = dy * g
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes).reshape(1, -1)
    db = dy.sum(axis=axes).reshape(1, -1)
    dx = inv * (dxhat - tm._feature_mean(dxhat) - xhat * tm._feature_mean(dxhat * xhat))
    return dx, dg, db


def _ref_ffn_forward(h, w1, w2):
    z = h @ w1
    r = np.maximum(z, 0.0)
    return r @ w2.T, (h, z, r)


def _ref_ffn_backward(df, cache, w1, w2):
    h, z, r = cache
    dw2 = tm.fold_outer(df, r)
    dz = (df @ w2) * (z > 0.0)
    return dz @ w1.T, tm.fold_outer(h, dz), dw2


def _ref_adam_update(model, grads, opt):
    cfg = model.config
    opt.t += 1
    lr = cfg.lr
    if cfg.warmup_steps > 0:
        lr *= min(1.0, opt.t / cfg.warmup_steps)
    if cfg.clip_norm > 0:
        norm = np.sqrt(sum(tm._square_sum(k, g) for k, g in grads.items()))
        if norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
            grads = {k: g * scale for k, g in grads.items()}
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.eps
    c1 = 1.0 - b1**opt.t
    c2 = 1.0 - b2**opt.t
    for k, g in grads.items():
        opt.m[k] = b1 * opt.m[k] + (1.0 - b1) * g
        opt.v[k] = b2 * opt.v[k] + (1.0 - b2) * (g * g)
        model.params[k] -= lr * (opt.m[k] / c1) / (np.sqrt(opt.v[k] / c2) + eps)


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(3, 37, 16), (4, 16)])  # training, decode
def test_layer_norm_and_ffn_equal_their_expression_forms(shape):
    rng = make_rng(21)
    d, f = shape[-1], 3 * shape[-1]
    x = rng.normal(0.0, 2.0, shape) + 0.5
    g, b = rng.normal(1.0, 0.3, (1, d)), rng.normal(0.0, 0.3, (1, d))
    w1, w2 = rng.normal(0.0, 0.3, (d, f)), rng.normal(0.0, 0.3, (d, f))
    dy = rng.normal(size=shape)

    y, cache = tm.layer_norm_forward(x, g, b)
    y_ref, cache_ref = _ref_layer_norm_forward(x, g, b)
    _assert_all_equal((y, *cache), (y_ref, *cache_ref))
    _assert_all_equal(tm.layer_norm_backward(dy, cache), _ref_layer_norm_backward(dy, cache_ref))

    out, fcache = tm.ffn_forward(y, w1, w2)
    out_ref, (h, z, r) = _ref_ffn_forward(y, w1, w2)
    assert np.array_equal(out, out_ref)
    _assert_all_equal(fcache, (h, r))  # the tape drops the pre-activation
    assert (z <= 0.0).any()  # the relu mask is exercised
    _assert_all_equal(tm.ffn_backward(dy, fcache, w1, w2), _ref_ffn_backward(dy, (h, z, r), w1, w2))


def test_adam_update_equals_its_expression_form_with_clipping():
    cfg = lm_config(kind="mlp", n=3, clip_norm=0.5, warmup_steps=2)
    model, ref = tm.ToyLM(cfg), tm.ToyLM(cfg)
    opt, opt_ref = tm.adam_init(model), tm.adam_init(ref)
    rng = make_rng(4)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
        norm = np.sqrt(sum(tm._square_sum(k, g) for k, g in grads.items()))
        assert norm > cfg.clip_norm  # the clip scales every step
        _ref_adam_update(ref, {k: g.copy() for k, g in grads.items()}, opt_ref)
        tm.adam_update(model, grads, opt)
    for k in model.params:
        assert np.array_equal(model.params[k], ref.params[k]), k
        assert np.array_equal(opt.m[k], opt_ref.m[k]), k
        assert np.array_equal(opt.v[k], opt_ref.v[k]), k


def test_adam_keeps_the_pre_clip_gradient_norm():
    cfg = lm_config(kind="mlp", n=3, clip_norm=0.5, warmup_steps=2)
    model, ref = tm.ToyLM(cfg), tm.ToyLM(cfg)
    opt, opt_ref = tm.adam_init(model), tm.adam_init(ref)
    assert opt.grad_norm is None
    rng = make_rng(6)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
        unclipped = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        _ref_adam_update(ref, {k: g.copy() for k, g in grads.items()}, opt_ref)
        tm.adam_update(model, grads, opt)
        assert opt.grad_norm == pytest.approx(unclipped, rel=1e-12)
        assert opt.grad_norm > cfg.clip_norm  # the norm before the clip
    # keeping the norm moves no training bit
    for k in model.params:
        assert np.array_equal(model.params[k], ref.params[k]), k


def test_numeric_error_names_the_layer_site_and_strategy():
    model = tm.ToyLM(lm_config(kind="mlp", n=3))
    model.params["dec1.attn.wo"][0, 0] = np.nan
    tokens = make_rng(8).integers(0, 11, size=(2, 6))
    message = "dec1 attn (causal, mlp): attention output contains NaN/Inf"
    with pytest.raises(NumericError, match=re.escape(message)) as batch:
        model.forward(tokens)
    with pytest.raises(NumericError, match=re.escape(message)) as step:
        model.step(tokens[:, 0], model.init_state(2))
    for err in (batch.value, step.value):
        assert isinstance(err.__cause__, NumericError)
        assert str(err.__cause__) == "attention output contains NaN/Inf"


def test_embedding_scatter_equals_add_at():
    rng = make_rng(5)
    lm, s2s = tm.ToyLM(lm_config(kind="mlp", n=3)), tm.ToySeq2Seq(seq2seq_config())
    d = lm.config.d_model
    # few symbols, so every embedding row collects many repeated additions
    dec, enc = rng.integers(0, 4, size=(3, 9)), rng.integers(0, 4, size=(3, 6))
    ddec, denc = rng.normal(size=dec.shape + (d,)), rng.normal(size=enc.shape + (d,))
    for model, pairs in ((lm, [(dec, ddec)]), (s2s, [(dec, ddec), (enc, denc)])):
        grads = {}
        model._embed_backward(grads, *pairs)
        tok, pos = np.zeros_like(grads["tok_emb"]), np.zeros_like(grads["pos_emb"])
        for tokens, dx in pairs:
            np.add.at(tok, tokens, dx)
            pos[: tokens.shape[1]] += dx.sum(axis=0)
        assert np.array_equal(grads["tok_emb"], tok)
        assert np.array_equal(grads["pos_emb"], pos)


def test_training_step_peak_memory_is_bounded():
    # tracemalloc peak of one train step of an mlp ToyLM at N = 256: the
    # tape holds only what the backward cannot cheaply rebuild, the backward
    # drops each layer's tape as it goes, reuses its score-sized buffers and
    # makes each gradient where it lands.  Read 5.26 MB here; 7.37 MB when
    # the tape also kept the scores and the carried memories and the
    # backward began from a zero-filled gradient dict, and 11.62 MB when the
    # tape kept the chunk-square arrays and every tape lived to the end.
    payload = 127
    cfg = tm.ToyModelConfig(
        layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=2 * payload + 2,
        causal=tm.SiteSpec(StrategySpec(kind="mlp"), 32), batch_size=1,
    )
    model = tm.ToyLM(cfg, rng=make_rng(1))
    sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=payload, max_len=payload, vocab=32))
    tokens, mask = sampler.sample(1, make_rng(2))
    opt = tm.adam_init(model)
    tm.train_step(model, tokens, mask, opt)
    tracemalloc.start()
    try:
        tm.train_step(model, tokens, mask, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.75e6, f"one train step peaked at {peak / 1e6:.2f} MB"


def test_training_keeps_its_heap_mapped():
    # glibc would trim the heap the backward frees and fault it back in on
    # the next step: thousands of minor faults per step at N = 514
    resource = pytest.importorskip("resource")
    if not tm._keep_heap_mapped():
        pytest.skip("no glibc mallopt")
    payload = 256
    cfg = tm.ToyModelConfig(
        layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=2 * payload + 2,
        causal=tm.SiteSpec(StrategySpec(kind="mlp"), 32), batch_size=1,
    )
    model = tm.ToyLM(cfg, rng=make_rng(0))
    sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=payload, max_len=payload, vocab=32))
    tokens, mask = sampler.sample(1, make_rng(1))
    opt = tm.adam_init(model)
    for _ in range(2):
        tm.train_step(model, tokens, mask, opt)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        tm.train_step(model, tokens, mask, opt)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 200, f"{faults} minor faults over 5 training steps"
