"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`, and in the
assertion message on failure).  The complexity and training-parity criteria
run real sweeps and really train models, so this module takes tens of
minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

from boundedattn import bench as bm
from boundedattn import toymodel as tm
from boundedattn import verify
from boundedattn.attention import StrategySpec
from boundedattn.numerics import make_rng


def _line(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _report(name, ok, detail):
    line = _line(name, ok, detail)
    assert ok, line


def _suite(name, budget_s=None):
    res = verify.SUITES[name]()
    ok = res.passed and (budget_s is None or res.seconds <= budget_s)
    extra = f", {res.seconds:.2f}s" + (f" (budget {budget_s}s)" if budget_s else "")
    _report(f"criterion {name}", ok, f"max err {res.max_err:.3e} tol {res.tolerance:.0e}{extra} {res.detail}")


def test_criterion_01_softmax_recovery():
    # full control with n = N equals exact softmax attention, 50 instances
    _suite("softmax-recovery", budget_s=5.0)


def test_criterion_02_batch_recurrent_equivalence():
    # one-shot construction == folded recurrence for every strategy;
    # window/dilated additionally equal direct attention on their spans
    _suite("batch-recurrent")


def test_criterion_03_prefix_normalized_equivalence():
    # normalized-memory causal path == renormalized-control path, every prefix
    _suite("prefix-normalization")


def test_criterion_04_pseudo_query_decomposition():
    # memory rows are pseudo-query attention summaries, incl. the scalar case
    _suite("pseudo-query")


def test_criterion_05_causality():
    # future perturbations never touch past outputs for causal-legal controls
    _suite("causality")


def test_criterion_06_gradient_checks():
    # analytic backward vs central differences on 2-layer models, < 60 s
    _suite("gradcheck", budget_s=60.0)


def test_criterion_07_normalization_invariants():
    _suite("normalization")


def test_criterion_10_parameter_tying():
    _suite("param-tying")


# --- 8. complexity reproduction ------------------------------------------------


def test_criterion_08_complexity_trends():
    t0 = time.perf_counter()
    spec = bm.BenchSpec(
        strategies=("mlp", "window", "softmax"),
        lengths=(256, 4096),
        n_values=(32,),
        batch=8,  # smaller than the CLI default 16: same ratios, fits the budget
        repetitions=3,
        warmup=32,
    )
    records = {(r.strategy, r.N): r for r in bm.run_decode_bench(spec)}
    elapsed = time.perf_counter() - t0

    ratios = {}
    for s in ("mlp", "window", "softmax"):
        ratios[s] = records[(s, 4096)].latency_median_s / records[(s, 256)].latency_median_s
    bounded_ok = ratios["mlp"] <= 1.5 and ratios["window"] <= 1.5
    softmax_ok = ratios["softmax"] >= 4.0

    # state: bounded constant in N, softmax cache exactly linear (analytic)
    state_ok = True
    for s in ("mlp", "window"):
        expect = bm.decoder_state_bytes(bm.bench_model_config(spec, s, 32, 4096), 0)
        state_ok &= records[(s, 256)].state_bytes == records[(s, 4096)].state_bytes == expect
    sm_cfg = bm.bench_model_config(spec, "softmax", 32, 4096)
    dh = sm_cfg.d_model // sm_cfg.heads
    for N in (256, 4096):
        analytic = 2 * N * dh * sm_cfg.heads * sm_cfg.layers * 8
        state_ok &= records[("softmax", N)].state_bytes == analytic == bm.decoder_state_bytes(sm_cfg, N)

    budget_ok = elapsed < 600.0
    _report(
        "criterion complexity-trends",
        bounded_ok and softmax_ok and state_ok and budget_ok,
        f"latency ratio N=4096/256: mlp {ratios['mlp']:.2f}, window {ratios['window']:.2f} "
        f"(<=1.5); softmax {ratios['softmax']:.2f} (>=4); state bytes analytic-exact: {state_ok}; "
        f"{elapsed:.0f}s (budget 600s)",
    )


# --- 9. toy training parity -------------------------------------------------------
#
# The fixture protocol mirrors the translation setup the memory-size finding
# comes from: a sequence-to-sequence model whose decoder cross and causal
# attention are swapped for the learned bounded-memory control while the
# encoder keeps softmax attention.  "n=32" is the 32/32 cross/causal pair and
# "n=8" shrinks the causal memory to 8 with cross kept at 32.


COPY_TASK = tm.TaskSpec(kind="copy", min_len=64, max_len=64, vocab=32)


def _train_copy_seq2seq(cross_kind, cross_n, causal_kind, causal_n, seed=0):
    cfg = tm.ToyModelConfig(
        layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=130,
        causal=tm.SiteSpec(StrategySpec(kind=causal_kind), causal_n),
        encoder=tm.SiteSpec(StrategySpec(kind="softmax"), 1),
        cross=tm.SiteSpec(StrategySpec(kind=cross_kind), cross_n),
        batch_size=8, seed=seed,
    )
    model = tm.ToySeq2Seq(cfg, rng=make_rng(seed))
    tm.train(model, COPY_TASK, 2000, make_rng(seed))
    acc, _ = tm.evaluate(model, tm.TaskSampler(COPY_TASK), 8, make_rng(77_000))
    return model, acc


def test_criterion_09_training_parity():
    # protocol: the softmax baseline on the copy task (length 64, vocab 32,
    # 2k steps, fixed seed) sets the fixture F; the learned bounded-memory
    # runs must land within 1% (n=32) and 3% (causal n=8) absolute of F;
    # every check runs and prints its line before any of them fails the test
    baseline, fixture = _train_copy_seq2seq("softmax", 1, "softmax", 1)
    lines = [_line("criterion training-baseline", fixture >= 0.99,
                   f"softmax copy held-out accuracy F = {fixture:.4f} (>= 0.99)")]

    # a trained copy model echoes its source through streaming greedy decode
    src = make_rng(123_456).integers(2, 32, size=(4, 64))
    echoed = tm.greedy_decode(baseline, src, 64)
    echo_ok = np.array_equal(echoed, src)
    lines.append(_line("criterion training-echo", echo_ok,
                       f"greedy decode echoes the source exactly: {echo_ok}"))

    _, acc32 = _train_copy_seq2seq("mlp", 32, "mlp", 32)
    lines.append(_line("criterion training-parity-n32", acc32 >= fixture - 0.01,
                       f"learned control 32/32 accuracy {acc32:.4f} vs fixture {fixture:.4f} (within 1%)"))

    _, acc8 = _train_copy_seq2seq("mlp", 32, "mlp", 8)
    lines.append(_line("criterion training-parity-n8", acc8 >= fixture - 0.03,
                       f"learned control 32/8 accuracy {acc8:.4f} vs fixture {fixture:.4f} (within 3%)"))
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert not failed, "\n".join(failed)
