import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boundedattn import bench as bm
from boundedattn.attention import StrategySpec
from boundedattn.toymodel import SiteSpec, ToyLM, ToyModelConfig


def small_spec(**kw):
    defaults = dict(
        strategies=("mlp", "softmax"),
        lengths=(8, 16),
        n_values=(4,),
        batch=2,
        repetitions=3,
        warmup=2,
        layers=2,
        d_model=16,
        heads=2,
        ffn_mult=2,
        vocab=16,
    )
    defaults.update(kw)
    return bm.BenchSpec(**defaults)


def test_records_cover_the_cartesian_grid_in_order():
    spec = small_spec(strategies=("mlp", "window"), n_values=(2, 4))
    records = bm.run_decode_bench(spec)
    cells = [(r.strategy, r.n, r.N) for r in records]
    expect = [(s, n, N) for s in ("mlp", "window") for n in (2, 4) for N in (8, 16)]
    assert cells == expect
    for r in records:
        assert not r.failed
        assert r.latency_median_s <= r.latency_p90_s
        assert r.wall_s >= 0


def test_bounded_state_constant_softmax_state_linear():
    spec = small_spec()
    records = bm.run_decode_bench(spec)
    mlp = {r.N: r.state_bytes for r in records if r.strategy == "mlp"}
    sm = {r.N: r.state_bytes for r in records if r.strategy == "softmax"}
    assert mlp[8] == mlp[16]
    assert sm[16] == 2 * sm[8]
    dh = spec.d_model // spec.heads
    assert sm[8] == 2 * 8 * dh * spec.heads * spec.layers * 8
    assert mlp[8] == spec.layers * (spec.heads * 2 * 4 * dh + 4) * 8  # one normalizer per layer


def test_per_kind_bench_configs_decode_and_count_their_state():
    # linformer and random take their max_len from the sweep's capacity and
    # compressive a ratio that fits that capacity into n slots
    spec = small_spec(strategies=("linformer", "random", "compressive"), batch=1)
    records = bm.run_decode_bench(spec)
    assert [(r.strategy, r.N) for r in records] == [
        (s, N) for s in spec.strategies for N in spec.lengths
    ]
    for r in records:
        assert not r.failed, r.failure
        config = bm.bench_model_config(spec, r.strategy, r.n, max(spec.lengths))
        assert r.state_bytes == bm.decoder_state_bytes(config, r.N)


CAUSAL_KINDS = ("softmax", "mlp", "linformer", "local_to_global", "random", "compressive",
                "window", "dilated")


def test_memory_audit_formula_matches_allocation():
    for kind in CAUSAL_KINDS:
        cfg = ToyModelConfig(
            layers=2, d_model=16, heads=2, ffn_mult=2, vocab=16, max_positions=32,
            causal=SiteSpec(StrategySpec(kind=kind), 1 if kind == "softmax" else 4),
        )
        model = ToyLM(cfg)
        got = bm.run_memory_audit(model, 12)
        assert got == bm.decoder_state_bytes(cfg, 12), kind
        # size_bytes counts every array the state holds: nothing uncounted
        state = model.init_state(batch=2, capacity=12)
        for t in range(12):
            model.step(np.full(2, t % 16), state)
        held = sum(
            getattr(a, f.name).nbytes
            for a in state.attn
            for f in dataclasses.fields(a)
            if isinstance(getattr(a, f.name), np.ndarray)
        )
        assert held // 2 == state.size_bytes() == got, kind


def test_doubling_slots_doubles_memory_portion():
    def bytes_for(n):
        cfg = ToyModelConfig(
            layers=2, d_model=16, heads=2, ffn_mult=2, vocab=16, max_positions=8,
            causal=SiteSpec(StrategySpec(kind="mlp"), n),
        )
        return bm.decoder_state_bytes(cfg, 8)

    dh = 8
    b4, b8 = bytes_for(4), bytes_for(8)
    # the ktilde/vtilde portion doubles exactly; the normalizer too
    assert b8 == 2 * b4


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(repetitions=2)
    with pytest.raises(ValueError):
        small_spec(lengths=(16, 8))
    with pytest.raises(ValueError):
        small_spec(strategies=("dilated",))
    with pytest.raises(ValueError):
        small_spec(strategies=("nonsense",))


def test_csv_round_trip(tmp_path):
    records = bm.run_decode_bench(small_spec())
    path = tmp_path / "bench.csv"
    bm.emit_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == "strategy,N,n,batch,latency_median_s,latency_p90_s,state_bytes,wall_s,failure"
    back = bm.read_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.strategy, a.N, a.n, a.batch, a.state_bytes) == (b.strategy, b.N, b.n, b.batch, b.state_bytes)
        assert a.latency_median_s == b.latency_median_s  # repr round-trip is exact
        assert a.wall_s == b.wall_s
        assert (a.failed, a.failure) == (b.failed, b.failure) == (False, "")


def test_failed_cell_keeps_its_cause_through_the_csv(tmp_path, monkeypatch):
    real = bm._timed_decode

    def timed(model, batch, N, warmup):
        if N == 16:
            raise ValueError('forced, with "quotes"\nand a second line')
        return real(model, batch, N, warmup)

    monkeypatch.setattr(bm, "_timed_decode", timed)
    records = bm.run_decode_bench(small_spec())
    assert [r.failed for r in records] == [False, True, False, True]
    assert records[1].failure == 'ValueError: forced, with "quotes"\nand a second line'
    path = tmp_path / "bench.csv"
    bm.emit_csv(records, path)
    back = bm.read_csv(path)
    assert [(r.failed, r.failure) for r in back] == [(r.failed, r.failure) for r in records]


def test_empty_records_rejected(tmp_path):
    with pytest.raises(ValueError):
        bm.emit_csv([], tmp_path / "never.csv")
    assert not (tmp_path / "never.csv").exists()


def test_latency_monotone_in_slots_within_noise():
    # median over >= 5 reps; tolerance band allows flat-but-noisy timers.  The
    # two cells' repetitions alternate, so a CPU-speed switch during the test
    # slows both cells instead of only the one that happens to be running.
    spec = small_spec(strategies=("mlp",), n_values=(2, 16), lengths=(64,),
                      repetitions=5, d_model=32, heads=2)
    models = {n: ToyLM(bm.bench_model_config(spec, "mlp", n, 64)) for n in spec.n_values}
    times = {n: [] for n in models}
    for _ in range(spec.repetitions):
        for n, model in models.items():
            times[n].append(bm._timed_decode(model, spec.batch, 64, spec.warmup)[0])
    lat = {n: float(np.median(np.concatenate(t))) for n, t in times.items()}
    assert lat[16] >= 0.8 * lat[2]


def test_the_benchmark_self_test_passes():
    # the benchmark's tracer patches library functions by name: renaming one
    # fails this run
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=Path(__file__).parents[1],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
