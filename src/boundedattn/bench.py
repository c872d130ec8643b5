"""Decode microbenchmarks: per-token latency and state footprint vs length.

Greedy streaming decode through the toy model, one timed record per
(strategy, N, n) cell.  The bounded-memory strategies should show flat
per-token latency and constant state bytes as N grows; the softmax baseline
reads a cache that grows with the generated length, so its per-token latency
climbs roughly linearly and its state linearly in N.

The default bench model is wider than the training toy (d_model 256) so the
matrix work dominates interpreter overhead; batch decoding (default 16
streams) amortizes per-call dispatch the same way.  Timers are monotonic,
setup is excluded, and the leading warmup tokens of every run are untimed.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .attention import StrategySpec, control_for
from .toymodel import BOS, SiteSpec, ToyLM, ToyModelConfig

CSV_HEADER = "strategy,N,n,batch,latency_median_s,latency_p90_s,state_bytes,wall_s,failure"

BENCH_STRATEGIES = ("softmax", "mlp", "window", "linformer", "random", "compressive")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class BenchSpec:
    strategies: tuple[str, ...] = ("mlp", "window", "softmax")
    lengths: tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    n_values: tuple[int, ...] = (32,)
    batch: int = 16
    repetitions: int = 3
    warmup: int = 32  # untimed leading tokens of each run
    layers: int = 2
    d_model: int = 256
    heads: int = 4
    ffn_mult: int = 2
    vocab: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 3:
            raise ValueError("need at least 3 repetitions")
        if list(self.lengths) != sorted(self.lengths):
            raise ValueError("lengths must be sorted ascending")
        for s in self.strategies:
            if s == "dilated":
                raise ValueError("the two-queue dilated variant is correctness-only; "
                                 "it is excluded from bench sweeps")
            if s not in BENCH_STRATEGIES:
                raise ValueError(f"unknown bench strategy {s!r}")


@dataclass
class BenchRecord:
    strategy: str
    N: int
    n: int
    batch: int
    latency_median_s: float
    latency_p90_s: float
    state_bytes: int
    wall_s: float
    failure: str = ""  # "ExceptionType: message" of a cell that failed, else empty

    @property
    def failed(self) -> bool:
        return bool(self.failure)

    def __post_init__(self):
        if not self.failed:
            if min(self.latency_median_s, self.latency_p90_s, self.wall_s) < 0:
                raise ValueError("negative timing")
            if self.latency_median_s > self.latency_p90_s:
                raise ValueError("median exceeds p90")


def bench_model_config(spec: BenchSpec, strategy: str, n: int, capacity: int) -> ToyModelConfig:
    if strategy == "softmax":
        site = SiteSpec(StrategySpec(kind="softmax"), 1)
    elif strategy == "linformer":
        site = SiteSpec(StrategySpec(kind="linformer", max_len=capacity), n)
    elif strategy == "random":
        site = SiteSpec(StrategySpec(kind="random", seed=spec.seed, max_len=capacity), n)
    elif strategy == "compressive":
        ratio = max(1, (capacity + n - 1) // n)
        site = SiteSpec(StrategySpec(kind="compressive", ratio=ratio), n)
    else:
        site = SiteSpec(StrategySpec(kind=strategy), n)
    return ToyModelConfig(
        layers=spec.layers,
        d_model=spec.d_model,
        heads=spec.heads,
        ffn_mult=spec.ffn_mult,
        vocab=spec.vocab,
        max_positions=capacity,
        causal=site,
        seed=spec.seed,
    )


def _timed_decode(model: ToyLM, batch: int, length: int, warmup: int):
    """Greedy-decode ``length`` tokens; returns (per-token seconds, state, wall).

    Warmup is clamped to half the run so short sweeps still produce samples.
    """
    warmup = min(warmup, length // 2)
    state = model.init_state(batch=batch, capacity=length)
    tok = np.full(batch, BOS, dtype=np.intp)
    times = []
    wall0 = time.perf_counter()
    for t in range(length):
        t0 = time.perf_counter()
        logits = model.step(tok, state)
        tok = logits.argmax(axis=-1)
        t1 = time.perf_counter()
        if t >= warmup:
            times.append(t1 - t0)
    wall = time.perf_counter() - wall0
    return np.array(times), state, wall


def run_decode_bench(spec: BenchSpec, progress=None) -> list[BenchRecord]:
    """One record per (strategy, n, N), in that deterministic order.

    A cell that fails (overflow, NaN logits, out-of-memory) is recorded with
    its exception type and message in ``failure`` and the sweep continues.
    """
    records = []
    for strategy in spec.strategies:
        for n in spec.n_values:
            capacity = max(spec.lengths)
            model = ToyLM(bench_model_config(spec, strategy, n, capacity))
            for length in spec.lengths:
                if progress:
                    progress(f"{strategy} n={n} N={length}")
                try:
                    times, state, wall = [], None, 0.0
                    for _ in range(spec.repetitions):
                        t, state, w = _timed_decode(model, spec.batch, length, spec.warmup)
                        times.append(t)
                        wall += w
                    pooled = np.concatenate(times)
                    records.append(
                        BenchRecord(
                            strategy=strategy,
                            N=length,
                            n=n,
                            batch=spec.batch,
                            latency_median_s=float(np.median(pooled)),
                            latency_p90_s=float(np.percentile(pooled, 90)),
                            state_bytes=state.size_bytes(),
                            wall_s=wall,
                        )
                    )
                except (MemoryError, FloatingPointError, ArithmeticError, ValueError) as e:
                    records.append(BenchRecord(
                        strategy, length, n, spec.batch, 0.0, 0.0, 0, 0.0,
                        failure=f"{type(e).__name__}: {e}",
                    ))
    return records


# --- state footprint ---------------------------------------------------------


def decoder_state_bytes(config: ToyModelConfig, length: int) -> int:
    """Analytic per-sequence decode state size after ``length`` tokens."""
    dh = config.d_model // config.heads
    n = config.causal.n
    control = control_for(n, config.causal.strategy)
    if control is None:
        per_layer = config.heads * 2 * length * dh  # the filled key/value cache
    elif control.stride:
        per_layer = config.heads * 2 * control.stride * n * dh  # a ring of stride * n key/value slots
    else:
        per_layer = config.heads * 2 * n * dh + n  # slot matrices plus the heads' one normalizer
    return config.layers * per_layer * 8


def run_memory_audit(model: ToyLM, length: int) -> int:
    """Analytic state bytes at ``length``, cross-checked against allocation.

    Steps a live decode state ``length`` tokens and compares its measured
    footprint with the formula; a mismatch raises.
    """
    expect = decoder_state_bytes(model.config, length)
    state = model.init_state(batch=1, capacity=max(length, 1))
    tok = np.zeros(1, dtype=np.intp)
    for _ in range(length):
        logits = model.step(tok, state)
        tok = logits.argmax(axis=-1)
    got = state.size_bytes()
    if got != expect:
        raise AssertionError(f"state audit mismatch: measured {got}, formula {expect}")
    return expect


def environment() -> dict:
    """What a decode latency depends on besides the code and the config.

    A decode step multiplies a few rows by each weight, and which BLAS
    kernel runs that product (and on how many threads) sets much of its
    cost, so a latency is comparable only with the same library and
    settings.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # the layout differs across numpy versions
        blas = {"name": None, "version": None}
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


# --- CSV ------------------------------------------------------------------------


def emit_csv(records: list[BenchRecord], path) -> None:
    """Write records (header above, one row each); refuses an empty list.

    Floats are written as ``repr``; a failure text with commas, quotes or
    newlines is quoted, so :func:`read_csv` reads every field back exactly.
    """
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        w = csv.writer(f, lineterminator="\n")
        for r in records:
            w.writerow([r.strategy, r.N, r.n, r.batch, repr(r.latency_median_s),
                        repr(r.latency_p90_s), r.state_bytes, repr(r.wall_s), r.failure])


def read_csv(path) -> list[BenchRecord]:
    with open(path, encoding="utf-8", newline="") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        out = []
        for s, N, n, batch, med, p90, sb, wall, failure in csv.reader(f):
            out.append(BenchRecord(
                s, int(N), int(n), int(batch), float(med), float(p90), int(sb), float(wall), failure
            ))
    return out
