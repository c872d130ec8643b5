"""The four benchmark workloads, driven through the library's public API.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  The seed makes the inputs (model weights,
task batches, decode prompts); the library sees only those inputs.

* ``train_copy``: seq2seq copy training, the acceptance training config.
  Short sequences, so layer norm, FFN, loss and Adam carry most of a step;
  all three attention sites run.  Bypasses long-sequence attention costs.
* ``train_long``: LM copy training at N = 1024 on an additive (``mlp``) and
  a queue (``window``) causal model in lockstep.  The quadratic causal
  kernels, their tapes and the queue scatter dominate.
* ``decode_stream``: greedy streaming decode with four strategies side by
  side.  Runs the recurrent path (``stream_step``, ``phi_at``,
  ``init_attn_state``) that training never touches.
* ``verify``: every verification suite.  Thousands of tiny calls, so
  interpreter overhead sets the cost, not BLAS.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from boundedattn import bench, verify
from boundedattn import toymodel as tm
from boundedattn.attention import StrategySpec
from boundedattn.numerics import make_rng

DECODE_KINDS = ("mlp", "window", "random", "softmax")
STREAM_TOL = 1e-8  # streaming vs batch logits, the tolerance the model tests use
SLOTS = 32
REF_LOOP = 30_000  # iterations of the reference loop, about 2 ms
REF_PERIOD_S = 0.25


@dataclass(frozen=True)
class Sizes:
    copy_len: int = 64
    copy_batch: int = 8
    long_payload: int = 511  # sequence length 2 * 511 + 2 = 1024
    long_batch: int = 1
    decode_tokens: int = 512
    decode_batch: int = 4
    decode_prompt: int = 8
    decode_d_model: int = 256
    late_early_window: int = 256
    # gradcheck takes ~99% of a verify pass, so it runs once after each
    # measured window and the other suites repeat: many short samples per run
    verify_once: tuple[str, ...] = ("gradcheck",)
    verify_repeat: tuple[str, ...] = tuple(s for s in verify.SUITES if s != "gradcheck")


class Reference:
    """A fixed pure-Python loop, timed again at most every REF_PERIOD_S.

    On a shared machine the CPU speed can switch between levels far apart
    (1.6x was seen on a 2-core VM) every few seconds, for seconds at a
    time.  An op's time divided by this loop's time taken around it cancels
    that drift.  The loop allocates no GC-tracked objects, so the library's
    heap does not change its cost, and it calls nothing in the library.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._time()

    def _time(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(REF_LOOP):
            s += i * i
        self.at = time.perf_counter()
        self.samples.append(self.at - t0)

    def sample(self) -> float:
        if time.perf_counter() - self.at > REF_PERIOD_S:
            self._time()
        return self.samples[-1]

    def around(self, before: float) -> float:
        """Reference time for an op that started when ``before`` was sampled."""
        return (before + self.sample()) / 2


class Outcome:
    """Samples and failures from one measured loop and its checks."""

    def __init__(self):
        self.reference = Reference()
        self.op_s: list[float] = []
        self.op_ref: list[float] = []  # op time over the reference loop time
        self.parts: dict[str, list] = {}  # per-model or per-suite samples
        self.attempted = 0
        self.failures: list[dict] = []
        self.checks: list[dict] = []
        self.wall_s = 0.0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failures.append({
            "what": what,
            "type": type(exc).__name__,
            "message": str(exc),
            "where": traceback.format_exception(exc)[-2].strip() if exc.__traceback__ else "",
        })

    def add_op(self, dt: float, scaled: float) -> None:
        """Record one op: seconds, and the same over the reference time."""
        self.op_s.append(dt)
        self.op_ref.append(scaled)

    def check(self, what: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.checks.append({"what": what, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failures.append({"what": what, "type": "CheckFailed", "message": detail, "where": ""})


def measure(work: "Workload", seconds: float, out: Outcome, once: bool = True) -> None:
    """Run whole units (a train step, a decode pass, a verify pass) until the
    next would end past ``seconds``, always at least one; then, unless
    ``once`` is false, ``work.once``.  An exception is recorded as a failure
    and ends the loop."""
    t0 = time.perf_counter()
    try:
        while True:
            u0 = time.perf_counter()
            work.unit(out)
            now = time.perf_counter()
            if (now - t0) + (now - u0) > seconds:
                break
    except Exception as exc:  # recorded and reported, never swallowed
        out.fail(work.unit_name, exc)
        once = False
    out.wall_s += time.perf_counter() - t0
    if once:
        try:
            work.once(out)
        except Exception as exc:
            out.fail(work.unit_name, exc)


def run_checks(work: "Workload", out: Outcome) -> None:
    try:
        work.checks(out)
    except Exception as exc:
        out.attempted += 1
        out.fail("checks", exc)


def p50(xs) -> float:
    return float(statistics.median(xs))


def tail(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 11:
        return None
    return {"value": float(sorted(xs)[n - 11]), "percentile": 100.0 * (n - 10) / n, "samples": n}


def _stream_err(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class Workload:
    name = ""
    unit_name = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def build(self) -> None:
        """Models, optimizers and inputs: the timed set-up."""

    def once(self, out: Outcome) -> None:
        """Work done once after each measured window, outside its wall time."""

    def unit(self, out: Outcome) -> None:
        raise NotImplementedError

    def checks(self, out: Outcome) -> None:
        raise NotImplementedError

    def report(self, out: Outcome) -> dict:
        return {}

    def layer_metrics(self, out: Outcome) -> dict:
        return {}


class TrainCopy(Workload):
    name = "train_copy"
    unit_name = "train step"

    def build(self):
        s = self.sizes
        cfg = tm.ToyModelConfig(
            layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=130,
            causal=tm.SiteSpec(StrategySpec(kind="mlp"), SLOTS),
            encoder=tm.SiteSpec(StrategySpec(kind="softmax"), 1),
            cross=tm.SiteSpec(StrategySpec(kind="mlp"), SLOTS),
            batch_size=s.copy_batch, seed=self.seed,
        )
        self.model = tm.ToySeq2Seq(cfg, rng=make_rng(self.seed))
        self.opt = tm.adam_init(self.model)
        self.sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=s.copy_len, max_len=s.copy_len, vocab=32))
        self.data = make_rng(self.seed + 1)
        self.tokens_per_step = s.copy_batch * 2 * s.copy_len  # source + target

    def unit(self, out):
        src, tgt_in, tgt_out, mask = self.sampler.sample_pair(self.sizes.copy_batch, self.data)
        out.attempted += 1
        ref = out.reference.sample()
        t0 = time.perf_counter()
        loss, _ = tm.seq2seq_train_step(self.model, src, tgt_in, tgt_out, mask, self.opt)
        dt = time.perf_counter() - t0
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss is {loss} at step {self.opt.t}")
        out.add_op(dt, dt / out.reference.around(ref))
        self.last = (src, tgt_in)

    def checks(self, out):
        src, tgt_in = self.last
        batch, _ = self.model.forward(src, tgt_in)
        state = self.model.init_state(src)
        stream = np.stack([self.model.step(tgt_in[:, t], state) for t in range(tgt_in.shape[1])], axis=1)
        err = _stream_err(batch, stream)
        out.check("stream==batch seq2seq", err <= STREAM_TOL, f"max |diff| {err:.3e} (tol {STREAM_TOL:.0e})")

    def report(self, out):
        return _train_report(out, self.tokens_per_step)


class TrainLong(Workload):
    name = "train_long"
    unit_name = "train step"
    kinds = ("mlp", "window")

    def build(self):
        s = self.sizes
        N = 2 * s.long_payload + 2
        self.models, self.opts = {}, {}
        for kind in self.kinds:
            cfg = tm.ToyModelConfig(
                layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=N,
                causal=tm.SiteSpec(StrategySpec(kind=kind), SLOTS),
                batch_size=s.long_batch, seed=self.seed,
            )
            self.models[kind] = tm.ToyLM(cfg, rng=make_rng(self.seed))
            self.opts[kind] = tm.adam_init(self.models[kind])
        self.sampler = tm.TaskSampler(
            tm.TaskSpec(kind="copy", min_len=s.long_payload, max_len=s.long_payload, vocab=32)
        )
        self.data = make_rng(self.seed + 1)
        self.tokens_per_step = s.long_batch * N * len(self.kinds)

    def unit(self, out):
        tokens, mask = self.sampler.sample(self.sizes.long_batch, self.data)
        out.attempted += 1
        total = scaled = 0.0
        for kind, model in self.models.items():
            ref = out.reference.sample()
            t0 = time.perf_counter()
            loss, _ = tm.train_step(model, tokens, mask, self.opts[kind])
            dt = time.perf_counter() - t0
            if not math.isfinite(loss):
                raise FloatingPointError(f"{kind} loss is {loss} at step {self.opts[kind].t}")
            out.parts.setdefault(kind, []).append(dt)
            total += dt
            scaled += dt / out.reference.around(ref)
        out.add_op(total, scaled)
        self.last = tokens

    def checks(self, out):
        tokens = self.last
        for kind, model in self.models.items():
            batch, _ = model.forward(tokens)
            state = model.init_state(tokens.shape[0], capacity=tokens.shape[1])
            stream = np.stack([model.step(tokens[:, t], state) for t in range(tokens.shape[1])], axis=1)
            err = _stream_err(batch, stream)
            out.check(f"stream==batch {kind}", err <= STREAM_TOL, f"max |diff| {err:.3e} (tol {STREAM_TOL:.0e})")

    def report(self, out):
        rep = _train_report(out, self.tokens_per_step)
        for kind, xs in out.parts.items():
            rep[f"train.{kind}_step_ms_p50"] = (1e3 * p50(xs), "ms")
        return rep


def _train_report(out, tokens_per_step):
    rep = {}
    if out.op_s:
        rep["train_step_ms_p50"] = (1e3 * p50(out.op_s), "ms")
        rate = tokens_per_step * len(out.op_s) / out.wall_s
        rep["train_tokens_per_s"] = (rate, "1/s")
        rep["train_us_per_token"] = (1e6 / rate, "us")
    t = tail([1e3 * x for x in out.op_s])
    rep["train_step_ms_tail"] = (t, "ms")
    return rep


class DecodeStream(Workload):
    name = "decode_stream"
    unit_name = "decode pass"

    def build(self):
        s = self.sizes
        T = s.decode_tokens
        spec = bench.BenchSpec(
            strategies=DECODE_KINDS, lengths=(T,), n_values=(SLOTS,), batch=s.decode_batch,
            d_model=s.decode_d_model, seed=self.seed,
        )
        self.models = {k: tm.ToyLM(bench.bench_model_config(spec, k, SLOTS, T)) for k in DECODE_KINDS}
        vocab = spec.vocab
        self.prompt = make_rng(self.seed + 1).integers(2, vocab, size=(s.decode_batch, s.decode_prompt))
        self.fed = {k: np.zeros((s.decode_batch, T), dtype=np.intp) for k in DECODE_KINDS}
        self.logits = {k: np.zeros((s.decode_batch, T, vocab)) for k in DECODE_KINDS}
        self.first_fed = None
        self.passes_agree = True
        self.states = self._init_states()

    def _init_states(self):
        s = self.sizes
        return {k: m.init_state(batch=s.decode_batch, capacity=s.decode_tokens) for k, m in self.models.items()}

    def unit(self, out):
        s = self.sizes
        P = s.decode_prompt
        states = self.states = self._init_states()
        nxt = {}
        per_kind = {k: [] for k in DECODE_KINDS}
        refs = []
        clock = time.perf_counter
        for t in range(s.decode_tokens):
            out.attempted += 1
            ref = out.reference.sample()
            round_s = 0.0
            for k, model in self.models.items():
                tok = self.prompt[:, t] if t < P else nxt[k]
                t0 = clock()
                logits = model.step(tok, states[k])
                nxt[k] = logits.argmax(axis=-1)
                dt = clock() - t0
                round_s += dt
                per_kind[k].append(dt)
                self.fed[k][:, t] = tok
                self.logits[k][:, t] = logits
            refs.append(out.reference.around(ref))
            out.add_op(round_s, round_s / refs[-1])
        for k, xs in per_kind.items():
            out.parts.setdefault(k, []).append(xs)
        out.parts.setdefault("ref", []).append(refs)
        if self.first_fed is None:
            self.first_fed = {k: v.copy() for k, v in self.fed.items()}
        else:
            self.passes_agree &= all(np.array_equal(self.first_fed[k], v) for k, v in self.fed.items())

    def checks(self, out):
        T = self.sizes.decode_tokens
        for k, model in self.models.items():
            batch, _ = model.forward(self.fed[k])
            err = _stream_err(batch, self.logits[k])
            out.check(f"stream==batch {k}", err <= STREAM_TOL, f"max |diff| {err:.3e} (tol {STREAM_TOL:.0e})")
            got = self.states[k].size_bytes()
            want = bench.decoder_state_bytes(model.config, T)
            out.check(f"state bytes {k}", got == want, f"size_bytes {got}, decoder_state_bytes {want}")
        out.check("passes decode the same tokens", self.passes_agree, "greedy decode is deterministic")

    def state_bytes(self) -> dict:
        """Per strategy: counted bytes, allocated bytes, never-written bytes.

        All per sequence, with the batch divided out as ``size_bytes`` does.
        Allocated counts every array the states hold, the unbatched
        written-slot mask included.
        """
        out = {}
        for k, st in self.states.items():
            arrays = [
                getattr(a, f.name)
                for a in st.attn
                for f in dataclasses.fields(a)
                if isinstance(getattr(a, f.name), np.ndarray)
            ]
            B = self.sizes.decode_batch
            out[k] = {
                "counted": st.size_bytes(),
                "allocated": sum(a.nbytes for a in arrays) // B,
                "unwritten": sum(a.nbytes for a in arrays if not a.any()) // B,
            }
        return out

    def report(self, out):
        rep = {}
        if out.op_s:
            rep["decode_token_ms_p50"] = (1e3 * p50(out.op_s), "ms")
            streams = len(DECODE_KINDS) * self.sizes.decode_batch
            rep["decode_tokens_per_s"] = (streams * len(out.op_s) / out.wall_s, "1/s")
        rep["decode_token_ms_tail"] = (tail([1e3 * x for x in out.op_s]), "ms")
        rep["state_bytes_per_seq"] = (sum(v["counted"] for v in self.state_bytes().values()), "bytes")
        return rep

    def layer_metrics(self, out):
        m = {}
        W = min(self.sizes.late_early_window, self.sizes.decode_tokens // 2)
        for k in DECODE_KINDS:
            passes = out.parts.get(k, [])
            pooled = [x for xs in passes for x in xs]
            # the ratio is taken on times over the reference, so that a
            # machine speed change within a pass does not show as a trend
            scaled = [[x / r for x, r in zip(xs, refs)] for xs, refs in zip(passes, out.parts.get("ref", []))]
            early = [x for xs in scaled for x in xs[:W]]
            late = [x for xs in scaled for x in xs[-W:]]
            m[f"decode.step_ms_p50.{k}"] = (1e3 * p50(pooled) if pooled else 0.0, "ms")
            m[f"decode.late_early.{k}"] = (p50(late) / p50(early) if passes else 0.0, "ratio")
        for k, b in self.state_bytes().items():
            m[f"attention.state_bytes.{k}"] = (b["counted"], "bytes/seq")
            m[f"attention.state_alloc_bytes.{k}"] = (b["allocated"], "bytes/seq")
            m[f"attention.state_unwritten_bytes.{k}"] = (b["unwritten"], "bytes/seq")
        return m


class Verify(Workload):
    name = "verify"
    unit_name = "verify pass"

    def _suite(self, suite, out) -> float:
        out.attempted += 1
        t0 = time.perf_counter()
        res = verify.run_suites([suite])[0]
        dt = time.perf_counter() - t0
        out.parts.setdefault(suite, []).append(dt)
        if not res.passed:
            out.failures.append({"what": suite, "type": "SuiteFailed", "message": res.line(), "where": ""})
        return dt

    def once(self, out):
        for suite in self.sizes.verify_once:
            self._suite(suite, out)

    def unit(self, out):
        ref = out.reference.sample()
        total = sum(self._suite(suite, out) for suite in self.sizes.verify_repeat)
        out.add_op(total, total / out.reference.around(ref))
        # ToyLM and its _Stack reference each other, so the models a suite
        # builds wait for the cycle collector; collect them so that peak RSS
        # does not depend on how many passes fit in the window
        gc.collect()

    def checks(self, out):
        """Suite verdicts are checked as each suite runs."""

    def report(self, out):
        rep = {f"verify.{suite}_s": (p50(xs), "s") for suite, xs in out.parts.items()}
        if out.op_s:
            once = sum(p50(out.parts[s]) for s in self.sizes.verify_once if s in out.parts)
            rep["verify_s"] = (once + p50(out.op_s), "s")
        return rep


WORKLOADS = {w.name: w for w in (TrainCopy, TrainLong, DecodeStream, Verify)}
