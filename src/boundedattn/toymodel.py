"""Desk-scale transformer LM and seq2seq built on the bounded-memory attention.

Pre-norm blocks, ReLU feed-forward, learned token and position embeddings,
no biases outside layer norms.  The attention projections, the FFN's
second matrix and the logits head are stored C-contiguous as (d_out, d_in)
and applied as ``x @ w.T``.  The FFN's first matrix ``w1`` is stored
(d_model, d_ff), the shape of ``w2``, and applied as ``x @ w1``: a decode
step multiplies a few rows by it, and OpenBLAS packs the whole weight on
every call of the ``x @ w.T`` form once rows x d_out passes 1200, as
``w1`` (d_out = d_ff) does first.  One block implementation,
``_Stack``, holds the batch forward, the backward and the streaming decode
step for any ordered list of attention sites; the LM decoder, the seq2seq
encoder and the seq2seq decoder are three instances of it.  The models add
only the embeddings and the logits head.  Parameters live in one flat
name -> array dict (every array 2-D), which keeps the optimizer, the
gradient checks and the checkpoint container uniform.  The backward pass is
the same manual chain style as the attention module.  The tapes hold only
what the backward reads: layer norm keeps (xhat, 1/std, g), the FFN keeps
(h, r), its input and its ReLU output, whose sign is the ReLU's mask.  The
backward pops each layer's tapes as it reads them.

Training tasks are synthetic (copy, reverse) or a character LM over a plain
UTF-8 corpus.  Sequences reserve token 0 as BOS and token 1 as the separator;
payload symbols use the rest of the vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import (
    AttentionConfig,
    AttnState,
    GradTape,
    LayerParams,
    StrategySpec,
    draw_weight,
    fold_outer,
    init_attn_state,
    init_strategy_weights,
    mha_backward,
    mha_forward,
    stream_step,
)
from .numerics import NumericError, check_finite, make_rng, softmax_rows

LN_EPS = 1e-5
BOS, SEP = 0, 1


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class SiteSpec:
    strategy: StrategySpec
    n: int


@dataclass(frozen=True)
class ToyModelConfig:
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_mult: int = 4
    vocab: int = 32
    max_positions: int = 130
    causal: SiteSpec = SiteSpec(StrategySpec(kind="softmax"), 1)
    encoder: SiteSpec | None = None  # seq2seq only
    cross: SiteSpec | None = None  # seq2seq only
    temperature: float | None = None  # None -> sqrt(d_head)
    tie_phi_across_layers: bool = True
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    warmup_steps: int = 100
    batch_size: int = 8
    seed: int = 0

    def site_config(self, site: str) -> AttentionConfig:
        spec = {"causal": self.causal, "encoder_self": self.encoder, "cross": self.cross}[site]
        if spec is None:
            raise ValueError(f"model has no {site} attention configured")
        return AttentionConfig(
            heads=self.heads,
            d_model=self.d_model,
            site=site,
            strategy=spec.strategy,
            n=spec.n,
            temperature=self.temperature,
        )


@dataclass(frozen=True)
class TaskSpec:
    kind: str  # copy | reverse | char_lm
    min_len: int = 64
    max_len: int = 64
    vocab: int = 32
    corpus_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("copy", "reverse", "char_lm"):
            raise ValueError(f"unknown task {self.kind!r}")
        if self.min_len > self.max_len or self.min_len < 1:
            raise ValueError("bad length range")


# --- layer norm and ffn ------------------------------------------------------------


def _ln_params(params, name, d):
    params[f"{name}.g"] = np.ones((1, d))
    params[f"{name}.b"] = np.zeros((1, d))


def _feature_mean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit: the same sum and divide
    without ndarray.mean's Python wrapper, which decode pays per layer norm."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


# The layer norm, FFN and Adam chains below write into arrays they own
# instead of allocating one temporary per operation.  Each keeps the
# operations and their order of the plain expression, so the results are
# bit for bit the same (tests/test_toymodel.py keeps the expression forms).


def layer_norm_forward(x, g, b):
    xc = x - _feature_mean(x)
    inv = 1.0 / np.sqrt(_feature_mean(xc * xc) + LN_EPS)
    xc *= inv  # xhat
    y = g * xc
    y += b
    return y, (xc, inv, g)


def layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat  # scratch: dy * xhat, then dxhat * xhat, then xhat * m2
    dg = t.sum(axis=axes).reshape(1, -1)
    db = dy.sum(axis=axes).reshape(1, -1)
    dxhat = dy * g
    m1 = _feature_mean(dxhat)
    m2 = _feature_mean(np.multiply(dxhat, xhat, out=t))
    np.multiply(xhat, m2, out=t)
    dxhat -= m1
    dxhat -= t
    dxhat *= inv  # dx
    return dxhat, dg, db


def ffn_forward(h, w1, w2):
    r = h @ w1
    np.maximum(r, 0.0, out=r)
    return r @ w2.T, (h, r)


def ffn_backward(df, cache, w1, w2):
    h, r = cache
    dw2 = fold_outer(df, r)
    relu = r > 0.0
    dz = np.matmul(df, w2, out=r)  # the taped ReLU output is not read again
    dz *= relu
    dw1 = fold_outer(h, dz)
    return dz @ w1.T, dw1, dw2


# --- the transformer block stack ---------------------------------------------------


@dataclass
class DecoderState:
    """Streaming decode state: per-layer attention memories plus the position."""

    attn: list[AttnState]
    cross: list[AttnState] | None = None
    pos: int = 0

    def size_bytes(self) -> int:
        total = sum(s.size_bytes() for s in self.attn)
        if self.cross is not None:
            total += sum(s.size_bytes() for s in self.cross)
        return total


_PROJ = ("wq", "wk", "wv", "wo")
# the name endings of the dense weights stored (d_out, d_in); ffn.w1 is
# stored (d_in, d_out), the order the clip norm already sums in
_DENSE = tuple(f".{w}" for w in _PROJ) + (".ffn.w2", "out_w")
_SITE_LN = {"attn": "ln1", "cross": "ln_cross"}  # the pre-norm in front of each site


def _add_grad(grads, key, g):
    """Add ``g`` into ``grads[key]``; the first contribution becomes the array.

    The same sums as adding into zeros, without the zeros.
    """
    if key in grads:
        grads[key] += g
    else:
        grads[key] = g


class _Stack:
    """``layers`` pre-norm blocks plus a final layer norm: the one block code.

    ``sites`` is the ordered attention sites of every block, as (name,
    model site) pairs: [("attn", "encoder_self")] for the encoder,
    [("attn", "causal")] for the LM, [("attn", "causal"), ("cross",
    "cross")] for the seq2seq decoder.  Each site is x += site(LN(x)), then
    x += FFN(LN(x)).  A "cross" site reads the encoder output.  The stack
    knows the names of its parameters, not the model: every method takes the
    parameter dict.
    """

    def __init__(self, cfg: ToyModelConfig, prefix: str, final_ln: str, sites):
        self.prefix = prefix  # "enc" or "dec"
        self.final_ln = final_ln
        self.layers = cfg.layers
        self.d_model, self.ffn_mult = cfg.d_model, cfg.ffn_mult
        self.sites = [(name, cfg.site_config(site)) for name, site in sites]
        # strategy-weight array per (site name, layer); tied layers share one
        self.sw_keys = {}
        for name, att in self.sites:
            if att.control is None or att.control.weight_shape(att.d_model) is None:
                self.sw_keys[name] = [None] * self.layers
            elif cfg.tie_phi_across_layers:
                self.sw_keys[name] = [f"phi.{att.site}"] * self.layers
            else:
                self.sw_keys[name] = [f"{prefix}{i}.{name}.sw" for i in range(self.layers)]

    def init_params(self, params, rng):
        d, mult = self.d_model, self.ffn_mult
        for i in range(self.layers):
            base = f"{self.prefix}{i}"
            _ln_params(params, f"{base}.ln1", d)
            for name, _ in self.sites:
                for w in _PROJ:
                    params[f"{base}.{name}.{w}"] = draw_weight(rng, d, d)
            # later sites' norms follow all projections: the dict order fixes
            # the summation order of the gradient norm in adam_update
            for name, _ in self.sites[1:]:
                _ln_params(params, f"{base}.{_SITE_LN[name]}", d)
            _ln_params(params, f"{base}.ln2", d)
            params[f"{base}.ffn.w1"] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, mult * d))
            params[f"{base}.ffn.w2"] = draw_weight(rng, mult * d, d)
        _ln_params(params, self.final_ln, d)

    def init_strategy_params(self, params, rng):
        for name, att in self.sites:
            for key in self.sw_keys[name]:
                if key is not None and key not in params:
                    params[key] = init_strategy_weights(att, rng)

    def layer_params(self, params, i, name) -> LayerParams:
        base = f"{self.prefix}{i}.{name}"
        key = self.sw_keys[name][i]
        return LayerParams(
            wq=params[f"{base}.wq"],
            wk=params[f"{base}.wk"],
            wv=params[f"{base}.wv"],
            wo=params[f"{base}.wo"],
            strategy_weights=params[key] if key else None,
        )

    def _ln(self, params, x, name):
        return layer_norm_forward(x, params[f"{name}.g"], params[f"{name}.b"])

    def forward(self, params, x, enc_out=None):
        """(B, N, d) -> final-normed (B, N, d), plus the tape for backward."""
        layers = []
        for i in range(self.layers):
            base = f"{self.prefix}{i}"
            lt = {}
            for name, att in self.sites:
                ln = _SITE_LN[name]
                h, lt[ln] = self._ln(params, x, f"{base}.{ln}")
                kv = enc_out if name == "cross" else None
                try:
                    a, lt[name] = mha_forward(h, kv, self.layer_params(params, i, name), att)
                except NumericError as exc:
                    raise self._named(exc, i, name, att) from exc
                x = x + a
            h2, lt["ln2"] = self._ln(params, x, f"{base}.ln2")
            f, lt["ffn"] = ffn_forward(h2, params[f"{base}.ffn.w1"], params[f"{base}.ffn.w2"])
            x = x + f
            layers.append(lt)
        out, final = self._ln(params, x, self.final_ln)
        return out, {"layers": layers, "final_ln": final}

    def backward(self, params, tape, d_out, grads):
        """Adds into ``grads``; returns (dx, d_enc summed over cross sites).

        A parameter's first gradient becomes its entry in ``grads`` and later
        ones add into it (``_add_grad``), so no zero-filled gradient is made.
        Pops each tape as it reads it: a layer's FFN and layer-norm tapes are
        gone before its attention backward runs.  ``d_out`` and each
        sub-layer's input gradient are dropped after their last use.
        """
        dx = self._ln_backward(grads, d_out, tape.pop("final_ln"), self.final_ln)
        del d_out
        layers = tape.pop("layers")
        d_enc = None
        for i in reversed(range(self.layers)):
            base = f"{self.prefix}{i}"
            lt = layers.pop()
            w1, w2 = f"{base}.ffn.w1", f"{base}.ffn.w2"
            dh2, dw1, dw2 = ffn_backward(dx, lt.pop("ffn"), params[w1], params[w2])
            _add_grad(grads, w1, dw1)
            _add_grad(grads, w2, dw2)
            dx = dx + self._ln_backward(grads, dh2, lt.pop("ln2"), f"{base}.ln2")
            del dh2
            for name, att in reversed(self.sites):
                try:
                    agrads, dh, denc_i = mha_backward(lt.pop(name), dx)
                except NumericError as exc:
                    raise self._named(exc, i, name, att) from exc
                for w in _PROJ:
                    _add_grad(grads, f"{base}.{name}.{w}", agrads[w])
                key = self.sw_keys[name][i]
                if key is not None:
                    _add_grad(grads, key, agrads["strategy_weights"])
                if denc_i is not None:
                    d_enc = denc_i if d_enc is None else d_enc + denc_i
                ln = _SITE_LN[name]
                dx = dx + self._ln_backward(grads, dh, lt.pop(ln), f"{base}.{ln}")
                del dh
        return dx, d_enc

    @staticmethod
    def _ln_backward(grads, dy, cache, name):
        dx, dg, db = layer_norm_backward(dy, cache)
        _add_grad(grads, f"{name}.g", dg)
        _add_grad(grads, f"{name}.b", db)
        return dx

    def _named(self, exc, i, name, att) -> NumericError:
        """``exc`` restated with the stack prefix, layer, site and strategy kind."""
        return NumericError(f"{self.prefix}{i} {name} ({att.site}, {att.strategy.kind}): {exc}")

    def init_state(self, params, batch, capacity, enc_out=None) -> DecoderState:
        """Fresh decode state; cross sites build their memory from ``enc_out``."""
        return DecoderState(**{
            name: [
                init_attn_state(
                    att, self.layer_params(params, i, name), batch, capacity,
                    enc_out if name == "cross" else None,
                )
                for i in range(self.layers)
            ]
            for name, att in self.sites
        })

    def step(self, params, x, state: DecoderState):
        """One decode position: (B, d) -> final-normed (B, d); advances ``state``."""
        for i in range(self.layers):
            base = f"{self.prefix}{i}"
            for name, att in self.sites:
                h, _ = self._ln(params, x, f"{base}.{_SITE_LN[name]}")
                lp = self.layer_params(params, i, name)
                try:
                    x = x + stream_step(h, lp, att, getattr(state, name)[i])
                except NumericError as exc:
                    raise self._named(exc, i, name, att) from exc
            h2, _ = self._ln(params, x, f"{base}.ln2")
            f, _ = ffn_forward(h2, params[f"{base}.ffn.w1"], params[f"{base}.ffn.w2"])
            x = x + f
        out, _ = self._ln(params, x, self.final_ln)
        return out


class _Model:
    """Embeddings, the logits head and the bookkeeping both models share."""

    def __init__(self, config: ToyModelConfig, rng, stacks):
        self.config = config
        rng = rng if rng is not None else make_rng(config.seed)
        d = config.d_model
        params: dict[str, np.ndarray] = {}
        params["tok_emb"] = rng.normal(0.0, 0.02, (config.vocab, d))
        params["pos_emb"] = rng.normal(0.0, 0.02, (config.max_positions, d))
        for stack in stacks:
            stack.init_params(params, rng)
        params["out_w"] = draw_weight(rng, d, config.vocab, 0.02)
        for stack in stacks:
            stack.init_strategy_params(params, rng)
        self.params = params

    def param_count(self) -> int:
        return sum(a.size for a in self.params.values())

    def strategy_param_count(self) -> int:
        return sum(
            a.size for k, a in self.params.items() if k.startswith("phi.") or k.endswith(".sw")
        )

    def _embed(self, tokens):
        """(B, N) or (N,) ids -> (ids as (B, N), token + position embeddings)."""
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        cfg = self.config
        N = tokens.shape[1]
        if N > cfg.max_positions:
            raise ValueError(f"sequence length {N} exceeds max positions {cfg.max_positions}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab:
            raise ValueError("token id outside vocabulary")
        return tokens, self.params["tok_emb"][tokens] + self.params["pos_emb"][:N]

    def _embed_backward(self, grads, *pairs):
        """Set the embedding gradients of (tokens, dx) pairs, added in pair order.

        The ``tok_emb`` gradient is one bincount over the flat indices
        token * d + column.  It adds in row order from zero, as ``np.add.at``
        into zeros does, so the sums are bit for bit the same; a second
        scatter into a non-zero result would round differently.
        """
        pos = np.zeros_like(self.params["pos_emb"])
        for tokens, dx in pairs:
            pos[: tokens.shape[1]] += dx.sum(axis=0)
        vocab, d = self.params["tok_emb"].shape
        cols = np.arange(d)
        flat = np.concatenate([(t[..., None] * d + cols).ravel() for t, _ in pairs])
        dxs = np.concatenate([dx.ravel() for _, dx in pairs])
        grads["tok_emb"] = np.bincount(flat, dxs, minlength=vocab * d).reshape(vocab, d)
        grads["pos_emb"] = pos

    def _embed_step(self, tokens_t, pos):
        if pos >= self.config.max_positions:
            raise ValueError("decode ran past max positions")
        tokens_t = np.asarray(tokens_t).reshape(-1)
        return self.params["tok_emb"][tokens_t] + self.params["pos_emb"][pos]

    def _head_backward(self, grads, xf, dlogits):
        """Put the head's gradient into the empty dict ``grads``; returns d(xf).

        No gradient is zero-filled in advance: the backward adds each one to
        the dict as it is made (``_add_grad``), then returns the dict in
        ``params`` order, the order the clip norm in ``adam_update`` sums in.
        """
        grads["out_w"] = fold_outer(dlogits, xf)
        return dlogits @ self.params["out_w"]


# --- the decoder-only language model -------------------------------------------------


class ToyLM(_Model):
    """Decoder-only LM: embeddings, pre-norm blocks with causal attention."""

    def __init__(self, config: ToyModelConfig, rng: np.random.Generator | None = None):
        self.stack = _Stack(config, "dec", "final_ln", [("attn", "causal")])
        super().__init__(config, rng, [self.stack])

    def forward(self, tokens):
        """Batch logits for a (B, N) or (N,) token array, plus the gradient tape."""
        tokens, x = self._embed(tokens)
        xf, tape = self.stack.forward(self.params, x)
        tape.update(tokens=tokens, xf=xf)
        return check_finite(xf @ self.params["out_w"].T, "logits"), GradTape(None, tape)

    def backward(self, tape: GradTape, dlogits) -> dict[str, np.ndarray]:
        """Gradients of one ``forward``; a tape is consumed by its first backward."""
        tape, grads = tape.take(), {}
        # d(xf) is handed over, not held here: the stack drops it after its final norm
        dx, _ = self.stack.backward(
            self.params, tape, self._head_backward(grads, tape.pop("xf"), dlogits), grads)
        self._embed_backward(grads, (tape["tokens"], dx))
        return {k: grads[k] for k in self.params}

    def init_state(self, batch: int, capacity: int | None = None) -> DecoderState:
        capacity = self.config.max_positions if capacity is None else capacity
        return self.stack.init_state(self.params, batch, capacity)

    def step(self, tokens_t, state: DecoderState):
        """One streaming step: tokens_t (B,) -> logits (B, vocab)."""
        x = self._embed_step(tokens_t, state.pos)
        xf = self.stack.step(self.params, x, state)
        state.pos += 1
        return xf @ self.params["out_w"].T


# --- loss -----------------------------------------------------------------------


def masked_cross_entropy(logits, targets, mask):
    """Mean NLL of ``targets`` over mask-weighted positions.

    ``logits`` (B, T, V), ``targets``/``mask`` (B, T); masked-out targets are
    ignored entirely.  Returns (loss, accuracy, dlogits).
    """
    B, T, _ = logits.shape
    m = np.asarray(mask, dtype=np.float64)
    total = m.sum()
    if total <= 0:
        raise ValueError("empty loss mask")
    probs = softmax_rows(logits)
    bidx = np.arange(B)[:, None]
    tidx = np.arange(T)[None, :]
    picked = probs[bidx, tidx, targets]
    loss = float(-(np.log(np.maximum(picked, 1e-300)) * m).sum() / total)
    acc = float(((probs.argmax(axis=-1) == targets) * m).sum() / total)
    d = probs.copy()
    d[bidx, tidx, targets] -= 1.0
    dlogits = d * (m / total)[:, :, None]
    return loss, acc, dlogits


def next_token_loss(logits, tokens, mask):
    """LM wrapper: mask[b, t] weights predicting tokens[b, t+1].

    The final position has no target; its mask entry must be zero.
    """
    if np.any(np.asarray(mask)[:, -1] != 0):
        raise ValueError("last position has no next token; mask it out")
    targets = np.zeros_like(tokens)
    targets[:, :-1] = tokens[:, 1:]
    return masked_cross_entropy(logits, targets, mask)


# --- tasks ------------------------------------------------------------------------


class TaskSampler:
    """Draws (tokens, mask) batches for a task; every batch shares one length."""

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.ids = None
        if spec.kind == "char_lm":
            if spec.corpus_path is None:
                raise ValueError("char_lm needs a corpus path")
            text = Path(spec.corpus_path).read_text(encoding="utf-8")
            chars = sorted(set(text))
            if len(chars) > spec.vocab:
                raise ValueError(f"corpus has {len(chars)} symbols, vocab is {spec.vocab}")
            self.stoi = {c: i for i, c in enumerate(chars)}
            self.itos = chars
            self.ids = np.array([self.stoi[c] for c in text], dtype=np.intp)
            if len(self.ids) <= spec.max_len + 1:
                raise ValueError("corpus shorter than one training window")

    def sample(self, batch: int, rng: np.random.Generator):
        spec = self.spec
        if spec.kind == "char_lm":
            N = spec.max_len + 1
            starts = rng.integers(0, len(self.ids) - N, size=batch)
            tokens = np.stack([self.ids[s : s + N] for s in starts])
            mask = np.ones((batch, N))
            mask[:, -1] = 0.0
            return tokens, mask
        L = int(rng.integers(spec.min_len, spec.max_len + 1))
        payload = rng.integers(2, spec.vocab, size=(batch, L))
        answer = payload[:, ::-1] if spec.kind == "reverse" else payload
        N = 2 * L + 2
        tokens = np.zeros((batch, N), dtype=np.intp)
        tokens[:, 0] = BOS
        tokens[:, 1 : L + 1] = payload
        tokens[:, L + 1] = SEP
        tokens[:, L + 2 :] = answer
        mask = np.zeros((batch, N))
        mask[:, L + 1 : 2 * L + 1] = 1.0  # positions predicting the answer tokens
        return tokens, mask

    def sample_pair(self, batch: int, rng: np.random.Generator):
        """Source/target form of copy or reverse for the seq2seq model.

        Returns (src, tgt_in, tgt_out, mask): the decoder is teacher-forced
        with BOS-shifted targets and every position is supervised.
        """
        spec = self.spec
        if spec.kind == "char_lm":
            raise ValueError("char_lm is a decoder-only task")
        L = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = rng.integers(2, spec.vocab, size=(batch, L))
        tgt_out = src[:, ::-1] if spec.kind == "reverse" else src
        tgt_in = np.concatenate(
            [np.full((batch, 1), BOS, dtype=np.intp), tgt_out[:, :-1]], axis=1
        )
        return src, tgt_in, tgt_out, np.ones((batch, L))


def evaluate_accuracy(model: ToyLM, sampler: TaskSampler, batches: int, rng) -> float:
    """Next-token accuracy over masked positions on freshly drawn batches."""
    hits, total = 0.0, 0.0
    for _ in range(batches):
        tokens, mask = sampler.sample(model.config.batch_size, rng)
        logits, _ = model.forward(tokens)
        pred = logits[:, :-1].argmax(axis=-1)
        m = mask[:, :-1]
        hits += ((pred == tokens[:, 1:]) * m).sum()
        total += m.sum()
    return float(hits / total)


def evaluate_perplexity(model: ToyLM, sampler: TaskSampler, batches: int, rng) -> float:
    """exp(mean masked token NLL), the standard LM quality number."""
    nll, total = 0.0, 0.0
    for _ in range(batches):
        tokens, mask = sampler.sample(model.config.batch_size, rng)
        logits, _ = model.forward(tokens)
        loss, _, _ = next_token_loss(logits, tokens, mask)
        nll += loss * mask.sum()
        total += mask.sum()
    return float(np.exp(nll / total))


# --- training -----------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    grad_norm: float | None = None  # the last step's gradient norm before clipping


# glibc mallopt parameters and the values a training process runs with
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit
_TRIM_THRESHOLD = 1 << 30


def _keep_heap_mapped() -> bool:
    """Make glibc keep freed heap memory mapped; False if there is no mallopt.

    A training step allocates and frees the same arrays every step.  With
    glibc's defaults the backward's frees let it return the top of the heap
    to the kernel at the end of each step, and the next step faults every
    page back in: thousands of minor faults and about a tenth of a long
    step's wall time.  Here arrays below 32 MiB come from the heap, and the
    heap is trimmed only when 1 GiB of it lies free.  Both are needed:
    setting any one malloc parameter also freezes glibc's dynamic mmap
    threshold at 128 KiB, and alone each made the faults worse.  The policy
    is process-wide: the process keeps its heap high-water mark until it
    exits (``ru_maxrss`` already counts that mark).
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold alone would do harm, so it follows a set mmap threshold
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def adam_init(model) -> AdamState:
    """Zero moments for ``model``; also sets the process-wide heap policy of
    ``_keep_heap_mapped``, since this is where training starts."""
    _keep_heap_mapped()
    return AdamState(
        m={k: np.zeros_like(v) for k, v in model.params.items()},
        v={k: np.zeros_like(v) for k, v in model.params.items()},
    )


def _square_sum(name, g) -> float:
    """sum(g * g), a dense weight's added in (d_in, d_out) order.

    That is the order of the input-major layout every dense weight had
    before the ones in ``_DENSE`` were stored (d_out, d_in).  Summing in it
    keeps the clip norm, and so every clipped step of training, bitwise
    what it was in that layout.
    """
    if name.endswith(_DENSE):
        g = np.ascontiguousarray(g.T)
    return float((g * g).sum())


def adam_update(model, grads, opt: AdamState):
    """One clipped Adam step.  It consumes ``grads``: the clip scales them in
    place and each gradient's buffer then holds the step's denominator.  The
    gradient norm before clipping is kept as ``opt.grad_norm``."""
    cfg = model.config
    opt.t += 1
    lr = cfg.lr
    if cfg.warmup_steps > 0:
        lr *= min(1.0, opt.t / cfg.warmup_steps)
    scale = None
    norm = opt.grad_norm = float(np.sqrt(sum(_square_sum(k, g) for k, g in grads.items())))
    if 0 < cfg.clip_norm < norm:
        scale = cfg.clip_norm / norm
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.eps
    c1 = 1.0 - b1**opt.t
    c2 = 1.0 - b2**opt.t
    for k, g in grads.items():
        if scale is not None:
            g *= scale
        m, v = opt.m[k], opt.v[k]
        step = g * (1.0 - b1)
        m *= b1
        m += step  # b1 m + (1 - b1) g
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v *= b2
        v += step  # b2 v + (1 - b2) g^2
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += eps
        step /= g  # lr (m / c1) / (sqrt(v / c2) + eps)
        model.params[k] -= step


def _optimizer_step(model, opt: AdamState, forward, loss_of):
    """One Adam step on the loss ``loss_of(logits)`` of ``forward()``.

    A non-finite loss raises TrainingDiverged, and a NumericError of the
    forward or backward is raised again, chained; both name the step as the
    curve numbers it, from 1.
    """
    step = f"optimizer step {opt.t + 1}"
    try:
        logits, tape = forward()
        loss, acc, dlogits = loss_of(logits)
        del logits
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss is {loss} at {step}")
        grads = model.backward(tape, dlogits)
    except NumericError as exc:
        raise NumericError(f"{step}: {exc}") from exc
    adam_update(model, grads, opt)
    return loss, acc


def train_step(model: ToyLM, tokens, mask, opt: AdamState):
    return _optimizer_step(
        model, opt, lambda: model.forward(tokens),
        lambda logits: next_token_loss(logits, tokens, mask))


def seq2seq_train_step(model: "ToySeq2Seq", src, tgt_in, tgt_out, mask, opt: AdamState):
    return _optimizer_step(
        model, opt, lambda: model.forward(src, tgt_in),
        lambda logits: masked_cross_entropy(logits, tgt_out, mask))


def train(model, task: TaskSpec, steps: int, rng: np.random.Generator):
    """Adam training loop; returns the per-step (step, loss, accuracy) curve.

    Works for both the decoder-only LM (next-token loss over the task mask)
    and the seq2seq model (teacher-forced source/target pairs).  Deterministic
    given the generator; zero steps leave the parameters untouched.
    Non-finite loss raises TrainingDiverged.
    """
    sampler = TaskSampler(task)
    opt = adam_init(model)
    curve = []
    seq2seq = isinstance(model, ToySeq2Seq)
    for step_i in range(steps):
        if seq2seq:
            src, tgt_in, tgt_out, mask = sampler.sample_pair(model.config.batch_size, rng)
            loss, acc = seq2seq_train_step(model, src, tgt_in, tgt_out, mask, opt)
        else:
            tokens, mask = sampler.sample(model.config.batch_size, rng)
            loss, acc = train_step(model, tokens, mask, opt)
        curve.append((step_i + 1, loss, acc))
    return curve


def evaluate_seq2seq_accuracy(model: "ToySeq2Seq", sampler: TaskSampler, batches: int, rng) -> float:
    """Teacher-forced per-token accuracy on freshly drawn source/target pairs."""
    hits, total = 0.0, 0.0
    for _ in range(batches):
        src, tgt_in, tgt_out, mask = sampler.sample_pair(model.config.batch_size, rng)
        logits, _ = model.forward(src, tgt_in)
        hits += ((logits.argmax(axis=-1) == tgt_out) * mask).sum()
        total += mask.sum()
    return float(hits / total)


def save_curve_csv(path, curve) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss,accuracy\n")
        for step_i, loss, acc in curve:
            f.write(f"{step_i},{loss!r},{acc!r}\n")


# --- greedy decoding ---------------------------------------------------------------


def greedy_decode(model, prefix, max_len: int):
    """Greedy continuation using the streaming state.

    ``prefix`` is (B, P) or (P,) token ids (ToyLM), or the source batch for
    a seq2seq model.  Returns the (B, max_len) generated ids; argmax breaks
    ties toward the lowest token id.
    """
    if isinstance(model, ToySeq2Seq):
        return model.greedy_decode(prefix, max_len)
    prefix = np.asarray(prefix)
    if prefix.ndim == 1:
        prefix = prefix[None, :]
    B, P = prefix.shape
    if P == 0:
        raise ValueError("greedy_decode needs a non-empty prefix")
    state = model.init_state(B, capacity=min(P + max_len, model.config.max_positions))
    for t in range(P - 1):
        model.step(prefix[:, t], state)
    return _greedy_loop(model, state, prefix[:, -1], max_len)


def _greedy_loop(model, state, tok, max_len: int):
    """(B, max_len) greedy ids: each step feeds the last id, ``tok`` first."""
    out = np.empty((len(tok), max_len), dtype=np.intp)
    for i in range(max_len):
        tok = out[:, i] = model.step(tok, state).argmax(axis=-1)
    return out


# --- sequence-to-sequence ------------------------------------------------------------


class ToySeq2Seq(_Model):
    """Encoder-decoder exercising all three attention sites.

    The encoder runs self-attention blocks over the source; the decoder
    interleaves causal self-attention, cross attention over the encoder
    output, and the feed-forward, then projects to the vocabulary.
    """

    def __init__(self, config: ToyModelConfig, rng: np.random.Generator | None = None):
        if config.encoder is None or config.cross is None:
            raise ValueError("seq2seq needs encoder and cross site configs")
        self.enc_stack = _Stack(config, "enc", "enc_final_ln", [("attn", "encoder_self")])
        self.dec_stack = _Stack(config, "dec", "final_ln", [("attn", "causal"), ("cross", "cross")])
        super().__init__(config, rng, [self.enc_stack, self.dec_stack])

    def encode(self, src):
        src, x = self._embed(src)
        out, tape = self.enc_stack.forward(self.params, x)
        tape["tokens"] = src
        return out, tape

    def forward(self, src, tgt):
        enc_out, enc_tape = self.encode(src)
        tgt, x = self._embed(tgt)
        xf, tape = self.dec_stack.forward(self.params, x, enc_out)
        tape.update(enc=enc_tape, tokens=tgt, xf=xf)
        return check_finite(xf @ self.params["out_w"].T, "logits"), GradTape(None, tape)

    def backward(self, tape: GradTape, dlogits):
        """Gradients of one ``forward``; a tape is consumed by its first backward."""
        tape, grads = tape.take(), {}
        dx, d_enc = self.dec_stack.backward(
            self.params, tape, self._head_backward(grads, tape.pop("xf"), dlogits), grads)
        enc_tape = tape.pop("enc")
        dx_enc, _ = self.enc_stack.backward(self.params, enc_tape, d_enc, grads)
        self._embed_backward(grads, (tape["tokens"], dx), (enc_tape["tokens"], dx_enc))
        return {k: grads[k] for k in self.params}

    def init_state(self, src) -> DecoderState:
        enc_out, _ = self.encode(src)
        return self.dec_stack.init_state(
            self.params, enc_out.shape[0], self.config.max_positions, enc_out
        )

    def step(self, tokens_t, state: DecoderState):
        x = self._embed_step(tokens_t, state.pos)
        xf = self.dec_stack.step(self.params, x, state)
        state.pos += 1
        return xf @ self.params["out_w"].T

    def greedy_decode(self, src, max_len: int):
        src = np.asarray(src)
        if src.ndim == 1:
            src = src[None, :]
        if src.shape[1] == 0:
            raise ValueError("greedy_decode needs a non-empty source")
        state = self.init_state(src)
        return _greedy_loop(self, state, np.full(src.shape[0], BOS, dtype=np.intp), max_len)


def seq2seq_loss_and_grads(model: ToySeq2Seq, src, tgt_in, tgt_out, mask=None):
    """Teacher-forced loss + grads; tgt_out aligns position-wise with tgt_in."""
    logits, tape = model.forward(src, tgt_in)
    if mask is None:
        mask = np.ones(tgt_out.shape)
    loss, acc, dlogits = masked_cross_entropy(logits, tgt_out, mask)
    grads = model.backward(tape, dlogits)
    return loss, acc, grads
