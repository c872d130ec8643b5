"""Desk-scale transformer LM and seq2seq built on the bounded-memory attention.

Pre-norm blocks, ReLU feed-forward, learned token and position embeddings,
no biases outside layer norms.  Every dense weight (the attention
projections, both FFN matrices and the logits head) is stored C-contiguous
as (d_in, d_out) and applied as ``x @ w``, the layout the attention module
gives its projections.  One block implementation,
``_Stack``, holds the backward and the one block loop that the batch
forward and the streaming decode step run, for any ordered list of
attention sites; the LM decoder, the seq2seq encoder and the seq2seq
decoder are three instances of it.  Each site has one phi array, which
every layer shares.  The models add only the embeddings and the logits
head.  Parameters live in one flat
name -> array dict (every array 2-D), which keeps the optimizer, the
gradient checks and the checkpoint container uniform.  The backward pass is
the same manual chain style as the attention module.  A layer tapes what
it computed, never its input: layer norm keeps (xhat, 1/std, g), the FFN
its ReLU output, whose sign is the ReLU's mask.  Every sub-layer's input is
a layer norm's output, which the backward rebuilds from that norm's tape
(``layer_norm_output``, bit for bit) and hands to the sub-layer's backward.
The backward pops each layer's tapes as it reads them.

Training tasks are synthetic (copy, reverse) or a character LM over a plain
UTF-8 corpus.  Sequences reserve token 0 as BOS and token 1 as the separator;
payload symbols use the rest of the vocabulary.  Each model turns a task
batch into its forward inputs, targets and mask (``task_batch``) and a
prompt into a decode state and first token (``prompt_state``), so ``train``,
``evaluate`` and ``greedy_decode`` are written once for both.
"""

from __future__ import annotations

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


def layer_norm_output(xhat, g, b):
    """g * xhat + b: the layer norm's last two operations, which the forward
    runs and the backward reruns on the taped xhat, so a rebuilt output
    equals the forward's bit for bit."""
    y = g * xhat
    y += b
    return y


def layer_norm_forward(x, g, b):
    xc = x - _feature_mean(x)
    inv = 1.0 / np.sqrt(_feature_mean(xc * xc) + LN_EPS)
    xc *= inv  # xhat
    return layer_norm_output(xc, g, b), (xc, inv, g)


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
    """(out, r): the ReLU output r is the whole tape; the backward takes the
    input h again."""
    r = h @ w1
    np.maximum(r, 0.0, out=r)
    return r @ w2, r


def ffn_backward(df, h, r, w1, w2):
    dw2 = fold_outer(r, df)
    relu = r > 0.0
    dz = np.matmul(df, w2.T, out=r)  # the taped ReLU output is not read again
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
        # each site's one strategy-weight array, which every layer shares
        self.phi_keys = {
            name: None if att.control is None or att.control.weight_shape(att.d_model) is None
            else f"phi.{att.site}"
            for name, att in self.sites
        }

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
            params[f"{base}.ffn.w1"] = draw_weight(rng, d, mult * d)
            params[f"{base}.ffn.w2"] = draw_weight(rng, mult * d, d)
        _ln_params(params, self.final_ln, d)

    def init_strategy_params(self, params, rng):
        for name, att in self.sites:
            if self.phi_keys[name] is not None:
                params[self.phi_keys[name]] = init_strategy_weights(att, rng)

    def layer_params(self, params, i, name) -> LayerParams:
        base = f"{self.prefix}{i}.{name}"
        key = self.phi_keys[name]
        return LayerParams(
            wq=params[f"{base}.wq"],
            wk=params[f"{base}.wk"],
            wv=params[f"{base}.wv"],
            wo=params[f"{base}.wo"],
            strategy_weights=params[key] if key else None,
        )

    def _ln(self, params, x, name):
        return layer_norm_forward(x, params[f"{name}.g"], params[f"{name}.b"])

    @staticmethod
    def _normed(params, cache, name):
        """The output of layer norm ``name``, rebuilt from its tape ``cache``."""
        xhat, _, g = cache
        return layer_norm_output(xhat, g, params[f"{name}.b"])

    def output(self, params, tape):
        """The stack's final-normed output, rebuilt from its forward ``tape``."""
        return self._normed(params, tape["final_ln"], self.final_ln)

    def _blocks(self, params, x, attend):
        """The block loop: x += site(LN(x)) for each site, then x += FFN(LN(x)),
        per layer, then the final norm.  Returns the final-normed x and the
        tape of every layer norm, site and FFN.

        ``attend(h, i, name, att)`` is how a site attends: it returns the
        site's output for its normed input ``h`` and the site's tape.
        """
        layers = []
        for i in range(self.layers):
            base = f"{self.prefix}{i}"
            lt = {}
            for name, att in self.sites:
                ln = _SITE_LN[name]
                h, lt[ln] = self._ln(params, x, f"{base}.{ln}")
                try:
                    a, lt[name] = attend(h, i, name, att)
                except NumericError as exc:
                    raise self._named(exc, i, name, att) from exc
                x = x + a
                del h, a  # no tape holds them: only the residual goes on
            h2, lt["ln2"] = self._ln(params, x, f"{base}.ln2")
            f, lt["ffn"] = ffn_forward(h2, params[f"{base}.ffn.w1"], params[f"{base}.ffn.w2"])
            x = x + f
            del h2, f
            layers.append(lt)
        out, final = self._ln(params, x, self.final_ln)
        return out, {"layers": layers, "final_ln": final}

    def forward(self, params, x, enc_out=None):
        """(B, N, d) -> final-normed (B, N, d), plus the tape for backward."""

        def attend(h, i, name, att):
            kv = enc_out if name == "cross" else None
            return mha_forward(h, kv, self.layer_params(params, i, name), att)

        return self._blocks(params, x, attend)

    def backward(self, params, tape, d_out, grads, enc_out=None):
        """Adds into ``grads``; returns (dx, d_enc summed over cross sites).

        ``enc_out`` is the encoder output the cross sites read.  A
        parameter's first gradient becomes its entry in ``grads`` and later
        ones add into it (``_add_grad``), so no zero-filled gradient is made.
        Pops each tape as it reads it: a layer's FFN and layer-norm tapes are
        gone before its attention backward runs.  Each sub-layer's normed
        input is rebuilt just before its backward; it, ``d_out`` and each
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
            h2 = self._normed(params, lt["ln2"], f"{base}.ln2")
            dh2, dw1, dw2 = ffn_backward(dx, h2, lt.pop("ffn"), params[w1], params[w2])
            del h2
            _add_grad(grads, w1, dw1)
            _add_grad(grads, w2, dw2)
            dx = dx + self._ln_backward(grads, dh2, lt.pop("ln2"), f"{base}.ln2")
            del dh2
            for name, att in reversed(self.sites):
                ln = _SITE_LN[name]
                h = self._normed(params, lt[ln], f"{base}.{ln}")
                kv = enc_out if name == "cross" else None
                try:
                    agrads, dh, denc_i = mha_backward(lt.pop(name), dx, h, kv)
                except NumericError as exc:
                    raise self._named(exc, i, name, att) from exc
                del h
                for w in _PROJ:
                    _add_grad(grads, f"{base}.{name}.{w}", agrads[w])
                key = self.phi_keys[name]
                if key is not None:
                    _add_grad(grads, key, agrads["strategy_weights"])
                if denc_i is not None:
                    d_enc = denc_i if d_enc is None else d_enc + denc_i
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

        def attend(h, i, name, att):
            return stream_step(h, self.layer_params(params, i, name), att, getattr(state, name)[i]), None

        out, _ = self._blocks(params, x, attend)
        return out


class _Model:
    """Embeddings, the logits head and the bookkeeping both models share.

    ``decoder`` is the stack the logits head reads and the decode step runs.
    """

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
        return sum(a.size for k, a in self.params.items() if k.startswith("phi."))

    def _tokens(self, tokens, what: str = "token sequence"):
        """(B, N) or (N,) ids -> ids as (B, N), checked against the vocabulary
        and the positions; N may not be 0."""
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        cfg = self.config
        N = tokens.shape[1]
        if N == 0:
            raise ValueError(f"the model needs a non-empty {what}")
        if N > cfg.max_positions:
            raise ValueError(f"sequence length {N} exceeds max positions {cfg.max_positions}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab:
            raise ValueError("token id outside vocabulary")
        return tokens

    def _embed(self, tokens):
        """Token + position embeddings of checked (B, N) ids, handed straight
        to a stack, whose forward holds them until it returns."""
        return self.params["tok_emb"][tokens] + self.params["pos_emb"][: tokens.shape[1]]

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

    def _logits(self, xf):
        """The logits head, batch or decode step: a non-finite logit raises."""
        return check_finite(xf @ self.params["out_w"], "logits")

    def _head_backward(self, grads, xf, dlogits):
        """Put the head's gradient into the empty dict ``grads``; returns d(xf).

        No gradient is zero-filled in advance: the backward adds each one to
        the dict as it is made (``_add_grad``), then returns the dict in
        ``params`` order, the order the clip norm in ``adam_update`` sums in.
        """
        grads["out_w"] = fold_outer(xf, dlogits)
        return dlogits @ self.params["out_w"].T

    def step(self, tokens_t, state: DecoderState):
        """One streaming step: tokens_t (B,) -> logits (B, vocab)."""
        pos = state.pos
        if pos >= self.config.max_positions:
            raise ValueError("decode ran past max positions")
        tokens_t = np.asarray(tokens_t).reshape(-1)
        x = self.params["tok_emb"][tokens_t] + self.params["pos_emb"][pos]
        xf = self.decoder.step(self.params, x, state)
        state.pos = pos + 1
        return self._logits(xf)


# --- the decoder-only language model -------------------------------------------------


class ToyLM(_Model):
    """Decoder-only LM: embeddings, pre-norm blocks with causal attention."""

    def __init__(self, config: ToyModelConfig, rng: np.random.Generator | None = None):
        self.decoder = _Stack(config, "dec", "final_ln", [("attn", "causal")])
        super().__init__(config, rng, [self.decoder])

    def forward(self, tokens):
        """Batch logits for a (B, N) or (N,) token array, plus the gradient tape."""
        tokens = self._tokens(tokens)
        xf, tape = self.decoder.forward(self.params, self._embed(tokens))
        tape["tokens"] = tokens
        return self._logits(xf), GradTape(None, tape)

    def backward(self, tape: GradTape, dlogits) -> dict[str, np.ndarray]:
        """Gradients of one ``forward``; a tape is consumed by its first backward."""
        tape, grads = tape.take(), {}
        # xf, rebuilt from the final norm's tape, and d(xf) are handed over,
        # not held here: the stack drops d(xf) after its final norm
        dx, _ = self.decoder.backward(
            self.params, tape,
            self._head_backward(grads, self.decoder.output(self.params, tape), dlogits), grads)
        self._embed_backward(grads, (tape["tokens"], dx))
        return {k: grads[k] for k in self.params}

    def init_state(self, batch: int, capacity: int | None = None) -> DecoderState:
        capacity = self.config.max_positions if capacity is None else capacity
        return self.decoder.init_state(self.params, batch, capacity)

    step = _Model.step  # in the class's own namespace, where perfbench's tracer patches it

    def task_batch(self, sampler: TaskSampler, rng):
        """((tokens,), next-token targets, mask): one training batch of the task."""
        tokens, mask = sampler.sample(self.config.batch_size, rng)
        return (tokens,), next_token_targets(tokens, mask), mask

    def prompt_state(self, prefix, max_len: int):
        """(decode state, first token) of a greedy continuation of ``prefix``:
        the state has read all of it but its last token, which is fed first."""
        prefix = self._tokens(prefix, "prefix")
        B, P = prefix.shape
        state = self.init_state(B, capacity=min(P + max_len, self.config.max_positions))
        for t in range(P - 1):
            self.step(prefix[:, t], state)
        return state, prefix[:, -1]


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


def next_token_targets(tokens, mask):
    """targets[b, t] = tokens[b, t+1], which mask[b, t] weights.

    The final position has no target; its mask entry must be zero.
    """
    if np.any(np.asarray(mask)[:, -1] != 0):
        raise ValueError("last position has no next token; mask it out")
    targets = np.zeros_like(tokens)
    targets[:, :-1] = tokens[:, 1:]
    return targets


def next_token_loss(logits, tokens, mask):
    """LM wrapper: the masked cross entropy of the next-token targets."""
    return masked_cross_entropy(logits, next_token_targets(tokens, mask), mask)


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


def evaluate(model, sampler: TaskSampler, batches: int, rng) -> tuple[float, float]:
    """(accuracy, perplexity) on freshly drawn batches of ``sampler``'s task.

    Accuracy is the argmax hit rate over the masked target positions,
    perplexity exp(mean masked token NLL); teacher-forced for either model.
    """
    hits, nll, total = 0.0, 0.0, 0.0
    for _ in range(batches):
        inputs, targets, mask = model.task_batch(sampler, rng)
        logits, _ = model.forward(*inputs)
        loss, _, _ = masked_cross_entropy(logits, targets, mask)
        hits += ((logits.argmax(axis=-1) == targets) * mask).sum()
        nll += loss * mask.sum()
        total += mask.sum()
    return float(hits / total), float(np.exp(nll / total))


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
    norm = opt.grad_norm = float(np.sqrt(sum((g * g).sum() for g in grads.values())))
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


def _optimizer_step(model, opt: AdamState, inputs, loss_of):
    """One Adam step on the loss ``loss_of(logits)`` of ``model.forward(*inputs)``.

    A non-finite loss raises TrainingDiverged, and a NumericError of the
    forward or backward is raised again, chained; both name the step as the
    curve numbers it, from 1.
    """
    step = f"optimizer step {opt.t + 1}"
    try:
        logits, tape = model.forward(*inputs)
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
    return _optimizer_step(model, opt, (tokens,), lambda logits: next_token_loss(logits, tokens, mask))


def seq2seq_train_step(model: "ToySeq2Seq", src, tgt_in, tgt_out, mask, opt: AdamState):
    return _optimizer_step(
        model, opt, (src, tgt_in), lambda logits: masked_cross_entropy(logits, tgt_out, mask))


def train(model, task: TaskSpec, steps: int, rng: np.random.Generator):
    """Adam training loop; returns the per-step (step, loss, accuracy) curve.

    Each step draws one batch of the task through ``model.task_batch``: the
    LM's next-token targets or the seq2seq model's teacher-forced pairs.
    Deterministic given the generator; zero steps leave the parameters
    untouched.  Non-finite loss raises TrainingDiverged.
    """
    sampler = TaskSampler(task)
    opt = adam_init(model)
    curve = []
    for step_i in range(steps):
        inputs, targets, mask = model.task_batch(sampler, rng)
        loss, acc = _optimizer_step(
            model, opt, inputs, lambda logits: masked_cross_entropy(logits, targets, mask))
        curve.append((step_i + 1, loss, acc))
    return curve


def save_curve_csv(path, curve) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss,accuracy\n")
        for step_i, loss, acc in curve:
            f.write(f"{step_i},{loss!r},{acc!r}\n")


# --- greedy decoding ---------------------------------------------------------------


def greedy_decode(model, prompt, max_len: int):
    """Greedy continuation using the streaming state.

    ``prompt`` is a ToyLM's (B, P) or (P,) prefix or a ToySeq2Seq's source
    batch; ``model.prompt_state`` turns it into the decode state and the
    first token fed.  Returns the (B, max_len) generated ids; argmax breaks
    ties toward the lowest token id.
    """
    state, tok = model.prompt_state(prompt, max_len)
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
        self.encoder = _Stack(config, "enc", "enc_final_ln", [("attn", "encoder_self")])
        self.decoder = _Stack(config, "dec", "final_ln", [("attn", "causal"), ("cross", "cross")])
        super().__init__(config, rng, [self.encoder, self.decoder])

    def encode(self, src):
        src = self._tokens(src)
        out, tape = self.encoder.forward(self.params, self._embed(src))
        tape["tokens"] = src
        return out, tape

    def forward(self, src, tgt):
        enc_out, enc_tape = self.encode(src)
        tgt = self._tokens(tgt)
        xf, tape = self.decoder.forward(self.params, self._embed(tgt), enc_out)
        tape.update(enc=enc_tape, tokens=tgt)
        return self._logits(xf), GradTape(None, tape)

    def backward(self, tape: GradTape, dlogits):
        """Gradients of one ``forward``; a tape is consumed by its first backward."""
        tape, grads = tape.take(), {}
        enc_tape = tape.pop("enc")
        # the head's input and the encoder output the cross sites read are
        # rebuilt from the final norms' tapes, and live only as arguments
        dx, d_enc = self.decoder.backward(
            self.params, tape,
            self._head_backward(grads, self.decoder.output(self.params, tape), dlogits),
            grads, self.encoder.output(self.params, enc_tape))
        dx_enc, _ = self.encoder.backward(self.params, enc_tape, d_enc, grads)
        self._embed_backward(grads, (tape["tokens"], dx), (enc_tape["tokens"], dx_enc))
        return {k: grads[k] for k in self.params}

    def init_state(self, src) -> DecoderState:
        enc_out, _ = self.encode(src)
        return self.decoder.init_state(
            self.params, enc_out.shape[0], self.config.max_positions, enc_out
        )

    step = _Model.step  # in the class's own namespace, where perfbench's tracer patches it

    def task_batch(self, sampler: TaskSampler, rng):
        """((src, tgt_in), tgt_out, mask): one teacher-forced training batch."""
        src, tgt_in, tgt_out, mask = sampler.sample_pair(self.config.batch_size, rng)
        return (src, tgt_in), tgt_out, mask

    def prompt_state(self, src, max_len: int):
        """(decode state, first token) of a greedy decode of ``src``: the state
        holds the encoded source, and BOS is fed first."""
        src = self._tokens(src, "source")
        return self.init_state(src), np.full(src.shape[0], BOS, dtype=np.intp)
