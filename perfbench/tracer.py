"""Spans around the library's public functions, recorded from outside.

A :class:`Tracer` replaces module attributes (``toymodel.mha_forward``,
``attention.softmax_rows``, ``strategies.phi_at``, ``ToyLM.step``, ...) with
wrappers that record one span per call: name, start, end and parent.  A
function is patched in every library module that holds it, because
``from .numerics import softmax_rows`` copies the name into the importing
module and calls resolve there.  Nothing under ``src/`` is changed; the
patches are undone by :meth:`Tracer.stop`.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
A span's self time is its duration minus the durations of its direct
children (calls are nested, so direct children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("numerics", "memory", "strategies", "attention", "toymodel", "bench", "verify")


def _site(*args, **kwargs):
    return args[3].site  # mha_forward(Xq, Xkv, params, config, ...)


def _tape_site(*args, **kwargs):
    return args[0].config.site  # mha_backward(tape, d_out)


def _stream_kind(*args, **kwargs):
    return args[2].strategy.kind  # stream_step(x, params, config, state)


def _init_kind(*args, **kwargs):
    return args[0].strategy.kind  # init_attn_state(config, params, batch, capacity, ...)


# (defining module, function, span name, label of the call or None)
FUNCTIONS = (
    ("toymodel", "layer_norm_forward", "toymodel.layer_norm", None),
    ("toymodel", "layer_norm_backward", "toymodel.layer_norm", None),
    ("toymodel", "ffn_forward", "toymodel.ffn", None),
    ("toymodel", "ffn_backward", "toymodel.ffn", None),
    ("toymodel", "masked_cross_entropy", "toymodel.loss", None),
    ("toymodel", "adam_update", "toymodel.adam", None),
    ("attention", "mha_forward", "attention.mha_forward", _site),
    ("attention", "mha_backward", "attention.mha_backward", _tape_site),
    ("attention", "stream_step", "attention.stream_step", _stream_kind),
    ("attention", "init_attn_state", "attention.init_attn_state", _init_kind),
    ("strategies", "phi_at", "strategies.phi_at", None),
    ("strategies", "phi_matrix", "strategies.phi_matrix", None),
    ("strategies", "activation_forward", "strategies.activation_forward", None),
    ("numerics", "softmax_rows", "numerics.softmax_rows", None),
    ("numerics", "softmax_rows_backward", "numerics.softmax_rows_backward", None),
    ("numerics", "finite_diff_grad", "numerics.finite_diff_grad", None),
    ("memory", "build_memory", "memory", None),
    ("memory", "step", "memory", None),
    ("memory", "readout", "memory", None),
    ("memory", "readout_normalized", "memory", None),
    ("memory", "full_attention", "memory", None),
)

# (class, method, span name)
METHODS = (
    ("ToyLM", "forward", "toymodel.forward"),
    ("ToyLM", "backward", "toymodel.backward"),
    ("ToyLM", "step", "toymodel.step"),
    ("ToySeq2Seq", "encode", "toymodel.forward"),
    ("ToySeq2Seq", "forward", "toymodel.forward"),
    ("ToySeq2Seq", "backward", "toymodel.backward"),
    ("ToySeq2Seq", "step", "toymodel.step"),
)


def tape_nbytes(tape) -> int:
    """Bytes of the distinct arrays a GradTape holds, nested dicts included."""
    seen, total, todo = set(), 0, [tape.arrays]
    while todo:
        d = todo.pop()
        for v in d.values():
            if isinstance(v, dict):
                todo.append(v)
            elif hasattr(v, "nbytes") and id(v) not in seen:
                seen.add(id(v))
                total += v.nbytes
    return total


class Tracer:
    """Patches the library on :meth:`start`, restores it on :meth:`stop`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters: dict[str, list] = {}  # name -> [sum, samples]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def count(self, name: str, value: float) -> None:
        c = self.counters.setdefault(name, [0, 0])
        c[0] += value
        c[1] += 1

    def _wrap(self, fn, name, label=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            idx = len(spans)
            spans.append([full, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(full, out)
            return out

        return traced

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def _after_mha_forward(self, full, out):
        tape = out[1]
        if tape is not None:
            site = full.rsplit(".", 1)[1]
            self.count(f"attention.tape_bytes.{site}", tape_nbytes(tape))

    def start(self) -> None:
        mods = {m: importlib.import_module(f"boundedattn.{m}") for m in MODULES}
        for defmod, fname, name, label in FUNCTIONS:
            orig = getattr(mods[defmod], fname)
            after = self._after_mha_forward if fname == "mha_forward" else None
            wrapped = self._wrap(orig, name, label, after)
            for mod in mods.values():
                if mod.__dict__.get(fname) is orig:
                    self._patch(mod, fname, wrapped)
        for cls_name, meth, name in METHODS:
            cls = getattr(mods["toymodel"], cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
        suites = mods["verify"].SUITES
        for suite in list(suites):
            self._patch(suites, suite, self._wrap(suites[suite], f"verify.{suite}"))

    def stop(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- aggregation

    def self_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self ns, and inclusive ns.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself through another (``readout_normalized``
        calling ``readout``, both named ``memory``) is not counted twice.
        """
        own = self.self_ns()
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            t["calls"] += 1
            t["self_ns"] += own[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                t["incl_ns"] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([i, parent, name, start, end]) + "\n")
