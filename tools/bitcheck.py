"""Bit-for-bit check of training, decoding and verification against a revision.

Usage, from the repository root::

    python3 tools/bitcheck.py --against 082073e

Extracts REV into a temporary directory (``git archive``, so the
repository's own ``.git`` gains no entry), then runs one fixed-seed probe
against each tree's ``src/``: the working tree's and REV's.  Each probe
runs in a fresh interpreter with BLAS at one thread.  It records

* parameters, loss curve and accuracy curve after 15 Adam steps of the
  perfbench ``train_copy`` model, of both ``train_long`` models and of the
  three seq2seq configs of acceptance criterion 9;
* the 512 greedy tokens and their logits of the four ``decode_stream``
  models (batch 4, an 8-token prompt fed through ``step``);
* the curve and parameters after 15 steps of ``tm.train`` on a small
  mlp LM and a small mlp seq2seq model, then each model's argmax
  predictions and logits from ``forward`` on a held-out copy batch and its
  ``tm.greedy_decode`` tokens for that batch's prompt (the LM's prefix up to
  the separator, the seq2seq model's source);
* every verify suite's ``max_err``;
* the gradients of one ``encoder_self`` layer under a control without
  weights (``compressive``), whose backward reads no keys or values.

Every array is compared with ``np.array_equal``.  An array whose shape is
the other side's transposed, or a square one that differs as stored, is
compared transposed as well, and the report says which were.  Prints
equal/total and each differing array with its max |diff|; exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEPS = 15
DECODE_KINDS = ("mlp", "window", "random", "softmax")
SEED = 0


def _train(out, name, model, step):
    """STEPS Adam steps, each ``step(model, opt)`` -> (loss, acc)."""
    from boundedattn import toymodel as tm

    opt = tm.adam_init(model)
    curve = [step(model, opt) for _ in range(STEPS)]
    out[f"{name}/loss"] = [c[0] for c in curve]
    out[f"{name}/acc"] = [c[1] for c in curve]
    for k, v in model.params.items():
        out[f"{name}/param/{k}"] = v


def probe(tree: Path, path: Path) -> None:
    """Run the probe against ``tree/src`` and save its arrays to ``path``."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import boundedattn
    from boundedattn import attention as att
    from boundedattn import bench, verify
    from boundedattn import toymodel as tm
    from boundedattn.numerics import make_rng

    if not Path(boundedattn.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"error: imported boundedattn from {boundedattn.__file__}, not {tree}")
    out = {}

    def site(kind, n):
        return tm.SiteSpec(att.StrategySpec(kind=kind), n)

    # train_copy, and the criterion-9 configs (softmax baseline, 32/32, 32/8)
    sampler = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=64, max_len=64, vocab=32))
    s2s = dict(layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32, max_positions=130, batch_size=8)
    runs = {
        "train_copy": (site("mlp", 32), site("mlp", 32)),
        "crit9_softmax": (site("softmax", 1), site("softmax", 1)),
        "crit9_mlp32": (site("mlp", 32), site("mlp", 32)),
        "crit9_mlp8": (site("mlp", 32), site("mlp", 8)),
    }
    for name, (cross, causal) in runs.items():
        cfg = tm.ToyModelConfig(causal=causal, encoder=site("softmax", 1), cross=cross, seed=SEED, **s2s)
        data = make_rng(SEED + 1 if name == "train_copy" else SEED)
        _train(out, name, tm.ToySeq2Seq(cfg, rng=make_rng(SEED)),
               lambda m, o: tm.seq2seq_train_step(m, *sampler.sample_pair(8, data), o))

    # train_long: an mlp and a window LM at N = 1024
    long_task = tm.TaskSampler(tm.TaskSpec(kind="copy", min_len=511, max_len=511, vocab=32))
    for kind in ("mlp", "window"):
        cfg = tm.ToyModelConfig(layers=2, d_model=64, heads=4, ffn_mult=4, vocab=32,
                                max_positions=1024, causal=site(kind, 32), batch_size=1, seed=SEED)
        data = make_rng(SEED + 1)
        _train(out, f"train_long_{kind}", tm.ToyLM(cfg, rng=make_rng(SEED)),
               lambda m, o: tm.train_step(m, *long_task.sample(1, data), o))

    # decode_stream: 512 greedy tokens of each kind after an 8-token prompt
    T, B, P = 512, 4, 8
    spec = bench.BenchSpec(strategies=DECODE_KINDS, lengths=(T,), n_values=(32,), batch=B,
                           d_model=256, seed=SEED)
    prompt = make_rng(SEED + 1).integers(2, spec.vocab, size=(B, P))
    for kind in DECODE_KINDS:
        model = tm.ToyLM(bench.bench_model_config(spec, kind, 32, T))
        state = model.init_state(batch=B, capacity=T)
        tokens, logits = np.zeros((B, T), dtype=np.intp), np.zeros((B, T, spec.vocab))
        nxt = None
        for t in range(T):
            logits[:, t] = model.step(prompt[:, t] if t < P else nxt, state)
            nxt = tokens[:, t] = logits[:, t].argmax(axis=-1)
        out[f"decode/{kind}/tokens"] = tokens
        out[f"decode/{kind}/logits"] = logits

    # tm.train, held-out forward and tm.greedy_decode of both model kinds
    task = tm.TaskSpec(kind="copy", min_len=8, max_len=8, vocab=16)
    small = dict(layers=2, d_model=32, heads=4, ffn_mult=2, vocab=16, max_positions=18,
                 batch_size=4, causal=site("mlp", 8), seed=SEED)
    models = {
        "lm": tm.ToyLM(tm.ToyModelConfig(**small), rng=make_rng(SEED)),
        "s2s": tm.ToySeq2Seq(tm.ToyModelConfig(encoder=site("mlp", 8), cross=site("mlp", 8), **small),
                             rng=make_rng(SEED)),
    }
    for name, model in models.items():
        out[f"{name}/train/curve"] = tm.train(model, task, STEPS, make_rng(SEED + 2))
        for k, v in model.params.items():
            out[f"{name}/train/param/{k}"] = v
        held = make_rng(SEED + 3)
        if name == "lm":
            tokens, _ = tm.TaskSampler(task).sample(4, held)
            logits, _ = model.forward(tokens)
            prompt = tokens[:, :10]  # BOS, the payload, SEP
        else:
            prompt, tgt_in, _, _ = tm.TaskSampler(task).sample_pair(4, held)
            logits, _ = model.forward(prompt, tgt_in)
        out[f"{name}/heldout/logits"] = logits
        out[f"{name}/heldout/argmax"] = logits.argmax(axis=-1)
        out[f"{name}/greedy"] = tm.greedy_decode(model, prompt, 8)

    for res in verify.run_suites():
        out[f"verify/{res.name}/max_err"] = res.max_err

    # one encoder_self layer under a weightless control
    c = att.AttentionConfig(heads=4, d_model=64, site="encoder_self",
                            strategy=att.StrategySpec(kind="compressive", ratio=2), n=32)
    X, dY = make_rng(59).normal(size=(8, 64, 64)), make_rng(60).normal(size=(8, 64, 64))
    _, tape = att.mha_forward(X, None, att.init_layer_params(c, make_rng(SEED)), c)
    grads, dX, _ = att.mha_backward(tape, dY, X)
    out["compressive_encoder_self/dX"] = dX
    for k, v in grads.items():
        out[f"compressive_encoder_self/grad/{k}"] = v

    np.savez(path, **{k: np.asarray(v) for k, v in out.items()})


def _run_probe(tree: Path, path: Path) -> None:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", str(tree), str(path)],
                   env=env, check=True)


def compare(ours: dict, theirs: dict) -> int:
    """Print the comparison; returns the number of differing arrays."""
    import numpy as np

    names = sorted(set(ours) | set(theirs))
    equal, transposed, differ = 0, [], []
    for k in names:
        if k not in ours or k not in theirs:
            differ.append(f"{k}: only in {'the working tree' if k in ours else 'REV'}")
            continue
        a, b = ours[k], theirs[k]
        if a.shape == b.shape and np.array_equal(a, b):
            equal += 1
        elif a.ndim == 2 and a.shape == b.shape[::-1] and np.array_equal(a, b.T):
            equal += 1
            transposed.append(k)
        elif a.shape == b.shape:
            differ.append(f"{k}: max |diff| {float(np.max(np.abs(a - b))):.3e}")
        else:
            differ.append(f"{k}: shape {a.shape} against {b.shape}")
    print(f"{equal}/{len(names)} arrays equal")
    if transposed:
        groups = Counter(k.split("/")[0] for k in transposed)
        print(f"equal when compared transposed: {len(transposed)} "
              f"({', '.join(f'{g} {n}' for g, n in groups.items())})")
    for line in differ:
        print(f"differs: {line}")
    return len(differ)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", help="git revision to compare the working tree with")
    p.add_argument("--probe", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe:
        probe(Path(args.probe[0]), Path(args.probe[1]))
        return 0
    if not args.against:
        p.error("--against REV is required")
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp = Path(tmp)
        archive = tmp / "rev.tar"
        with open(archive, "wb") as f:
            subprocess.run(["git", "-C", str(ROOT), "archive", args.against], stdout=f, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp / "rev", filter="data")
        results = {}
        for side, tree in (("ours", ROOT), ("theirs", tmp / "rev")):
            _run_probe(tree, tmp / f"{side}.npz")
            with np.load(tmp / f"{side}.npz") as z:
                results[side] = {k: z[k] for k in z.files}
    return 1 if compare(results["ours"], results["theirs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
