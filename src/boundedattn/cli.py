"""Command-line front end: verify / bench / train / decode.

Configuration is a strict JSON document (unknown keys are fatal, reported by
key path); every value has a flag equivalent and flags win on conflict.  Exit
codes: 0 success, 1 verification or training failure, 2 usage/config errors.
The output directory may be overridden with the BOUNDEDATTN_OUTDIR
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import checkpoint
from . import toymodel as tm
from .attention import STRATEGY_KINDS, StrategySpec
from .numerics import make_rng
from .verify import SUITES, run_suites

# allowed keys per config section; strict parsing rejects anything else
SCHEMA = {
    "": {"seed", "out_dir", "model", "strategy", "train", "decode", "bench"},
    "model": {
        "layers", "d_model", "heads", "ffn_mult", "vocab", "max_positions",
        "temperature", "tie_phi_across_layers", "lr", "beta1", "beta2", "eps",
        "clip_norm", "warmup_steps", "batch_size",
    },
    "strategy": {
        "kind", "n", "activation", "normalization", "seed", "ratio",
        "global_positions", "cluster_iters", "max_len",
    },
    "train": {"task", "steps", "min_len", "max_len", "vocab", "corpus", "eval_batches"},
    "decode": {"ckpt", "prefix", "max_len"},
    "bench": {
        "strategies", "lens", "n", "batch", "reps", "warmup",
        "layers", "d_model", "heads", "ffn_mult", "vocab",
    },
}

DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "model": {
        "layers": 2, "d_model": 64, "heads": 4, "ffn_mult": 4, "vocab": 32,
        "max_positions": 130, "temperature": None, "tie_phi_across_layers": True,
        "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
        "clip_norm": 1.0, "warmup_steps": 100, "batch_size": 8,
    },
    "strategy": {
        "kind": "mlp", "n": 32, "activation": "exp", "normalization": "auto",
        "seed": 0, "ratio": 4, "global_positions": [], "cluster_iters": 10,
        "max_len": 512,
    },
    "train": {
        "task": "copy", "steps": 2000, "min_len": 64, "max_len": 64,
        "vocab": 32, "corpus": None, "eval_batches": 8,
    },
    "decode": {"ckpt": None, "prefix": [0], "max_len": 32},
    "bench": {
        "strategies": ["mlp", "window", "softmax"], "lens": [256, 512, 1024, 2048, 4096],
        "n": [32], "batch": 16, "reps": 3, "warmup": 32,
        "layers": 2, "d_model": 256, "heads": 4, "ffn_mult": 2, "vocab": 32,
    },
}


class ConfigError(ValueError):
    pass


def _check_keys(doc: dict, section: str):
    allowed = SCHEMA[section]
    for key, value in doc.items():
        path = f"{section}.{key}" if section else key
        if key not in allowed:
            raise ConfigError(f"unknown config key: {path}")
        if key in SCHEMA and isinstance(value, dict):
            _check_keys(value, key)
        elif key in SCHEMA and key in ("model", "strategy", "train", "decode", "bench"):
            raise ConfigError(f"config key {path} must be an object")


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        _check_keys(doc, "")
        for key, value in doc.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x != ""]


def apply_overrides(cfg: dict, args) -> dict:
    """Flag values (when given) replace their config-file equivalents."""
    ov = {
        "seed": ("seed",),
        "out": ("out_dir",),
        "strategy": ("strategy", "kind"),
        "n": ("strategy", "n"),
        "activation": ("strategy", "activation"),
        "steps": ("train", "steps"),
        "task": ("train", "task"),
        "length": ("train", "min_len"),
        "vocab": ("train", "vocab"),
        "corpus": ("train", "corpus"),
        "ckpt": ("decode", "ckpt"),
        "prefix": ("decode", "prefix"),
        "max_len": ("decode", "max_len"),
        "lens": ("bench", "lens"),
        "bench_n": ("bench", "n"),
        "batch": ("bench", "batch"),
        "reps": ("bench", "reps"),
    }
    for flag, path in ov.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag in ("lens", "bench_n"):
            value = _parse_ints(value)
        if flag == "n":
            value = int(value)
        if flag == "prefix":
            value = _parse_ints(value)
        if flag == "length":
            cfg["train"]["min_len"] = int(value)
            cfg["train"]["max_len"] = int(value)
            continue
        node = cfg
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
    out_env = os.environ.get("BOUNDEDATTN_OUTDIR")
    if out_env:
        cfg["out_dir"] = out_env
    return cfg


def strategy_from_config(sc: dict) -> StrategySpec:
    if sc["kind"] not in STRATEGY_KINDS:
        raise ConfigError(f"strategy.kind must be one of {STRATEGY_KINDS}, got {sc['kind']!r}")
    try:
        return StrategySpec(
            kind=sc["kind"],
            activation=sc["activation"],
            normalization=sc["normalization"],
            seed=int(sc["seed"]),
            ratio=int(sc["ratio"]),
            global_positions=tuple(int(p) for p in sc["global_positions"]),
            cluster_iters=int(sc["cluster_iters"]),
            max_len=int(sc["max_len"]),
        )
    except ValueError as e:
        raise ConfigError(str(e))


def model_config_from(cfg: dict) -> tm.ToyModelConfig:
    mc = cfg["model"]
    spec = strategy_from_config(cfg["strategy"])
    try:
        return tm.ToyModelConfig(
            layers=int(mc["layers"]),
            d_model=int(mc["d_model"]),
            heads=int(mc["heads"]),
            ffn_mult=int(mc["ffn_mult"]),
            vocab=int(mc["vocab"]),
            max_positions=int(mc["max_positions"]),
            causal=tm.SiteSpec(spec, int(cfg["strategy"]["n"])),
            temperature=mc["temperature"],
            tie_phi_across_layers=bool(mc["tie_phi_across_layers"]),
            lr=float(mc["lr"]),
            beta1=float(mc["beta1"]),
            beta2=float(mc["beta2"]),
            eps=float(mc["eps"]),
            clip_norm=float(mc["clip_norm"]),
            warmup_steps=int(mc["warmup_steps"]),
            batch_size=int(mc["batch_size"]),
            seed=int(cfg["seed"]),
        )
    except ValueError as e:
        raise ConfigError(str(e))


def _outdir(cfg) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    try:
        results = run_suites(names)
    except KeyError:
        print(f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}", file=sys.stderr)
        return 2
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def cmd_bench(cfg) -> int:
    bc = cfg["bench"]
    try:
        spec = bench_mod.BenchSpec(
            strategies=tuple(bc["strategies"]),
            lengths=tuple(int(x) for x in bc["lens"]),
            n_values=tuple(int(x) for x in bc["n"]),
            batch=int(bc["batch"]),
            repetitions=int(bc["reps"]),
            warmup=int(bc["warmup"]),
            layers=int(bc["layers"]),
            d_model=int(bc["d_model"]),
            heads=int(bc["heads"]),
            ffn_mult=int(bc["ffn_mult"]),
            vocab=int(bc["vocab"]),
            seed=int(cfg["seed"]),
        )
    except ValueError as e:
        raise ConfigError(str(e))
    records = bench_mod.run_decode_bench(spec, progress=lambda s: print(f"  {s}", flush=True))
    out = _outdir(cfg) / "bench.csv"
    bench_mod.emit_csv(records, out)
    print(bench_mod.CSV_HEADER)
    for r in records:
        print(
            f"{r.strategy},{r.N},{r.n},{r.batch},"
            f"{r.latency_median_s:.6f},{r.latency_p90_s:.6f},{r.state_bytes},{r.wall_s:.3f}"
            + (" FAILED" if r.failed else "")
        )
    print(f"wrote {out}")
    failed = [r for r in records if r.failed]
    for r in failed:
        print(f"{r.strategy} n={r.n} N={r.N} failed: {r.failure}", file=sys.stderr)
    return 1 if failed else 0


def cmd_train(cfg) -> int:
    model_cfg = model_config_from(cfg)
    tc = cfg["train"]
    try:
        task = tm.TaskSpec(
            kind=tc["task"],
            min_len=int(tc["min_len"]),
            max_len=int(tc["max_len"]),
            vocab=int(tc["vocab"]),
            corpus_path=tc["corpus"],
        )
    except ValueError as e:
        raise ConfigError(str(e))
    model = tm.ToyLM(model_cfg)
    try:
        curve = tm.train(model, task, int(tc["steps"]), make_rng(int(cfg["seed"])))
    except (tm.TrainingDiverged, ArithmeticError) as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1
    out = _outdir(cfg)
    checkpoint.save_arrays(out / "model.bin", model.params)
    tm.save_curve_csv(out / "curve.csv", curve)
    (out / "model.json").write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    acc = tm.evaluate_accuracy(
        model, tm.TaskSampler(task), int(tc["eval_batches"]), make_rng(int(cfg["seed"]) + 10_000)
    )
    final_loss = curve[-1][1] if curve else float("nan")
    print(f"steps={len(curve)} final_loss={final_loss:.4f} heldout_accuracy={acc:.4f}")
    print(f"wrote {out / 'model.bin'} and {out / 'curve.csv'}")
    return 0


def cmd_decode(cfg) -> int:
    dc = cfg["decode"]
    if not dc["ckpt"]:
        raise ConfigError("decode.ckpt is required")
    ckpt_path = Path(dc["ckpt"])
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    sidecar = ckpt_path.with_suffix(".json")
    if sidecar.exists():
        saved = json.loads(sidecar.read_text(encoding="utf-8"))
        _check_keys(saved, "")
        for key in ("model", "strategy"):
            cfg[key].update(saved.get(key, {}))
        cfg["seed"] = saved.get("seed", cfg["seed"])
    model_cfg = model_config_from(cfg)
    model = tm.ToyLM(model_cfg)
    loaded = checkpoint.load_arrays(ckpt_path)
    if set(loaded) != set(model.params):
        missing = set(model.params) ^ set(loaded)
        raise ConfigError(f"checkpoint does not match the model config (mismatched: {sorted(missing)[:4]}...)")
    for k, v in loaded.items():
        if v.shape != model.params[k].shape:
            raise ConfigError(f"checkpoint array {k} has shape {v.shape}, model wants {model.params[k].shape}")
        model.params[k] = v
    prefix = np.array([dc["prefix"]], dtype=np.intp)
    if prefix.min() < 0 or prefix.max() >= model_cfg.vocab:
        raise ConfigError("decode.prefix contains out-of-vocabulary ids")
    out = tm.greedy_decode(model, prefix, int(dc["max_len"]))
    print(" ".join(str(int(t)) for t in out[0]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boundedattn",
        description="bounded-memory attention: verification, training, decoding, benchmarks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run equivalence/causality/gradient suites")
    pv.add_argument("--suite", help=f"one of: {', '.join(SUITES)}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")

    pb = sub.add_parser("bench", parents=[common], help="decode latency/memory sweep, CSV out")
    pb.add_argument("--strategy", help="comma-separated strategies")
    pb.add_argument("--n", dest="bench_n", help="comma-separated memory sizes")
    pb.add_argument("--lens", help="comma-separated sequence lengths")
    pb.add_argument("--batch", type=int)
    pb.add_argument("--reps", type=int)

    pt = sub.add_parser("train", parents=[common], help="train the toy LM on a task")
    pt.add_argument("--strategy", help="strategy kind for causal attention")
    pt.add_argument("--n", help="memory slots")
    pt.add_argument("--activation")
    pt.add_argument("--task", choices=("copy", "reverse", "char_lm"))
    pt.add_argument("--steps", type=int)
    pt.add_argument("--length", type=int, help="payload length (fixes min=max)")
    pt.add_argument("--vocab", type=int)
    pt.add_argument("--corpus")

    pd = sub.add_parser("decode", parents=[common], help="greedy-decode from a checkpoint")
    pd.add_argument("--ckpt")
    pd.add_argument("--prefix", help="comma-separated token ids")
    pd.add_argument("--max-len", dest="max_len", type=int)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = apply_overrides(load_config(args.config), args)
        if args.command == "bench":
            if getattr(args, "strategy", None):
                cfg["bench"]["strategies"] = [s for s in args.strategy.split(",") if s]
            return cmd_bench(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "decode":
            return cmd_decode(cfg)
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
