"""Command-line front end: verify / bench / train / decode.

Configuration is a strict JSON document (unknown keys are fatal, reported by
key path).  The sections ``model``, ``strategy``, ``train`` and ``bench``
take their keys, defaults and value types from the dataclasses they fill
(``ToyModelConfig``, ``StrategySpec``, ``TaskSpec``, ``BenchSpec``); the
tables below name only what differs.  A retired key, one that chose an
option which now has a single value, still loads at that value and is
dropped; any other value of it is an error.  Flags win over the config
file.  Exit codes: 0 success, 1 verification, training or decode failure,
2 usage/config errors.
The output directory may be overridden with the BOUNDEDATTN_OUTDIR
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import checkpoint
from . import toymodel as tm
from .attention import StrategySpec
from .numerics import make_rng
from .verify import SUITES, run_suites

# the dataclass each config section fills
SECTIONS = {
    "model": tm.ToyModelConfig, "strategy": StrategySpec,
    "train": tm.TaskSpec, "bench": bench_mod.BenchSpec,
}
# config key -> dataclass field, where the two names differ
RENAMED = {
    "train": {"task": "kind", "corpus": "corpus_path"},
    "bench": {"lens": "lengths", "n": "n_values", "reps": "repetitions"},
}
# fields the CLI sets itself, from other keys; they are not config keys
CLI_SET = {"model": {"causal", "encoder", "cross", "seed"}, "bench": {"seed"}}
# (type, default) of the keys that no field holds, or whose field has no default
EXTRA = {
    "": {"seed": (int, 0), "out_dir": (str, "out")},
    "strategy": {"kind": (str, "mlp"), "n": (int, 32)},
    "train": {"task": (str, "copy"), "steps": (int, 2000), "eval_batches": (int, 8)},
    "decode": {"ckpt": (str | None, None), "prefix": (tuple[int, ...], (0,)), "max_len": (int, 32)},
}
# retired keys -> (type, the values they may still carry): the readout
# temperature is sqrt(d_head) (null), every layer shares one phi per site
# (true), and the learned control is exp with the prefix normalizer
RETIRED = {
    "model": {"temperature": (float | None, (None,)), "tie_phi_across_layers": (bool, (True,))},
    "strategy": {"activation": (str, ("exp",)), "normalization": (str, ("auto", "prefix"))},
}


def _section_keys(section: str, cls) -> dict:
    key_of = {field: key for key, field in RENAMED.get(section, {}).items()}
    hints = typing.get_type_hints(cls)
    keys = {
        key_of.get(f.name, f.name): (hints[f.name], f.default)
        for f in dataclasses.fields(cls) if f.name not in CLI_SET.get(section, ())
    }
    return {**keys, **EXTRA.get(section, {})}


# the schema: top-level key -> (type, default), section -> {key: (type, default)}
KEYS = {
    **EXTRA[""], "decode": EXTRA["decode"],
    **{section: _section_keys(section, cls) for section, cls in SECTIONS.items()},
}


def _defaults(keys: dict) -> dict:
    return {k: _defaults(v) if isinstance(v, dict) else v[1] for k, v in keys.items()}


DEFAULTS = json.loads(json.dumps(_defaults(KEYS)))  # tuples become JSON lists

_COMMON = {"seed": "seed", "out": "out_dir"}
# flag -> the config keys it sets (space-separated), per command
FLAGS = {
    "bench": {
        **_COMMON, "strategy": "bench.strategies", "n": "bench.n", "lens": "bench.lens",
        "batch": "bench.batch", "reps": "bench.reps",
    },
    "train": {
        **_COMMON, "strategy": "strategy.kind", "n": "strategy.n",
        "task": "train.task", "steps": "train.steps",
        "length": "train.min_len train.max_len", "vocab": "train.vocab", "corpus": "train.corpus",
    },
    "decode": {
        **_COMMON, "ckpt": "decode.ckpt", "prefix": "decode.prefix", "max-len": "decode.max_len",
    },
}


class ConfigError(ValueError):
    pass


def _check_keys(doc: dict, keys: dict = KEYS, prefix: str = "") -> dict:
    """``doc`` without its retired keys; a ConfigError names an unknown key,
    a section that is not an object or a retired key at another value."""
    out = {}
    for key, value in doc.items():
        path = prefix + key
        retired = RETIRED.get(prefix[:-1], {}).get(key)
        if retired is not None:
            typ, legal = retired
            if _convert(value, typ, path) not in legal:
                raise ConfigError(
                    f"{path} is retired and takes only {' or '.join(map(json.dumps, legal))}, "
                    f"got {json.dumps(value)}")
            continue
        if key not in keys:
            raise ConfigError(f"unknown config key: {path}")
        if isinstance(keys[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path} must be an object")
            value = _check_keys(value, keys[key], path + ".")
        out[key] = value
    return out


def _key_type(path: str):
    keys = KEYS
    for part in path.split("."):
        keys = keys[part]
    return keys[0]


def _is_list(typ) -> bool:
    return typing.get_origin(typ) is tuple


def _convert(value, typ, name: str):
    """``value`` as type ``typ``; a ConfigError names the key or flag ``name``."""
    args = typing.get_args(typ)
    if type(None) in args:  # float | None, str | None
        return None if value is None else _convert(value, args[0], name)
    if _is_list(typ):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        return tuple(_convert(v, args[0], name) for v in value)
    # typ(value) alone would read "false" as True, "3" as 3, 2.7 as 2 and
    # true as 1; only flag text is parsed into numbers (see _parse_flag)
    if (typ is bool) != isinstance(value, bool) or (typ is str) != isinstance(value, str) or (
        typ is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{name}: expected {typ.__name__}, got {value!r}")
    try:
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected {typ.__name__}, got {value!r}") from None


def _typed(cfg: dict, keys: dict = KEYS, prefix: str = "") -> dict:
    """A copy of ``cfg`` with every value converted to its key's type."""
    return {
        k: _typed(v, keys[k], f"{prefix}{k}.") if isinstance(keys[k], dict)
        else _convert(v, keys[k][0], prefix + k)
        for k, v in cfg.items()
    }


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
        for key, value in _check_keys(doc).items():
            if isinstance(KEYS[key], dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def _parse_flag(text: str, typ, flag: str):
    """A flag's text as a value of ``typ``: a list splits at commas, a number parses."""
    if _is_list(typ):
        return [_parse_flag(v, typing.get_args(typ)[0], flag) for v in text.split(",") if v]
    if typ not in (int, float):
        return text
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"--{flag}: expected {typ.__name__}, got {text!r}") from None


def apply_overrides(cfg: dict, args) -> dict:
    """Flag values (when given) replace their config-file equivalents."""
    for flag, paths in FLAGS[args.command].items():
        value = getattr(args, flag)
        if value is None:
            continue
        for path in paths.split():
            typ = _key_type(path)
            items = _parse_flag(value, typ, flag)
            section, _, key = path.rpartition(".")
            (cfg[section] if section else cfg)[key] = _convert(items, typ, f"--{flag}")
    out_env = os.environ.get("BOUNDEDATTN_OUTDIR")
    if out_env:
        cfg["out_dir"] = out_env
    return cfg


def _build(section: str, values: dict, **cli_set):
    """The dataclass of a typed config section; ``cli_set`` are the fields the CLI sets."""
    cls, renamed = SECTIONS[section], RENAMED.get(section, {})
    fields = {f.name for f in dataclasses.fields(cls)}
    kw = {renamed.get(k, k): v for k, v in values.items() if renamed.get(k, k) in fields}
    try:
        return cls(**kw, **cli_set)
    except ValueError as e:
        raise ConfigError(str(e))


def model_config_from(cfg: dict) -> tm.ToyModelConfig:
    cfg = _typed(cfg)
    spec = _build("strategy", cfg["strategy"])
    causal = tm.SiteSpec(spec, cfg["strategy"]["n"])
    model_cfg = _build("model", cfg["model"], causal=causal, seed=cfg["seed"])
    try:
        model_cfg.site_config("causal")  # the strategy must fit the causal site
    except ValueError as e:
        raise ConfigError(str(e))
    return model_cfg


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
        print(json.dumps(dataclasses.asdict(r)) if args.json else r.line())
    failed = [r for r in results if not r.passed]
    if not args.json:
        print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def cmd_bench(cfg) -> int:
    spec = _build("bench", cfg["bench"], seed=cfg["seed"])
    records = bench_mod.run_decode_bench(spec, progress=lambda s: print(f"  {s}", flush=True))
    out = _outdir(cfg) / "bench.csv"
    bench_mod.emit_csv(records, out)
    env = out.with_name("env.json")
    env.write_text(json.dumps(bench_mod.environment(), indent=1) + "\n", encoding="utf-8")
    print(bench_mod.CSV_HEADER)
    for r in records:
        print(
            f"{r.strategy},{r.N},{r.n},{r.batch},"
            f"{r.latency_median_s:.6f},{r.latency_p90_s:.6f},{r.state_bytes},{r.wall_s:.3f}"
            + (" FAILED" if r.failed else "")
        )
    print(f"wrote {out} and {env}")
    failed = [r for r in records if r.failed]
    for r in failed:
        print(f"{r.strategy} n={r.n} N={r.N} failed: {r.failure}", file=sys.stderr)
    return 1 if failed else 0


def cmd_train(cfg) -> int:
    model_cfg = model_config_from(cfg)
    tc = cfg["train"]
    task = _build("train", tc)
    model = tm.ToyLM(model_cfg)
    try:
        curve = tm.train(model, task, tc["steps"], make_rng(cfg["seed"]))
    except (tm.TrainingDiverged, ArithmeticError) as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1
    out = _outdir(cfg)
    checkpoint.save_arrays(out / "model.bin", model.params)
    tm.save_curve_csv(out / "curve.csv", curve)
    (out / "model.json").write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    acc, _ = tm.evaluate(model, tm.TaskSampler(task), tc["eval_batches"], make_rng(cfg["seed"] + 10_000))
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
        saved = _check_keys(json.loads(sidecar.read_text(encoding="utf-8")))
        for key in ("model", "strategy"):
            cfg[key].update(saved.get(key, {}))
        cfg["seed"] = saved.get("seed", cfg["seed"])
    model_cfg = model_config_from(cfg)
    model = tm.ToyLM(model_cfg)
    try:
        loaded = checkpoint.load_arrays(ckpt_path)
    except ValueError as e:
        raise ConfigError(f"cannot load checkpoint {ckpt_path}: {e}") from e
    if set(loaded) != set(model.params):
        missing = set(model.params) ^ set(loaded)
        raise ConfigError(f"checkpoint does not match the model config (mismatched: {sorted(missing)[:4]}...)")
    for k, v in loaded.items():
        if v.shape != model.params[k].shape:
            raise ConfigError(f"checkpoint array {k} has shape {v.shape}, model wants {model.params[k].shape}")
        model.params[k] = v
    if not dc["prefix"]:
        raise ConfigError("decode.prefix is empty")
    prefix = np.array([dc["prefix"]], dtype=np.intp)
    if prefix.min() < 0 or prefix.max() >= model_cfg.vocab:
        raise ConfigError("decode.prefix contains out-of-vocabulary ids")
    try:
        out = tm.greedy_decode(model, prefix, dc["max_len"])
    except ArithmeticError as e:
        print(f"decode failed: {e}", file=sys.stderr)
        return 1
    print(" ".join(str(int(t)) for t in out[0]))
    return 0


COMMANDS = {
    "bench": (cmd_bench, "decode latency/memory sweep, CSV out"),
    "train": (cmd_train, "train the toy LM on a task"),
    "decode": (cmd_decode, "greedy-decode from a checkpoint"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boundedattn",
        description="bounded-memory attention: verification, training, decoding, benchmarks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run equivalence/causality/gradient suites")
    pv.add_argument("--suite", help=f"one of: {', '.join(SUITES)}")
    pv.add_argument("--json", action="store_true", help="one JSON object per suite")

    for command, (_, help_text) in COMMANDS.items():
        pc = sub.add_parser(command, help=help_text)
        pc.add_argument("--config", help="JSON config file")
        for flag, paths in FLAGS[command].items():
            keys = paths.split()
            listed = ", comma-separated" if _is_list(_key_type(keys[0])) else ""
            pc.add_argument(f"--{flag}", dest=flag, help=f"sets {' and '.join(keys)}{listed}")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _typed(apply_overrides(load_config(args.config), args))
        return COMMANDS[args.command][0](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
