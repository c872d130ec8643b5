import json
import os

import numpy as np
import pytest

from boundedattn.cli import main


def run(argv):
    return main(argv)


def tiny_train_cfg(tmp_path, **extra):
    cfg = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "model": {
            "layers": 1, "d_model": 16, "heads": 2, "ffn_mult": 2, "vocab": 16,
            "max_positions": 16, "warmup_steps": 2, "batch_size": 2,
        },
        "strategy": {"kind": "mlp", "n": 4},
        "train": {"task": "copy", "steps": 3, "min_len": 4, "max_len": 4, "vocab": 16,
                  "eval_batches": 2},
    }
    for k, v in extra.items():
        cfg[k] = v
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_verify_single_suite_exit_zero(capsys):
    assert run(["verify", "--suite", "softmax-recovery"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "softmax-recovery" in out


def test_verify_unknown_suite_exit_two(capsys):
    assert run(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_unknown_config_key_reports_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"task": "copy", "stepz": 5}}))
    assert run(["train", "--config", str(path)]) == 2
    assert "train.stepz" in capsys.readouterr().err


def test_unknown_normalization_is_a_config_error(tmp_path, capsys):
    cfg = tiny_train_cfg(tmp_path, strategy={"kind": "mlp", "n": 4, "normalization": "bogus"})
    assert run(["train", "--config", str(cfg)]) == 2
    assert "normalization" in capsys.readouterr().err


def test_train_writes_checkpoint_and_curve(tmp_path, capsys):
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "model.bin").exists()
    assert (out / "model.json").exists()
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "step,loss,accuracy"
    assert len(curve) == 4  # header + 3 steps
    assert "heldout_accuracy" in capsys.readouterr().out


def test_train_outputs_are_deterministic(tmp_path):
    base = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(base), "--out", str(tmp_path / "a")]) == 0
    assert run(["train", "--config", str(base), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "model.bin").read_bytes() == (tmp_path / "b" / "model.bin").read_bytes()
    assert (tmp_path / "a" / "curve.csv").read_text() == (tmp_path / "b" / "curve.csv").read_text()


def test_flags_override_config(tmp_path):
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg), "--steps", "2"]) == 0
    curve = (tmp_path / "out" / "curve.csv").read_text().splitlines()
    assert len(curve) == 3  # header + 2 steps


def test_outdir_env_override(tmp_path, monkeypatch):
    cfg = tiny_train_cfg(tmp_path)
    monkeypatch.setenv("BOUNDEDATTN_OUTDIR", str(tmp_path / "envout"))
    assert run(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "model.bin").exists()


def test_decode_missing_checkpoint_exit_two(tmp_path, capsys):
    assert run(["decode", "--ckpt", str(tmp_path / "missing.bin")]) == 2
    assert "not found" in capsys.readouterr().err


def test_decode_after_train(tmp_path, capsys):
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "model.bin"
    assert run(["decode", "--ckpt", str(ckpt), "--prefix", "0,2,3", "--max-len", "5"]) == 0
    tokens = capsys.readouterr().out.strip().split()
    assert len(tokens) == 5
    assert all(0 <= int(t) < 16 for t in tokens)


@pytest.mark.parametrize("model", [{}, {"ffn_mult": 1, "vocab": 64}], ids=["default", "square"])
def test_decode_refuses_a_checkpoint_in_the_earlier_dense_layout(tmp_path, capsys, model):
    # the earlier layout stored every dense weight but ffn.w1 (d_out, d_in),
    # in a container whose header named no layout.  With ffn_mult 1 and
    # vocab = d_model every one of its shapes is the model's, so only the
    # header can refuse it
    import copy

    from boundedattn import checkpoint
    from boundedattn import toymodel as tm
    from boundedattn.cli import DEFAULTS, model_config_from

    cfg = copy.deepcopy(DEFAULTS)
    cfg["model"].update(model)
    params = tm.ToyLM(model_config_from(cfg)).params
    earlier = (".wq", ".wk", ".wv", ".wo", ".ffn.w2", "out_w")
    old = {k: (v.T if k.endswith(earlier) else v) for k, v in params.items()}
    assert all(old[k].shape == v.shape for k, v in params.items()) == bool(model)
    ckpt = tmp_path / "model.bin"
    checkpoint.save_arrays(ckpt, old)
    layout = f"\n{checkpoint.DENSE_LAYOUT}".encode()
    ckpt.write_bytes(ckpt.read_bytes().replace(layout, b"", 1))  # the earlier header
    (tmp_path / "model.json").write_text(json.dumps({"model": model}))
    assert run(["decode", "--ckpt", str(ckpt)]) == 2
    assert "dense weights were stored (d_out, d_in)" in capsys.readouterr().err


def test_bench_grid_row_count(tmp_path, capsys):
    cfg = {
        "out_dir": str(tmp_path / "b"),
        "bench": {"strategies": ["mlp", "window"], "lens": [8, 16, 24], "n": [2, 4],
                  "batch": 2, "reps": 3, "warmup": 2, "layers": 1, "d_model": 16,
                  "heads": 2, "ffn_mult": 2, "vocab": 16},
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path)]) == 0
    rows = (tmp_path / "b" / "bench.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 3


def test_bench_writes_its_environment_beside_the_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = {
        "out_dir": str(tmp_path / "b"),
        "bench": {"strategies": ["window"], "lens": [8], "n": [2], "batch": 2, "reps": 3,
                  "warmup": 2, "layers": 1, "d_model": 16, "heads": 2, "ffn_mult": 2, "vocab": 16},
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path)]) == 0
    env = json.loads((tmp_path / "b" / "env.json").read_text())
    assert env["numpy"] == np.__version__
    assert env["blas"] == {k: np.show_config(mode="dicts")["Build Dependencies"]["blas"][k]
                           for k in ("name", "version")}
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    assert env["cpu_count"] == os.cpu_count()


def test_bench_flag_overrides(tmp_path):
    cfg = {
        "out_dir": str(tmp_path / "b2"),
        "bench": {"strategies": ["mlp"], "lens": [8], "n": [2], "batch": 2, "reps": 3,
                  "warmup": 2, "layers": 1, "d_model": 16, "heads": 2, "ffn_mult": 2,
                  "vocab": 16},
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path), "--strategy", "window,softmax",
                "--lens", "8,16"]) == 0
    rows = (tmp_path / "b2" / "bench.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 1 * 2
    assert all(r.split(",")[0] in ("window", "softmax") for r in rows[1:])


def test_bench_failed_cell_exits_one_with_its_cause(tmp_path, monkeypatch, capsys):
    from boundedattn import bench as bm

    real = bm._timed_decode

    def timed(model, batch, N, warmup):
        if N == 16:
            raise ValueError("forced failure")
        return real(model, batch, N, warmup)

    monkeypatch.setattr(bm, "_timed_decode", timed)
    cfg = {
        "out_dir": str(tmp_path / "b3"),
        "bench": {"strategies": ["mlp"], "lens": [8, 16], "n": [2], "batch": 2, "reps": 3,
                  "warmup": 2, "layers": 1, "d_model": 16, "heads": 2, "ffn_mult": 2,
                  "vocab": 16},
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path)]) == 1
    assert "mlp n=2 N=16 failed: ValueError: forced failure" in capsys.readouterr().err
    rows = (tmp_path / "b3" / "bench.csv").read_text().splitlines()
    assert rows[1].endswith(",") and rows[2].endswith(",ValueError: forced failure")


def test_diverging_training_exits_one(tmp_path, capsys, monkeypatch):
    # a non-finite loss at the first step, which the trainer must report
    def nan_loss(logits, tokens, mask):
        return float("nan"), 0.0, np.zeros_like(logits)

    monkeypatch.setattr("boundedattn.toymodel.masked_cross_entropy", nan_loss)
    code = run(["train", "--config", str(tiny_train_cfg(tmp_path))])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_relu_control_at_the_causal_site_is_a_config_error(tmp_path, capsys):
    # its prefix normalizer is zero until a slot's first positive pre-activation
    cfg = tiny_train_cfg(tmp_path, strategy={"kind": "mlp", "n": 32, "activation": "relu"})
    assert run(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strategy.activation" in err
    assert not (tmp_path / "out").exists()


def test_verify_json_prints_one_object_per_suite(capsys):
    assert run(["verify", "--json", "--suite", "param-tying"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"name", "passed", "max_err", "tolerance", "seconds", "detail"}
    assert record["name"] == "param-tying" and record["passed"] is True
    assert run(["verify", "--json", "--suite", "nope"]) == 2


# The config schema as it was written out by hand before cli.py derived it
# from the dataclasses: the reference the derived schema must keep.
OLD_SCHEMA = {
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

OLD_DEFAULTS = {
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

# model.json as the hand-written schema's CLI wrote it for tiny_train_cfg
OLD_SIDECAR = {
    "bench": {"batch": 16, "d_model": 256, "ffn_mult": 2, "heads": 4, "layers": 2,
              "lens": [256, 512, 1024, 2048, 4096], "n": [32], "reps": 3,
              "strategies": ["mlp", "window", "softmax"], "vocab": 32, "warmup": 32},
    "decode": {"ckpt": None, "max_len": 32, "prefix": [0]},
    "model": {"batch_size": 2, "beta1": 0.9, "beta2": 0.999, "clip_norm": 1.0, "d_model": 16,
              "eps": 1e-08, "ffn_mult": 2, "heads": 2, "layers": 1, "lr": 0.001,
              "max_positions": 16, "temperature": None, "tie_phi_across_layers": True,
              "vocab": 16, "warmup_steps": 2},
    "out_dir": "out",
    "seed": 3,
    "strategy": {"activation": "exp", "cluster_iters": 10, "global_positions": [], "kind": "mlp",
                 "max_len": 512, "n": 4, "normalization": "auto", "ratio": 4, "seed": 0},
    "train": {"corpus": None, "eval_batches": 2, "max_len": 4, "min_len": 4, "steps": 3,
              "task": "copy", "vocab": 16},
}


def test_derived_schema_equals_the_hand_written_one():
    # the hand-written schema without its retired keys, which configs and
    # sidecars may still carry but which new ones no longer hold
    from boundedattn.cli import DEFAULTS, KEYS, RETIRED

    assert {s: set(keys) for s, keys in RETIRED.items()} == {
        "model": {"temperature", "tie_phi_across_layers"},
        "strategy": {"activation", "normalization"},
    }
    sections = {k for k, v in KEYS.items() if isinstance(v, dict)}
    assert {"": set(KEYS), **{s: set(KEYS[s]) for s in sections}} == {
        s: keys - set(RETIRED.get(s, ())) for s, keys in OLD_SCHEMA.items()}
    assert DEFAULTS == {
        k: {key: v for key, v in value.items() if key not in RETIRED.get(k, ())}
        if isinstance(value, dict) else value
        for k, value in OLD_DEFAULTS.items()}
    # each retired key still loads at the value the hand-written default had
    for section, keys in RETIRED.items():
        for key, (_, legal) in keys.items():
            assert OLD_DEFAULTS[section][key] in legal, (section, key)


def test_every_flag_names_a_config_key():
    from boundedattn.cli import DEFAULTS, FLAGS

    for command, flags in FLAGS.items():
        for flag, paths in flags.items():
            for path in paths.split():
                node = DEFAULTS
                for part in path.split("."):
                    assert part in node, (command, flag, path)
                    node = node[part]


def test_decode_loads_a_sidecar_written_before_the_derived_schema(tmp_path, capsys):
    # OLD_SIDECAR carries the four retired keys at their one values
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "model.bin"
    saved = json.loads((tmp_path / "out" / "model.json").read_text())
    assert not {"temperature", "tie_phi_across_layers"} & set(saved["model"])
    assert not {"activation", "normalization"} & set(saved["strategy"])
    argv = ["decode", "--ckpt", str(ckpt), "--prefix", "0,2,3", "--max-len", "5"]
    capsys.readouterr()
    assert run(argv) == 0
    tokens = capsys.readouterr().out
    (tmp_path / "out" / "model.json").write_text(json.dumps(OLD_SIDECAR, indent=2, sort_keys=True))
    assert run(argv) == 0
    assert capsys.readouterr().out == tokens


def test_decode_rejects_a_sidecar_string_for_a_number(tmp_path, capsys):
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "model.bin"
    sidecar = json.loads(json.dumps(OLD_SIDECAR))
    sidecar["model"]["layers"] = "1"
    (tmp_path / "out" / "model.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run(["decode", "--ckpt", str(ckpt), "--prefix", "0,2"]) == 2
    assert "model.layers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad, name", [
    (["train", "--n", "abc"], {}, "--n"),
    (["bench", "--lens", "8,x"], {}, "--lens"),
    (["decode", "--prefix", "0,a"], {}, "--prefix"),
    (["train"], {"out_dir": 5}, "out_dir"),
    (["train"], {"model": {"temperature": "abc"}}, "model.temperature"),
    (["train"], {"model": {"tie_phi_across_layers": "false"}}, "model.tie_phi_across_layers"),
    (["train"], {"model": {"warmup_steps": 2.7}}, "model.warmup_steps"),
    (["train"], {"model": {"layers": True}}, "model.layers"),
    (["train"], {"model": {"lr": True}}, "model.lr"),
    (["train"], {"model": {"layers": "3"}}, "model.layers"),
    (["train"], {"model": {"lr": "1e-2"}}, "model.lr"),
    # retired keys at another value than their one
    (["train"], {"model": {"temperature": 0.5}}, "model.temperature"),
    (["train"], {"model": {"tie_phi_across_layers": False}}, "model.tie_phi_across_layers"),
    (["train"], {"model": {"tie_phi_across_layers": 1}}, "model.tie_phi_across_layers"),
], ids=["train-n", "bench-lens", "decode-prefix", "out_dir", "model.temperature",
        "bool-from-string", "int-from-fraction", "int-from-bool", "float-from-bool",
        "int-from-string", "float-from-string", "retired-temperature", "retired-untied",
        "retired-tie-as-one"])
def test_bad_value_exits_two_naming_its_flag_or_key(tmp_path, capsys, argv, bad, name):
    path = tiny_train_cfg(tmp_path)
    cfg = json.loads(path.read_text())
    for key, value in bad.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err


def test_decode_rejects_an_empty_prefix(tmp_path, capsys):
    cfg = tiny_train_cfg(tmp_path)
    assert run(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert run(["decode", "--ckpt", str(tmp_path / "out" / "model.bin"), "--prefix", ""]) == 2
    assert "decode.prefix is empty" in capsys.readouterr().err


def _trained_checkpoint(tmp_path, capsys):
    assert run(["train", "--config", str(tiny_train_cfg(tmp_path))]) == 0
    capsys.readouterr()
    return tmp_path / "out" / "model.bin"


def test_decode_refuses_a_checkpoint_holding_nan(tmp_path, capsys):
    from boundedattn import checkpoint

    ckpt = _trained_checkpoint(tmp_path, capsys)
    arrays = checkpoint.load_arrays(ckpt)
    arrays["out_w"][3, 1] = np.nan
    checkpoint.save_arrays(ckpt, arrays)
    assert run(["decode", "--ckpt", str(ckpt), "--prefix", "0,2", "--max-len", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "'out_w' holds NaN or Inf" in captured.err


def test_decode_that_overflows_exits_one(tmp_path, capsys):
    # a finite checkpoint whose query projection overflows at the first step
    from boundedattn import checkpoint

    ckpt = _trained_checkpoint(tmp_path, capsys)
    arrays = checkpoint.load_arrays(ckpt)
    arrays["dec0.attn.wq"][:] = 1e308
    checkpoint.save_arrays(ckpt, arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["decode", "--ckpt", str(ckpt), "--prefix", "0,2", "--max-len", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("decode failed: dec0 attn (causal, mlp):"), err
