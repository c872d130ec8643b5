import json

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


def test_decode_refuses_a_checkpoint_in_the_old_input_major_layout(tmp_path, capsys):
    # before the (d_out, d_in) weight layout, the default config's ffn.w1 was
    # stored (64, 256) and out_w (64, 32): the shape check must refuse them
    import copy

    from boundedattn import checkpoint
    from boundedattn import toymodel as tm
    from boundedattn.cli import DEFAULTS, model_config_from

    model = tm.ToyLM(model_config_from(copy.deepcopy(DEFAULTS)))
    dense = (".wq", ".wk", ".wv", ".wo", ".ffn.w1", ".ffn.w2", "out_w")
    old = {k: (v.T if k.endswith(dense) else v) for k, v in model.params.items()}
    assert old["dec0.ffn.w1"].shape == (64, 256) and old["out_w"].shape == (64, 32)
    ckpt = tmp_path / "old.bin"
    checkpoint.save_arrays(ckpt, old)
    assert run(["decode", "--ckpt", str(ckpt)]) == 2
    assert "has shape (64, 256), model wants (256, 64)" in capsys.readouterr().err


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


def test_diverging_training_exits_one(tmp_path, capsys):
    # relu control in causal mode: some slot's running normalizer is exactly
    # zero at the first step, a non-finite readout the trainer must report
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"),
        "model": {"layers": 1, "d_model": 16, "heads": 2, "ffn_mult": 2, "vocab": 16,
                  "max_positions": 16, "warmup_steps": 0, "batch_size": 2},
        "strategy": {"kind": "mlp", "n": 32, "activation": "relu"},
        "train": {"task": "copy", "steps": 5, "min_len": 4, "max_len": 4, "vocab": 16},
    }))
    code = run(["train", "--config", str(cfg_path)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
