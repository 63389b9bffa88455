"""CLI subcommands: files out, exit codes, determinism, grid shape."""

import json

import numpy as np
import pytest

from ttpp.cli import main, model_config, resolve_config, train_config
from ttpp.data import load_features
from ttpp.metrics import read_report_csv
from ttpp.model import ModelConfig
from ttpp.training import TrainConfig, read_history_csv

FAST = [
    "--set", "model.d_m=8",
    "--set", "model.n_heads=2",
    "--set", "model.classes=3",
    "--set", "model.seq_len=8",
    "--set", "model.horizon=2",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
    "--set", "data.n_train=3",
    "--set", "data.n_eval=2",
    "--set", "data.length=16",
]


class TestConfig:
    def test_defaults_file_flags_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.d_m = 32\ntrain.epochs = 7\n# comment\n")
        rc = resolve_config(cfg, ["train.epochs=9"])
        assert rc["model.d_m"] == 32  # from file
        assert rc["train.epochs"] == 9  # flag wins
        assert rc["train.lr"] == 0.001  # default

    def test_model_and_train_defaults_are_the_dataclass_defaults(self):
        rc = resolve_config(None, ["model.classes=6", "train.lam=0.5"])
        assert model_config(rc) == ModelConfig(n_classes=6)
        assert train_config(rc) == TrainConfig(lam=0.5)
        assert isinstance(resolve_config(None, ["model.dropout=0"])["model.dropout"], float)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.unknown = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            resolve_config(cfg, [])

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.d_m 32\n")
        with pytest.raises(ValueError, match="expected"):
            resolve_config(cfg, [])


class TestGen:
    def test_writes_loadable_files(self, tmp_path):
        rc = main(["gen", "--out-dir", str(tmp_path / "data"), *FAST])
        assert rc == 0
        train_files = sorted((tmp_path / "data" / "train").glob("*.feat"))
        held_files = sorted((tmp_path / "data" / "heldout").glob("*.feat"))
        assert len(train_files) == 3 and len(held_files) == 2
        seq = load_features(train_files[0])
        assert seq.d_m == 8 and len(seq) == 16


class TestTrainEval:
    def test_pipeline_and_determinism(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            rc = main(["train", "--data", str(data / "train"), "--out-dir", str(out), *FAST])
            assert rc == 0
        # identical config + seed -> byte-identical outputs
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest == json.loads((out2 / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"checkpoint.bin", "history.csv"}

        history = read_history_csv(out1 / "history.csv")
        assert len(history) == 2

        report = tmp_path / "report.csv"
        rc = main([
            "eval", "--checkpoint", str(out1 / "checkpoint.bin"),
            "--data", str(data / "heldout"), "--out", str(report), *FAST,
        ])
        assert rc == 0
        labels, rows = read_report_csv(report)
        assert len(labels) == 2  # horizon columns
        assert list(rows) == ["ttm-ppm"]
        assert all(0.0 <= v <= 1.0 for v in rows["ttm-ppm"])

    def test_eval_without_checkpoint_names_path(self, tmp_path, capsys):
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "missing.bin"),
            "--out", str(tmp_path / "r.csv"), *FAST,
        ])
        assert rc != 0
        assert "missing.bin" in capsys.readouterr().err

    def test_eval_refuses_checkpoint_of_another_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *FAST]) == 0
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data / "heldout"),
            "--out", str(tmp_path / "r.csv"), *FAST, "--set", "model.seq_len=4",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "seq_len (checkpoint 8, config 4)" in err
        assert "horizon" not in err

    def test_short_or_v1_checkpoint_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        path.write_bytes(b"TTPPCKPT\x02\x00")  # magic and version, no counts
        rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "r.csv"), *FAST])
        assert rc == 1
        assert "truncated/corrupt checkpoint" in capsys.readouterr().err
        path.write_bytes(b"TTPPCKPT\x01\x00" + bytes(4))  # a version-1 header
        rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "r.csv"), *FAST])
        assert rc == 1
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    def test_damaged_checkpoint_is_refused(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *FAST]) == 0
        checkpoint = run / "checkpoint.bin"
        saved = checkpoint.read_bytes()
        eval_args = [
            "eval", "--checkpoint", str(checkpoint), "--data", str(data / "heldout"),
            "--out", str(tmp_path / "r.csv"), *FAST,
        ]
        capsys.readouterr()
        checkpoint.write_bytes(saved + bytes(14))
        assert main(eval_args) == 1
        assert "14 trailing bytes" in capsys.readouterr().err
        nan = bytearray(saved)
        nan[-8:] = np.float64(np.nan).tobytes()  # last entry of the last parameter
        checkpoint.write_bytes(bytes(nan))
        assert main(eval_args) == 1
        assert "holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_damaged_feature_file_is_named(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *FAST]) == 0
        damaged = sorted((data / "heldout").glob("*.feat"))[-1]
        saved = damaged.read_bytes()
        eval_args = [
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data / "heldout"),
            "--out", str(tmp_path / "r.csv"), *FAST,
        ]
        capsys.readouterr()
        nan = bytearray(saved)
        nan[22 + 4 * 5 : 22 + 4 * 6] = np.float32(np.nan).tobytes()  # row 0, column 5
        damaged.write_bytes(bytes(nan))
        assert main(eval_args) == 1
        err = capsys.readouterr().err
        assert str(damaged) in err and "non-finite feature value" in err
        damaged.write_bytes(saved[:100])
        assert main(eval_args) == 1
        err = capsys.readouterr().err
        assert str(damaged) in err and "truncated features" in err
        assert not (tmp_path / "r.csv").exists()

    def test_files_config_needs_heldout_files(self, tmp_path, capsys):
        # data.dir is what train reads; eval and dump-attention must not score on it
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        cfg = tmp_path / "files.cfg"
        cfg.write_text(f"data.source = files\ndata.dir = {data / 'train'}\n")
        assert main(["train", "--config", str(cfg), "--out-dir", str(run), *FAST]) == 0
        checkpoint = ["--checkpoint", str(run / "checkpoint.bin")]
        for command in ("eval", "dump-attention"):
            out = tmp_path / f"{command}.csv"
            rc = main([command, "--config", str(cfg), *checkpoint, "--out", str(out), *FAST])
            assert rc == 1
            assert "data.dir holds the training files" in capsys.readouterr().err
            assert not out.exists()

    def test_files_source_without_a_directory_is_refused(self, tmp_path, monkeypatch, capsys):
        # an empty data.dir must not fall back to the .feat files of the working directory
        data = tmp_path / "data"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        monkeypatch.chdir(data / "train")
        run = tmp_path / "run"
        rc = main(["train", "--set", "data.source=files", "--out-dir", str(run), *FAST])
        assert rc == 1
        assert "data.dir is empty" in capsys.readouterr().err
        assert not (run / "checkpoint.bin").exists()

    def test_unknown_subcommand_fails(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_bad_override_fails(self, tmp_path, capsys):
        rc = main(["gen", "--out-dir", str(tmp_path), "--set", "nope=1"])
        assert rc != 0
        assert "nope" in capsys.readouterr().err


class TestGrid:
    def test_grid_emits_ten_method_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main([
            "grid", "--out", str(out), *FAST,
            "--set", "train.epochs=1",
            "--set", "data.n_train=2",
            "--set", "data.length=14",
        ])
        assert rc == 0
        _, rows = read_report_csv(out)
        assert len(rows) == 10
        expected = {
            f"{a}-{p}"
            for a in ("ttm", "conv1d", "lstm")
            for p in ("ppm", "ssp", "lstm")
        } | {"ttm-ppm-nofp"}
        assert set(rows) == expected

    def test_training_files_need_heldout_files(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        rc = main(["grid", "--data", str(data / "train"), "--out", str(tmp_path / "g.csv"), *FAST])
        assert rc == 1
        assert "--heldout-data" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestDumpAttention:
    def test_weights_rows_sum_to_one(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *FAST]) == 0
        out = tmp_path / "attn.csv"
        rc = main([
            "dump-attention", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data / "heldout"), "--out", str(out), *FAST,
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "video_id,t,head,memory_pos,weight"
        groups = {}
        for line in lines[1:]:
            vid, t, head, pos, weight = line.split(",")
            key = (vid, int(t), int(head))
            groups.setdefault(key, []).append(float(weight))
            assert int(t) - 8 + 1 <= int(pos) < int(t)
        for key, weights in groups.items():
            assert len(weights) == 7  # seq_len - 1 memory slots
            assert abs(sum(weights) - 1.0) < 1e-9

    def test_requires_transformer_aggregator(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        conv = [*FAST, "--set", "model.aggregator=conv1d"]
        assert main(["gen", "--out-dir", str(data), *conv]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *conv]) == 0
        rc = main([
            "dump-attention", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data / "heldout"), "--out", str(tmp_path / "a.csv"), *conv,
        ])
        assert rc != 0
        assert "aggregator" in capsys.readouterr().err


class TestParamCount:
    def test_transformer_beats_recurrent_stack(self, tmp_path, capsys):
        out = tmp_path / "params.csv"
        rc = main(["param-count", "--out", str(out), *FAST])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,params"
        counts = dict(line.split(",") for line in lines[1:])
        assert len(counts) == 9
        assert int(counts["ttm-ppm"]) < int(counts["lstm-lstm"])
