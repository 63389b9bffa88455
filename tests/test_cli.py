"""CLI subcommands: files out, exit codes, determinism, grid shape."""

import json

import numpy as np
import pytest

from ttpp.cli import main, model_config, resolve_config, train_config
from ttpp.data import load_features
from ttpp.metrics import read_report_csv
from ttpp.model import ModelConfig, load_checkpoint
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

    @pytest.mark.parametrize(
        "item, kind", [("train.epochs=2.5", "int"), ("model.dropout=lots", "float")]
    )
    def test_bad_value_names_key_type_and_value(self, item, kind, capsys):
        key, value = item.split("=")
        with pytest.raises(ValueError) as err:
            resolve_config(None, [item])
        assert str(err.value) == f"config key {key!r} expects {kind}, got {value!r}"
        assert main(["param-count", "--set", item]) == 1
        assert f"error: config key {key!r} expects {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize("items, field", [
        (["model.aggregator=gru"], "aggregator"),
        (["model.predictor=rnn"], "predictor"),
        (["model.ppm_variant=half"], "ppm_variant"),
        (["model.d_m=18", "model.n_heads=4"], "n_heads"),
        (["model.d_m=9", "model.n_heads=3"], "d_m"),
        (["model.seq_len=1"], "seq_len"),
        (["model.horizon=0"], "horizon"),
        (["model.dropout=1.0"], "dropout"),
        (["model.dropout=-0.1"], "dropout"),
        (["train.lr=-0.001"], "lr"),
        (["train.momentum=1.0"], "momentum"),
        (["train.batch_size=0"], "batch_size"),
        (["train.epochs=0"], "epochs"),
        (["train.lam=-0.5"], "lam"),
    ])
    def test_every_refused_value_names_its_field(self, items, field):
        rc = resolve_config(None, items)
        build = model_config if items[0].startswith("model.") else train_config
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            build(rc)

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

    def test_heldout_split_shares_the_training_process(self, tmp_path):
        # without noise every row is its label's prototype, in both splits
        data = tmp_path / "data"
        assert main(["gen", "--out-dir", str(data), *FAST, "--set", "data.noise_sigma=0"]) == 0
        rows = {}
        for split in ("train", "heldout"):
            for path in sorted((data / split).glob("*.feat")):
                seq = load_features(path)
                for label, row in zip(seq.labels, seq.features):
                    rows.setdefault((split, int(label)), set()).add(row.tobytes())
        for label in range(3):
            assert len(rows[("train", label)]) == 1
            assert rows[("heldout", label)] == rows[("train", label)]

    def test_files_reproduce_the_in_memory_split(self, tmp_path):
        # train and eval on gen's files write the bytes the synthetic run writes
        data = tmp_path / "data"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        synthetic, files = tmp_path / "synthetic", tmp_path / "files"
        assert main(["train", "--out-dir", str(synthetic), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(files), *FAST]) == 0
        for name in ("history.csv", "checkpoint.bin"):
            assert (files / name).read_bytes() == (synthetic / name).read_bytes()
        checkpoint = ["--checkpoint", str(synthetic / "checkpoint.bin")]
        assert main(["eval", *checkpoint, "--out", str(tmp_path / "a.csv"), *FAST]) == 0
        assert main(["eval", *checkpoint, "--data", str(data / "heldout"),
                     "--out", str(tmp_path / "b.csv"), *FAST]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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

    def test_one_step_ppm_trains_and_evaluates(self, tmp_path, capsys):
        # a one-step rollout never reaches the progressive block, so the
        # model must not list it: training stopped on its missing gradient
        one_step = [*FAST, "--set", "model.horizon=1"]
        run = tmp_path / "run"
        assert main(["train", "--out-dir", str(run), *one_step]) == 0
        assert len(read_history_csv(run / "history.csv")) == 2
        config, state = load_checkpoint(run / "checkpoint.bin")
        assert config.horizon == 1
        assert state and not any(name.startswith("ppm.progressive.") for name in state)
        report = tmp_path / "report.csv"
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                   "--out", str(report), *one_step])
        assert rc == 0, capsys.readouterr().err
        labels, rows = read_report_csv(report)
        assert len(labels) == 1 and 0.0 <= rows["ttm-ppm"][0] <= 1.0

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

    def test_files_of_another_model_shape_are_refused_by_name(self, tmp_path, capsys):
        # a file with another class count or d_m must not be trained on or
        # scored: scoring 4-class files with a 3-class model gave a number
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--out-dir", str(data), *FAST]) == 0
        assert main(["train", "--data", str(data / "train"), "--out-dir", str(run), *FAST]) == 0
        for key, shape in (("model.classes", "with 4 classes"), ("model.d_m", "d_m 4 with")):
            other = tmp_path / f"other-{key}"
            assert main(["gen", "--out-dir", str(other), *FAST, "--set", f"{key}=4"]) == 0
            mixed = tmp_path / f"mixed-{key}"
            mixed.mkdir()
            for path in sorted((data / "heldout").glob("*.feat")):
                (mixed / path.name).write_bytes(path.read_bytes())
            odd = mixed / "zz-odd.feat"  # sorts last, after files that load
            odd.write_bytes(sorted((other / "heldout").glob("*.feat"))[0].read_bytes())
            capsys.readouterr()
            report = tmp_path / "r.csv"
            rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(mixed),
                       "--out", str(report), *FAST])
            assert rc == 1
            err = capsys.readouterr().err
            assert str(odd) in err and f"{key} = " in err and shape in err
            assert not report.exists()
            rc = main(["train", "--data", str(mixed), "--out-dir", str(tmp_path / "r2"), *FAST])
            assert rc == 1
            assert str(odd) in capsys.readouterr().err
            assert not (tmp_path / "r2" / "checkpoint.bin").exists()

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
