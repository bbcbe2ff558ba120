import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cigl.calibration import nll, reliability_bins, write_reliability_csv
from cigl.cli import main
from cigl.config import (_ALIASES, _KEYS, ConfigError, DataConfig, ExperimentConfig,
                         format_config, parse_config_text, resolve_config)
from cigl.checkpoint import load_checkpoint, save_checkpoint
from cigl.masks import DeterministicMask
from cigl.predict import Predictor
from cigl.runner import (build_datasets, run_correlate, run_experiment, run_export_reliability,
                         run_sweep)
from cigl.tensor import softmax_columns
from cigl.train import TrainConfig


TINY_CONFIG = """
run.id = demo
train.method = cigl
train.epochs = 4
train.batch_size = 32
train.seed = 7
train.hidden = 8, 8
train.sparsity = 0.8
train.update_interval = 3
train.wma_start_epoch = 2
train.lr_milestones = 3
data.n = 240
data.noise_sd = 0.25
data.label_noise = 0.1
"""

# every key of a default config, as config.resolved writes it
DEFAULT_RESOLVED = "".join(line + "\n" for line in (
    "run.id = run",
    "run.out = runs",
    "train.method = cigl",
    "train.epochs = 100",
    "train.batch_size = 128",
    "train.seed = 0",
    "train.hidden = 64, 64",
    "train.sparsity = 0.9",
    "train.sparsity_mode = uniform",
    "train.mask_exclude = ",
    "train.update_interval = 50",
    "train.update_fraction = 0.3",
    "train.update_end_fraction = 0.75",
    "train.keep_prob = 0.9",
    "train.wma_start_epoch = 80",
    "train.wma_every = 1",
    "train.base_lr = 0.1",
    "train.lr_milestones = 50, 75",
    "train.lr_decay = 0.1",
    "train.momentum = 0.9",
    "train.weight_decay = 0.0005",
    "train.mc_samples = 30",
    "data.source = two_moons",
    "data.n = 2000",
    "data.noise_sd = 0.25",
    "data.label_noise = 0.15",
    "data.split = 0.5, 0.5",
    "data.csv_path = ",
    "data.label_column = ",
    "data.idx_images = ",
    "data.idx_labels = ",
    "data.standardize = false",
    "calib.n_bins = 15",
    "calib.temperature = false",
    "calib.mixup_alpha = 0.0",
    "calib.label_smoothing = 0.0",
))

# every leaf field away from its default, and still a valid config
OFF_DEFAULT = ExperimentConfig(
    run_id="other", out_dir="elsewhere", temperature=True,
    train=TrainConfig(
        method="rigl", epochs=7, batch_size=9, seed=3, hidden=(5, 6, 7), sparsity=0.5,
        sparsity_mode="erk", mask_exclude=(0, 3), update_interval=4, update_fraction=0.2,
        update_end_fraction=0.5, keep_prob=0.8, wma_start_epoch=2, wma_every=2, base_lr=0.05,
        lr_milestones=(3, 5), lr_decay=0.5, momentum=0.8, weight_decay=1e-3, mc_samples=3,
        label_smoothing=0.1, mixup_alpha=0.2, n_bins=10),
    data=DataConfig(
        source="csv", n=100, noise_sd=0.1, label_noise=0.0, split=(0.6, 0.4), csv_path="a.csv",
        label_column="y", idx_images="i.idx", idx_labels="l.idx", standardize=True))


def leaf_fields():
    """(section, field name) of every config field other than the train and data sections."""
    return [("", f.name) for f in fields(ExperimentConfig) if f.name not in ("train", "data")] + \
        [(section, f.name) for section, cls in (("train", TrainConfig), ("data", DataConfig))
         for f in fields(cls)]


TWO_MOONS_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_moons_cigl.cfg"


def with_lines(text, *lines):
    """text with each `key = value` line replacing that key's line, if any."""
    keys = {line.partition(" = ")[0] for line in lines}
    kept = [row for row in text.splitlines() if row.partition(" = ")[0] not in keys]
    return "\n".join(kept + list(lines)) + "\n"


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config_text(TINY_CONFIG)
        assert cfg.train.epochs == 4
        assert cfg.train.hidden == (8, 8)
        assert cfg.train.momentum == 0.9  # default untouched
        assert cfg.data.source == "two_moons"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key 'train.epoch'"):
            parse_config_text("train.epoch = 5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("train.epochs = 5\ntrain.epochs = 6")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config_text("train.epochs = five")

    def test_missing_csv_path_names_field(self):
        cfg = parse_config_text("data.source = csv")
        with pytest.raises(ConfigError, match="data.csv_path"):
            resolve_config(cfg)

    def test_resolved_config_roundtrips(self):
        resolved = resolve_config(parse_config_text(TINY_CONFIG))
        text = format_config(resolved)
        again = resolve_config(parse_config_text(text))
        assert again == resolved
        assert format_config(again) == text

    def test_resolve_materializes_wma_start(self):
        cfg = resolve_config(parse_config_text("train.epochs = 50"))
        assert cfg.train.wma_start_epoch == 40
        assert "train.wma_start_epoch = 40" in format_config(cfg)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# comment\n\ntrain.epochs = 3\n")
        assert cfg.train.epochs == 3

    def test_resolve_keeps_programmatic_training_knobs(self):
        cfg = ExperimentConfig(train=TrainConfig(label_smoothing=0.1, mixup_alpha=0.4))
        resolved = resolve_config(cfg)
        assert resolved.train.label_smoothing == 0.1
        assert resolved.train.mixup_alpha == 0.4

    def test_calib_keys_set_the_training_knobs(self):
        cfg = resolve_config(parse_config_text(
            "calib.label_smoothing = 0.1\ncalib.mixup_alpha = 0.2\n"))
        assert (cfg.train.label_smoothing, cfg.train.mixup_alpha) == (0.1, 0.2)
        lines = format_config(cfg).splitlines()
        assert lines[-2:] == ["calib.mixup_alpha = 0.2", "calib.label_smoothing = 0.1"]

    # A str value that a config line cannot hold is refused naming its key: the
    # file form would split it (a second line is an error or a comment) or strip it.
    def test_text_with_a_line_break_is_refused_naming_its_key(self):
        with pytest.raises(ConfigError, match=r"^run\.id: .*got 'a\\nb'$"):
            resolve_config(ExperimentConfig(run_id="a\nb"))

    def test_text_whose_second_line_reads_as_a_comment_is_refused(self):
        with pytest.raises(ConfigError, match=r"^run\.id: .*got 'a\\n# c'$"):
            resolve_config(ExperimentConfig(run_id="a\n# c"))

    def test_text_with_surrounding_whitespace_is_refused(self):
        with pytest.raises(ConfigError, match=r"^run\.id: .*got ' a '$"):
            resolve_config(ExperimentConfig(run_id=" a "))
        with pytest.raises(ConfigError, match=r"^data\.csv_path: "):
            format_config(ExperimentConfig(data=DataConfig(csv_path="x.csv\t")))

    def test_default_resolved_text_is_pinned(self):
        assert format_config(resolve_config(ExperimentConfig())) == DEFAULT_RESOLVED

    @pytest.mark.parametrize("line, message", [
        ("data.standardize = yes", "data.standardize: expected true/false, got 'yes'"),
        ("train.hidden = 64, x", "train.hidden: invalid literal for int() with base 10: ' x'"),
        ("data.split = 0.5, a", "data.split: could not convert string to float: ' a'"),
        ("train.wma_start_epoch = x",
         "train.wma_start_epoch: invalid literal for int() with base 10: 'x'"),
        ("train.base_lr = fast", "train.base_lr: could not convert string to float: 'fast'"),
    ], ids=["bool", "int-tuple", "float-tuple", "optional-int", "float"])
    def test_parse_error_message_is_pinned(self, line, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"\n{line}\n", origin="exp.cfg")
        assert str(exc.value) == f"exp.cfg:2: {message}"

    @pytest.mark.parametrize("knobs, line", [
        (dict(hidden=[8, 8]), "train.hidden = 8, 8"),
        (dict(sparsity=np.float64(0.5)), "train.sparsity = 0.5"),
        (dict(base_lr=1), "train.base_lr = 1.0"),
    ], ids=["list-for-tuple", "numpy-float", "int-for-float"])
    def test_api_values_resolve_to_their_file_form(self, knobs, line):
        resolved = resolve_config(ExperimentConfig(train=TrainConfig(**knobs)))
        text = format_config(resolved)
        assert line in text.splitlines()
        again = resolve_config(parse_config_text(text))
        assert again == resolved
        assert format_config(again) == text

    @pytest.mark.parametrize("cfg, key", [
        (ExperimentConfig(train=TrainConfig(epochs=2.5)), "train.epochs"),
        (ExperimentConfig(train=TrainConfig(hidden=64)), "train.hidden"),
        (ExperimentConfig(run_id=None), "run.id"),
        (ExperimentConfig(temperature="no"), "calib.temperature"),
    ], ids=["float-for-int", "int-for-tuple", "none-for-str", "str-for-bool"])
    def test_value_its_type_cannot_hold_names_its_key(self, tmp_path, cfg, key):
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            run_experiment(cfg, out_root=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_every_leaf_field_has_exactly_one_key(self):
        assert sorted((section, attr) for section, attr, *_ in _KEYS.values()) == \
            sorted(leaf_fields())

    def test_every_alias_names_a_field(self):
        assert set(_ALIASES.values()) <= set(leaf_fields())

    def test_off_default_config_survives_the_file_form(self):
        defaults = ExperimentConfig()
        for section, attr in leaf_fields():
            pick = (lambda c: getattr(c, section)) if section else (lambda c: c)
            assert getattr(pick(OFF_DEFAULT), attr) != getattr(pick(defaults), attr), attr
        text = format_config(OFF_DEFAULT)
        again = parse_config_text(text)
        assert again == OFF_DEFAULT
        assert format_config(again) == text
        assert resolve_config(OFF_DEFAULT) == OFF_DEFAULT


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return path


DIVERGED = ["every-active-first-layer-weight", "into-a-unit-with-no-path-to-a-logit"]


def diverge_checkpoint(path, where) -> int:
    """Write NaN into the checkpoint at path; returns the layer that holds it.
    The second case first cuts every outgoing weight of hidden unit 0 of the
    last hidden layer, so prediction can drop that unit and its NaN with it."""
    ckpt = load_checkpoint(path)
    weights, layers = ckpt.model.weights, [m.copy() for m in ckpt.mask.layers]
    if where == DIVERGED[0]:
        weights[0][layers[0]] = np.nan
        layer = 0
    else:
        layer = ckpt.model.n_layers - 2  # the last hidden layer
        weights[layer + 1][:, 0], layers[layer + 1][:, 0] = 0.0, False
        weights[layer][0, 0], layers[layer][0, 0] = np.nan, True
    ckpt.mask = DeterministicMask(layers, tuple(int(m.sum()) for m in layers))
    save_checkpoint(path, ckpt)
    return layer


class TestRunCommand:
    def test_run_writes_all_artifacts(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_file), "--out", str(out)]) == 0
        run_dir = out / "demo"
        for name in ("model.ckpt", "metrics.jsonl", "calibration.csv", "report.json",
                     "config.resolved"):
            assert (run_dir / name).exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4  # one record per epoch
        record = json.loads(lines[-1])
        assert record["epoch"] == 4
        assert record["n_models_in_wma"] == 2

    def test_existing_run_requires_force(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_file), "--out", str(out)]) == 0
        assert main(["run", "--config", str(tiny_config_file), "--out", str(out)]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["run", "--config", str(tiny_config_file), "--out", str(out), "--force"]) == 0

    def test_rerun_is_byte_identical(self, tiny_config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config_file), "--out", str(out_a)])
        main(["run", "--config", str(tiny_config_file), "--out", str(out_b)])
        assert (out_a / "demo" / "model.ckpt").read_bytes() == \
            (out_b / "demo" / "model.ckpt").read_bytes()

    def test_rerun_from_resolved_config_reproduces_checkpoint(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        resolved = out / "demo" / "config.resolved"
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out / "demo" / "model.ckpt").read_bytes() == \
            (out2 / "demo" / "model.ckpt").read_bytes()

    def test_seed_override_changes_model(self, tiny_config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config_file), "--out", str(out_a)])
        main(["run", "--config", str(tiny_config_file), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "demo" / "model.ckpt").read_bytes() != \
            (out_b / "demo" / "model.ckpt").read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data.source = csv\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "data.csv_path" in capsys.readouterr().err

    def test_value_its_type_cannot_hold_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = ExperimentConfig(train=TrainConfig(epochs=2.5))
        monkeypatch.setattr("cigl.cli.load_config", lambda path: cfg)
        assert main(["run", "--config", "unused.cfg", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("invalid configuration: train.epochs: ")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.cfg" in err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_label_smoothing_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "calib.label_smoothing = 1.5\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "label_smoothing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", [
        "train.momentum = 1.5",
        "train.weight_decay = -0.1",
        "train.sparsity_mode = dense",
        "train.mask_exclude = 7",
        "train.mask_exclude = -1",
        "calib.label_smoothing = 1.5",
        "calib.mixup_alpha = -0.5",
        "train.lr_decay = 2",
        "train.lr_milestones = 3, 2",
        "calib.n_bins = 0",
        "calib.mixup_alpha = nan",
        "train.base_lr = nan",
        "train.base_lr = inf",
        "train.weight_decay = nan",
        "data.split = nan, 0.5",
        "data.noise_sd = nan",
        "train.wma_start_epoch = -1",
        "data.source = parquet",
        "data.n = 1",
        "data.noise_sd = -0.1",
        "data.label_noise = 1.5",
        "data.split = 0.7, 0.7",
        "data.split = 1.0",
        "train.seed = -1",
        "train.seed = 18446744073709551616",
    ])
    def test_invalid_knob_exits_2_naming_its_key(self, tmp_path, capsys, line):
        key = line.partition(" = ")[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, line))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"invalid configuration: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines, key", [
        (("data.source = csv",), "data.csv_path"),
        (("data.source = csv", "data.csv_path = absent.csv"), "data.label_column"),
        (("data.source = idx",), "data.idx_images"),
        (("data.source = idx", "data.idx_images = absent.idx"), "data.idx_labels"),
    ], ids=["csv-path", "csv-label-column", "idx-images", "idx-labels"])
    def test_missing_source_file_key_exits_2_naming_it(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, *lines))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        source = lines[0].partition(" = ")[2]
        assert capsys.readouterr().err == (
            f"invalid configuration: {key}: required when data.source = {source}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_run_exits_1_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, "train.method = dense", "train.epochs = 10",
                                  "train.batch_size = 32", "train.seed = 3",
                                  "train.hidden = 16, 16", "train.base_lr = 10000",
                                  "train.lr_milestones = ", "data.n = 400"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 1, iteration 4: non-finite logits\n")
        assert not (tmp_path / "o").exists()

    def test_non_finite_csv_feature_exits_1_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(30))
                        + "nan,1,0\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(with_lines(TINY_CONFIG, "data.source = csv", f"data.csv_path = {data}",
                                  "data.label_column = y"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: non-finite feature values\n"
        assert not (tmp_path / "o").exists()

    def test_seed_flag_out_of_range_exits_2_before_training(self, tiny_config_file, tmp_path,
                                                            capsys):
        assert main(["run", "--config", str(tiny_config_file), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "invalid configuration: train.seed: must be in [0, 2**64)\n")
        assert not (tmp_path / "o").exists()

    def test_failed_run_writes_no_directory(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, "train.sparsity = 0.999"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "no active weights" in capsys.readouterr().err
        assert not (tmp_path / "o" / "demo").exists()

    def test_temperature_with_mc_dropout_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, "train.method = rigl_mcdp",
                                  "calib.temperature = true"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("invalid configuration: calib.temperature: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines, key", [
        (("data.n = 5", "data.split = 0.9, 0.1"), "data.split"),
        (("data.n = 12", "calib.temperature = true"), "calib.temperature"),
    ], ids=["empty-test-split", "empty-validation-split"])
    def test_empty_split_exits_2_before_the_run_directory(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, *lines))
        resolve_config(parse_config_text(bad.read_text()))  # a valid config on its own
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"invalid configuration: {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("correlate", "--draws", "0"),
        ("correlate", "--keep-prob", "1.5"),
        ("correlate", "--keep-prob", "nan"),
        ("sweep", "--sparsities", "0.5,x"),
        ("sweep", "--seeds", "a"),
    ])
    def test_invalid_flag_value_exits_2_naming_the_flag(self, tiny_config_file, tmp_path,
                                                        capsys, command, flag, value):
        out = tmp_path / "o"
        extra = {"correlate": ["--ckpt", str(tmp_path / "absent.ckpt")],
                 "sweep": ["--out", str(out), "--sparsities", "0.8", "--seeds", "1"]}[command]
        argv = [command, "--config", str(tiny_config_file), *extra, flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("correlate", ["--out", "x"]),
        ("export-reliability", ["--out", "x"]),  # once a prefix of --out-file
        ("sweep", ["--seed", "9"]),  # once a prefix of --seeds
        ("correlate", ["--keep", "1.0"]),  # a prefix of --keep-prob
    ], ids=["correlate-out", "export-out", "sweep-seed", "correlate-keep"])
    def test_unread_or_abbreviated_flag_exits_2(self, tiny_config_file, tmp_path, capsys,
                                                command, flags):
        out, target = tmp_path / "o", tmp_path / "rel.csv"
        ckpt = ["--ckpt", str(tmp_path / "absent.ckpt")]
        extra = {"correlate": ckpt, "export-reliability": [*ckpt, "--out-file", str(target)],
                 "sweep": ["--out", str(out), "--sparsities", "0.8", "--seeds", "1"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tiny_config_file), *extra, *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists() and not target.exists()

    def test_last_epoch_metrics_use_the_configured_bin_count(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(with_lines(TWO_MOONS_CONFIG.read_text(), "train.epochs = 10",
                                  "train.wma_start_epoch = 5", "calib.n_bins = 10"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        run_dir = tmp_path / "o" / "two_moons_cigl"
        report = json.loads((run_dir / "report.json").read_text())
        last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
        assert report["n_bins"] == 10
        assert last["test_ece"] == report["ece"]
        assert last["test_accuracy"] == report["accuracy"]


class TestSweepCommand:
    @pytest.mark.parametrize("sparsities, seeds", [
        ([0.8], [2, 2]),
        ([0.5, 0.5000001], [1]),
    ])
    @pytest.mark.parametrize("force", [False, True])
    def test_colliding_cells_rejected_before_training(self, tmp_path, sparsities, seeds, force):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="run id"):
            run_sweep(parse_config_text(TINY_CONFIG), sparsities, seeds, out_root=out, force=force)
        assert not out.exists()

    @pytest.mark.parametrize("sparsities, seeds, message", [
        ([], [1], "sweep: need at least one sparsity and one seed"),
        ([0.8], [], "sweep: need at least one sparsity and one seed"),
        ([0.5, 1.5], [1], "train.sparsity: must be in [0, 1)"),
    ], ids=["no-sparsity", "no-seed", "sparsity-1.5"])
    def test_empty_grid_or_invalid_cell_rejected_before_training(self, tmp_path, sparsities,
                                                                 seeds, message):
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as exc:
            run_sweep(parse_config_text(TINY_CONFIG), sparsities, seeds, out_root=out)
        assert str(exc.value) == message
        assert not out.exists()

    def test_invalid_cell_exits_2_naming_its_key(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(tiny_config_file), "--out", str(out),
                     "--sparsities", "0.5,1.5", "--seeds", "1"]) == 2
        assert capsys.readouterr().err == "invalid configuration: train.sparsity: must be in [0, 1)\n"
        assert not out.exists()

    def test_numpy_sparsities_write_reloadable_configs(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(parse_config_text(TINY_CONFIG), np.linspace(0.5, 0.8, 2), [1], out_root=out)
        for s in ("0.5", "0.8"):
            text = (out / "sweep_runs" / f"demo_s{s}_seed1" / "config.resolved").read_text()
            assert f"train.sparsity = {s}" in text.splitlines()
            assert format_config(resolve_config(parse_config_text(text))) == text

    def test_grid_rows_sorted_and_complete(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(tiny_config_file), "--out", str(out),
                   "--sparsities", "0.8,0.5", "--seeds", "2,1"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sparsity,test_accuracy,ece,nll,seed"
        cells = [line.split(",") for line in lines[1:]]
        assert len(cells) == 4
        assert [(c[0], c[4]) for c in cells] == [("0.5", "1"), ("0.5", "2"), ("0.8", "1"), ("0.8", "2")]

    def test_failing_cell_keeps_the_finished_rows(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(tiny_config_file), "--out", str(out),
                   "--sparsities", "0.8,0.999", "--seeds", "1"])
        assert rc == 1
        assert "no active weights" in capsys.readouterr().err
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sparsity,test_accuracy,ece,nll,seed"
        assert [(c[0], c[4]) for c in (line.split(",") for line in lines[1:])] == [("0.8", "1")]
        assert not (out / "sweep_runs" / "demo_s0.999_seed1").exists()

    def test_single_cell_matches_plain_run(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", str(tiny_config_file), "--out", str(out),
              "--sparsities", "0.8", "--seeds", "7"])
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        main(["run", "--config", str(tiny_config_file), "--out", str(tmp_path / "single")])
        report = json.loads((tmp_path / "single" / "demo" / "report.json").read_text())
        assert float(row[1]) == report["accuracy"]
        assert float(row[2]) == report["ece"]
        assert float(row[3]) == report["nll"]
        last = json.loads((tmp_path / "single" / "demo" / "metrics.jsonl")
                          .read_text().splitlines()[-1])
        assert report["accuracy"] == last["test_accuracy"]
        assert report["ece"] == last["test_ece"]


class TestCorrelateCommand:
    def test_full_keep_probability_has_zero_drop(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        capsys.readouterr()
        rc = main(["correlate", "--config", str(tiny_config_file),
                   "--ckpt", str(out / "demo" / "model.ckpt"), "--keep-prob", "1.0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy_drop"] == 0.0
        assert report["n_draws"] == 5  # default number of draws

    def test_partial_keep_reports_drop(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        capsys.readouterr()
        rc = main(["correlate", "--config", str(tiny_config_file),
                   "--ckpt", str(out / "demo" / "model.ckpt"),
                   "--keep-prob", "0.6", "--draws", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_draws"] == 3
        assert report["base_accuracy"] >= report["mean_masked_accuracy"] - 1.0

    @pytest.mark.parametrize("where", DIVERGED)
    def test_diverged_checkpoint_is_refused(self, tiny_config_file, tmp_path, capsys, where):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        ckpt_path = out / "demo" / "model.ckpt"
        layer = diverge_checkpoint(ckpt_path, where)
        capsys.readouterr()
        rc = main(["correlate", "--config", str(tiny_config_file), "--ckpt", str(ckpt_path)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: checkpoint layer {layer} holds a non-finite "
                                           "weight or bias\n")

    @pytest.mark.parametrize("command", ["correlate", "export-reliability"])
    def test_checkpoint_of_another_seed_is_refused(self, tiny_config_file, tmp_path, capsys,
                                                   command):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        capsys.readouterr()
        target = tmp_path / "rel.csv"
        extra = ["--out-file", str(target)] if command == "export-reliability" else []
        rc = main([command, "--config", str(tiny_config_file), "--seed", "3",
                   "--ckpt", str(out / "demo" / "model.ckpt"), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: train.seed: 3 ") and "seed 7" in err
        assert not target.exists()


    @pytest.mark.parametrize("command", ["correlate", "export-reliability"])
    def test_checkpoint_of_another_method_is_refused(self, tiny_config_file, tmp_path, capsys,
                                                     command):
        mcdp = tmp_path / "mcdp.cfg"
        mcdp.write_text(with_lines(TINY_CONFIG, "train.method = rigl_mcdp", "train.mc_samples = 5"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(mcdp), "--out", str(out)]) == 0
        capsys.readouterr()
        target = tmp_path / "rel.csv"
        extra = ["--out-file", str(target)] if command == "export-reliability" else []
        rc = main([command, "--config", str(tiny_config_file),
                   "--ckpt", str(out / "demo" / "model.ckpt"), *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: train.method: cigl ")
        assert "method rigl_mcdp" in captured.err and captured.out == ""
        assert not target.exists()

    @pytest.mark.parametrize("command", ["correlate", "export-reliability"])
    def test_checkpoint_of_other_layer_sizes_is_refused(self, tiny_config_file, tmp_path,
                                                        capsys, command):
        wide = tmp_path / "wide.cfg"
        wide.write_text(with_lines(TINY_CONFIG, "train.hidden = 16, 16"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(wide), "--out", str(out)]) == 0
        capsys.readouterr()
        target = tmp_path / "rel.csv"
        extra = ["--out-file", str(target)] if command == "export-reliability" else []
        rc = main([command, "--config", str(tiny_config_file),
                   "--ckpt", str(out / "demo" / "model.ckpt"), *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: train.hidden: ")
        assert captured.out == ""
        assert not target.exists()


class TestExportReliability:
    def test_csv_shape_and_ece_reconstruction(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        target = tmp_path / "rel.csv"
        rc = main(["export-reliability", "--config", str(tiny_config_file),
                   "--ckpt", str(out / "demo" / "model.ckpt"),
                   "--out-file", str(target)])
        assert rc == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 16  # header + 15 bins
        empty = [ln for ln in lines[1:] if ln.split(",")[2] == "0"]
        for ln in empty:
            cells = ln.split(",")
            assert cells[3] == "" and cells[4] == ""
        report = json.loads((out / "demo" / "report.json").read_text())
        total = sum(int(ln.split(",")[2]) for ln in lines[1:])
        recomputed = 0.0
        for ln in lines[1:]:
            cells = ln.split(",")
            if cells[2] != "0":
                recomputed += int(cells[2]) / total * abs(float(cells[4]) - float(cells[3]))
        assert recomputed == pytest.approx(report["ece"], abs=1e-9)

    @pytest.mark.parametrize("n_bins", [10, 15])
    @pytest.mark.parametrize("method", ["rigl_mcdp", "cigl"])
    def test_export_without_temperature_reproduces_the_run_table(self, tmp_path, method, n_bins):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(with_lines(TINY_CONFIG, f"train.method = {method}",
                                  "train.mc_samples = 5", f"calib.n_bins = {n_bins}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        target = tmp_path / "rel.csv"
        assert main(["export-reliability", "--config", str(cfg),
                     "--ckpt", str(out / "demo" / "model.ckpt"), "--out-file", str(target)]) == 0
        assert target.read_bytes() == (out / "demo" / "calibration.csv").read_bytes()

    def test_temperature_export_reproduces_the_run_table(self, tmp_path):
        cfg = tmp_path / "temp.cfg"
        cfg.write_text(with_lines(TINY_CONFIG, "calib.temperature = true"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "demo" / "report.json").read_text())["temperature"] != 1.0
        target = tmp_path / "rel.csv"
        assert main(["export-reliability", "--config", str(cfg),
                     "--ckpt", str(out / "demo" / "model.ckpt"), "--out-file", str(target)]) == 0
        assert target.read_bytes() == (out / "demo" / "calibration.csv").read_bytes()

    @pytest.mark.parametrize("n_bins", ["0", "-2"])
    def test_out_of_range_bins_override_exits_2(self, tiny_config_file, tmp_path, capsys,
                                                n_bins):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        capsys.readouterr()
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_lines(TINY_CONFIG, f"calib.n_bins = {n_bins}"))
        target = tmp_path / "rel.csv"
        rc = main(["export-reliability", "--config", str(bad),
                   "--ckpt", str(out / "demo" / "model.ckpt"), "--out-file", str(target)])
        assert rc == 2
        assert "invalid configuration: calib.n_bins: must be >= 1" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("where", DIVERGED)
    def test_diverged_checkpoint_is_refused(self, tiny_config_file, tmp_path, capsys, where):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config_file), "--out", str(out)])
        ckpt_path = out / "demo" / "model.ckpt"
        layer = diverge_checkpoint(ckpt_path, where)
        capsys.readouterr()
        target = tmp_path / "rel.csv"
        rc = main(["export-reliability", "--config", str(tiny_config_file),
                   "--ckpt", str(ckpt_path), "--out-file", str(target)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: checkpoint layer {layer} holds a non-finite "
                                           "weight or bias\n")
        assert not target.exists()


def _count_calls(monkeypatch, calls, module_name, attr):
    """Record each call of module_name.attr in calls. Goes through sys.modules,
    because `import cigl.train` binds the train function, not the module."""
    module = sys.modules[module_name]
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(module_name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)


class TestFinalTable:
    @pytest.mark.parametrize("method", ["cigl", "rigl_mcdp"])
    def test_run_reports_the_table_train_binned(self, tmp_path, monkeypatch, method):
        calls = []
        _count_calls(monkeypatch, calls, "cigl.runner", "reliability_bins")
        cfg = parse_config_text(with_lines(TINY_CONFIG, f"train.method = {method}",
                                           "train.mc_samples = 5"))
        out = run_experiment(cfg, out_root=tmp_path)
        assert out.report.bins is out.result.final_bins
        assert out.result.history[-1].test_ece == out.result.final_bins.ece
        assert calls == []

    def test_temperature_run_bins_the_rescaled_rows(self, tmp_path, monkeypatch):
        calls = []
        _count_calls(monkeypatch, calls, "cigl.runner", "reliability_bins")
        cfg = parse_config_text(with_lines(TINY_CONFIG, "calib.temperature = true"))
        out = run_experiment(cfg, out_root=tmp_path)
        assert calls == ["cigl.runner"]
        assert out.report.bins is not out.result.final_bins

    def test_temperature_run_predicts_the_test_split_once(self, tmp_path, monkeypatch):
        # the report rescales the logits of the last epoch's evaluation
        calls = []
        real = Predictor.logits
        monkeypatch.setattr(Predictor, "logits", lambda self, model, *args, real=real:
                            calls.append((model, self.xt.shape[1])) or real(self, model, *args))
        cfg = parse_config_text(with_lines(TINY_CONFIG, "calib.temperature = true"))
        out = run_experiment(cfg, out_root=tmp_path)
        final = [n for model, n in calls if model is out.result.model]
        assert final.count(len(out.result.final_probs)) == 1
        assert len(final) == 2  # and the validation split's once

    def test_temperature_table_of_ten_classes_is_the_column_softmax(self, tmp_path):
        # 10 classes: a row softmax would sum each row pairwise, not in class order
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 10, 800)
        x = rng.normal(0, 2, (10, 6))[labels] + rng.normal(0, 1, (800, 6))
        data = tmp_path / "ten.csv"
        data.write_text("f0,f1,f2,f3,f4,f5,y\n" + "".join(
            f"{','.join(map(repr, row))},{y}\n" for row, y in zip(x.tolist(), labels.tolist())))
        cfg = parse_config_text(with_lines(
            TINY_CONFIG, "train.epochs = 20", "train.lr_milestones = 15", "train.hidden = 32, 32",
            "data.source = csv", f"data.csv_path = {data}", "data.label_column = y",
            "calib.temperature = true"))
        out = run_experiment(cfg, out_root=tmp_path / "out")
        logits, temp = out.result.final_logits, out.report.temperature
        test = build_datasets(resolve_config(cfg))[2]
        assert logits.shape == (10, len(test)) and temp != 1.0
        assert out.result.final_bins.accuracy > 0.5  # trained: far from uniform rows
        probs = np.ascontiguousarray(softmax_columns(logits / temp).T)
        bins = reliability_bins(probs, test.labels, cfg.train.n_bins)
        write_reliability_csv(bins, tmp_path / "want.csv")
        assert (out.out_dir / "calibration.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
        report = json.loads((out.out_dir / "report.json").read_text())
        assert (report["nll"], report["ece"]) == (nll(probs, test.labels), bins.ece)

    @pytest.mark.parametrize("method", ["cigl", "rigl_mcdp"])
    def test_export_bins_its_table_once(self, tmp_path, monkeypatch, method):
        cfg = parse_config_text(with_lines(TINY_CONFIG, f"train.method = {method}",
                                           "train.mc_samples = 5"))
        run_dir = run_experiment(cfg, out_root=tmp_path).out_dir
        calls = []
        for module_name in ("cigl.train", "cigl.runner"):
            _count_calls(monkeypatch, calls, module_name, "reliability_bins")
        target = run_export_reliability(cfg, run_dir / "model.ckpt", tmp_path / "rel.csv")
        assert calls == ["cigl.train"]
        assert target.read_bytes() == (run_dir / "calibration.csv").read_bytes()


class TestTracedPrediction:
    """bench/tracer.py counts prediction by replacing evaluate and
    predict_mc_dropout on every cigl module binding that holds them, so every
    call has to go through such a binding for `--trace 1` to see it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"evaluate": 0, "predict_mc_dropout": 0}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cigl" or name.startswith("cigl."))]
        for fn in counts:
            original = getattr(sys.modules["cigl.train"], fn)

            def counting(*args, fn=fn, original=original, **kwargs):
                counts[fn] += 1
                return original(*args, **kwargs)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counting)
        return counts

    @pytest.fixture
    def cfg(self):
        return parse_config_text(with_lines(TINY_CONFIG, "train.method = rigl_mcdp",
                                            "train.mc_samples = 3"))

    def test_a_training_calls_each_once_per_epoch(self, tmp_path, counts, cfg):
        run_experiment(cfg, out_root=tmp_path)
        assert counts == {"evaluate": 4, "predict_mc_dropout": 4}

    def test_correlate_calls_mc_dropout_once_per_draw(self, tmp_path, counts, cfg):
        run_dir = run_experiment(cfg, out_root=tmp_path).out_dir
        counts.update(evaluate=0, predict_mc_dropout=0)
        run_correlate(cfg, run_dir / "model.ckpt", keep_prob=0.9, n_draws=5)
        assert counts == {"evaluate": 0, "predict_mc_dropout": 5}

    def test_export_calls_each_once(self, tmp_path, counts, cfg):
        run_dir = run_experiment(cfg, out_root=tmp_path).out_dir
        counts.update(evaluate=0, predict_mc_dropout=0)
        run_export_reliability(cfg, run_dir / "model.ckpt", tmp_path / "rel.csv")
        assert counts == {"evaluate": 1, "predict_mc_dropout": 1}


def test_checkpoint_stores_weight_bias_pairs(tiny_config_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(tiny_config_file), "--out", str(out)])
    ckpt = load_checkpoint(out / "demo" / "model.ckpt")
    # 3 layers for hidden (8, 8): weight/bias records interleaved
    assert [t.ndim for t in ckpt.tensors] == [2, 1, 2, 1, 2, 1]
    assert all(np.all(m) for m in ckpt.masks[1::2])  # bias masks all ones
    ws = ckpt.tensors[0::2]
    ms = ckpt.masks[0::2]
    for w, m in zip(ws, ms):
        assert not w[~m].any()
