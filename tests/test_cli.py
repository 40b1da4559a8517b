import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highwaynet.cli import CONFIG_KEYS, _build, _section, main
from highwaynet.data import Dataset, DatasetSpec, save_cifar_binary, save_idx, synthetic_digits
from highwaynet.init import InitScheme, NetworkTemplate
from highwaynet.ops import ACTIVATIONS, Rng, set_blas_threads
from highwaynet.search import SearchSpace, TrainConfig


def write_config(path, **overrides):
    cfg = {
        "dataset": {"name": "synthetic", "count": 150},
        "arch": {"kind": "highway", "depth": 3, "width": 10, "activation": "relu"},
        "init": {"kind": "he", "gate_bias": -2.0},
        "sgd": {"lr0": 0.05, "momentum": 0.9, "decay": 0.95, "epochs": 2, "batch_size": 32},
        "search": {"trials": 2, "epochs": 1, "batch_size": 32},
        "seed": 11,
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


HIGHWAY = {"kind": "highway", "depth": 3, "width": 10, "activation": "relu"}
CONV = {"kind": "conv-highway", "depth": 1, "image_shape": [1, 28, 28], "activation": "relu"}
SGD = {"lr0": 0.05, "epochs": 1, "batch_size": 32}
SEARCH = {"trials": 1, "epochs": 1, "batch_size": 32}

# (command, section, key, config overrides).  Each config runs without error,
# or fails with a traceback and exit 1, when the key is not checked; it must
# be refused with exit 2, a message naming the section and the key, and no
# output directory left behind.
MALFORMED = {
    "unknown-sgd-key": ("train", "sgd", "lr", {"sgd": {"lr": 1}}),
    "sgd-missing-lr0": ("train", "sgd", "lr0", {"sgd": {"epochs": 1}}),
    "sgd-lr0-negative": ("train", "sgd", "lr0", {"sgd": {**SGD, "lr0": -0.05}}),
    "sgd-lr0-true": ("train", "sgd", "lr0", {"sgd": {**SGD, "lr0": True}}),
    "init-typo": ("train", "init", "gate_bais", {"init": {"kind": "he", "gate_bais": -3.0}}),
    "init-run-field": ("train", "init", "rng_seed", {"init": {"kind": "he", "rng_seed": 5}}),
    "arch-typo": ("train", "arch", "widht", {"arch": {**HIGHWAY, "widht": 12}}),
    "arch-from-dataset": ("train", "arch", "in_features", {"arch": {**HIGHWAY, "in_features": 784}}),
    "search-typo": ("search", "search", "trails", {"search": {**SEARCH, "trails": 4}}),
    "search-range-scalar": ("search", "search", "lr0", {"search": {**SEARCH, "lr0": 0.1}}),
    "dataset-typo": ("train", "dataset", "cuont",
                     {"dataset": {"name": "synthetic", "count": 150, "cuont": 100}}),
    "top-level-typo": ("train", "config", "seeed", {"seeed": 3}),
    "depth-string": ("train", "arch", "depth", {"arch": {**HIGHWAY, "depth": "3"}}),
    "depth-bool": ("train", "arch", "depth", {"arch": {**HIGHWAY, "depth": True}}),
    "width-float": ("train", "arch", "width", {"arch": {**HIGHWAY, "width": 10.0}}),
    "kernel-float": ("train", "arch", "kernel_size", {"arch": {**CONV, "kernel_size": 3.0}}),
    "sgd-epochs-float": ("train", "sgd", "epochs", {"sgd": {**SGD, "epochs": 1.5}}),
    "sgd-batch-float": ("train", "sgd", "batch_size", {"sgd": {**SGD, "batch_size": 32.0}}),
    "search-trials-float": ("search", "search", "trials", {"search": {**SEARCH, "trials": 2.0}}),
    "search-epochs-float": ("search", "search", "epochs", {"search": {**SEARCH, "epochs": 1.5}}),
    "search-batch-string": ("search", "search", "batch_size",
                            {"search": {**SEARCH, "batch_size": "32"}}),
    "sweep-depth-string": ("sweep", "depths", "depth", {"depths": ["3"], "search": SEARCH}),
    "sweep-depths-not-list": ("sweep", "depths", "depths", {"depths": 3, "search": SEARCH}),
    "sweep-depth-zero": ("sweep", "depths", "depth", {"depths": [2, 0], "search": SEARCH}),
    "seed-string": ("train", "config", "seed", {"seed": "1"}),
    "search-seed-float": ("search", "config", "seed", {"seed": 1.5, "search": SEARCH}),
    "dataset-count-string": ("train", "dataset", "count",
                             {"dataset": {"name": "synthetic", "count": "60"}}),
    "dataset-seed-string": ("train", "dataset", "seed",
                            {"dataset": {"name": "synthetic", "count": 60, "seed": "4"}}),
    "dataset-subset-string": ("train", "dataset", "subset",
                              {"dataset": {"name": "synthetic", "count": 60, "subset": "30"}}),
    "image-shape-float": ("train", "arch", "image_shape",
                          {"arch": {**CONV, "image_shape": [1, 28.0, 28]}}),
    "image-shape-two": ("train", "arch", "image_shape", {"arch": {**CONV, "image_shape": [28, 28]}}),
    "image-shape-int": ("train", "arch", "image_shape", {"arch": {**CONV, "image_shape": 784}}),
    "search-gate-bias-positive": ("search", "search", "gate_bias",
                                  {"search": {**SEARCH, "gate_bias": [-3.0, 0.3]}}),
    "search-momentum-above-one": ("search", "search", "momentum",
                                  {"search": {**SEARCH, "momentum": [0.5, 1.5]}}),
    "sweep-decay-zero": ("sweep", "search", "decay",
                         {"search": {**SEARCH, "decay": [0.0, 1.0]}, "depths": [1]}),
    "search-range-strings": ("search", "search", "momentum",
                             {"search": {**SEARCH, "momentum": ["a", "b"]}}),
    "search-momentum-false": ("search", "search", "momentum",
                              {"search": {**SEARCH, "momentum": [False, 0.9]}}),
    "mnist-dir-int": ("train", "dataset", "dir", {"dataset": {"name": "mnist", "dir": 5}}),
    "mnist-images-list": ("train", "dataset", "images",
                          {"dataset": {"name": "mnist", "images": ["x"]}}),
    "cifar-paths-int": ("train", "dataset", "paths", {"dataset": {"name": "cifar10", "paths": [7]}}),
    "cifar-paths-bare-string": ("train", "dataset", "paths",
                                {"dataset": {"name": "cifar10", "paths": "cifar.bin"}}),
    "dataset-name-unknown": ("train", "dataset", "name", {"dataset": {"name": "imagenet"}}),
    # a key only another dataset name reads
    "synthetic-paths": ("train", "dataset", "paths",
                        {"dataset": {"name": "synthetic", "count": 60, "paths": ["cifar.bin"]}}),
    "cifar-images": ("train", "dataset", "images",
                     {"dataset": {"name": "cifar10", "paths": ["cifar.bin"], "images": "i"}}),
    "mnist-paths": ("train", "dataset", "paths",
                    {"dataset": {"name": "mnist", "paths": ["cifar.bin"]}}),
    "mnist-files-and-dir": ("train", "dataset", "dir",
                            {"dataset": {"name": "mnist", "images": "a.idx3", "labels": "b.idx1",
                                         "dir": "elsewhere"}}),
    "mnist-labels-int": ("train", "dataset", "labels", {"dataset": {"name": "mnist", "labels": 5}}),
    "dataset-count-bool": ("train", "dataset", "count",
                           {"dataset": {"name": "synthetic", "count": True}}),
    "dataset-subset-zero": ("train", "dataset", "subset",
                            {"dataset": {"name": "synthetic", "count": 60, "subset": 0}}),
    "dataset-seed-float": ("train", "dataset", "seed",
                           {"dataset": {"name": "synthetic", "count": 60, "seed": 1.5}}),
    "cifar-as-images-string": ("train", "dataset", "as_images",
                               {"dataset": {"name": "cifar10", "paths": ["a"], "as_images": "no"}}),
    "out-dir-int": ("train", "config", "out_dir", {"out_dir": 5}),
    "image-shape-not-inputs": ("train", "arch", "image_shape",
                               {"arch": {**CONV, "image_shape": [1, 20, 20]}}),
    "search-image-shape-not-inputs": ("search", "arch", "image_shape",
                                      {"arch": {**CONV, "image_shape": [4, 28, 28]},
                                       "search": SEARCH}),
    "sweep-cell-image-shape-not-inputs": ("sweep", "kinds", "image_shape",
                                          {"arch": {**HIGHWAY, "image_shape": [1, 20, 20]},
                                           "kinds": ["highway", "conv-highway"], "depths": [1],
                                           "search": SEARCH}),
    "kernel-even": ("train", "arch", "kernel_size", {"arch": {**CONV, "kernel_size": 4}}),
    "search-kernel-even": ("search", "arch", "kernel_size",
                           {"arch": {**CONV, "kernel_size": 4}, "search": SEARCH}),
    "sweep-cell-kernel-even": ("sweep", "kinds", "kernel_size",
                               {"arch": {**HIGHWAY, "image_shape": [1, 28, 28], "kernel_size": 4},
                                "kinds": ["highway", "conv-highway"], "depths": [1],
                                "search": SEARCH}),
    "activation-unknown": ("train", "arch", "activation",
                           {"arch": {**HIGHWAY, "activation": "sigmoid"}}),
    "search-activation-unknown": ("search", "arch", "activation",
                                  {"arch": {**HIGHWAY, "activation": "bogus"}, "search": SEARCH}),
    "sweep-activation-unknown": ("sweep", "arch", "activation",
                                 {"arch": {**HIGHWAY, "activation": "bogus"}, "depths": [1],
                                  "search": SEARCH}),
    # json.dump writes these as the NaN/Infinity constants, which json.load accepts
    "sgd-lr0-infinity": ("train", "config", "Infinity", {"sgd": {**SGD, "lr0": float("inf")}}),
    "init-gate-bias-minus-infinity": ("train", "config", "Infinity",
                                      {"init": {"kind": "he", "gate_bias": -float("inf")}}),
    "sgd-momentum-nan": ("train", "config", "NaN", {"sgd": {**SGD, "momentum": float("nan")}}),
    "search-lr0-infinity": ("search", "config", "Infinity",
                            {"search": {**SEARCH, "lr0": [0.001, float("inf")]}}),
    "sweep-decay-nan": ("sweep", "config", "NaN",
                        {"search": {**SEARCH, "decay": [float("nan"), 1.0]}, "depths": [1]}),
}


def read_log_rows(path):
    lines = open(path).read().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


class TestTrain:
    def test_writes_log_checkpoint_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "log.csv").exists()
        assert (tmp_path / "run" / "model.ckpt").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 11
        assert "version" in manifest

    def test_missing_config(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_config_that_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "notjson.cfg"
        cfg.write_text("{'dataset': {}}")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "notjson.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "search", "sweep"])
    def test_config_without_a_dataset_section(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"), depths=[2])
        cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                                   if k != "dataset"}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "missing the 'dataset' section" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           dataset={"name": "mnist", "dir": str(tmp_path / "absent")},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "absent" in capsys.readouterr().err

    def test_same_seed_identical_logs_modulo_walltime(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "b")]) == 0
        rows_a = read_log_rows(tmp_path / "a" / "log.csv")
        rows_b = read_log_rows(tmp_path / "b" / "log.csv")
        # all columns except the wall-time one must match exactly
        assert [r[:4] for r in rows_a] == [r[:4] for r in rows_b]

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           sgd={"lr0": 1e200, "momentum": 0.9, "decay": 1.0,
                                "epochs": 2, "batch_size": 32},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg), "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_data_dir_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           dataset={"name": "mnist", "dir": str(tmp_path / "a")},
                           out_dir=str(tmp_path / "run"))
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path / "elsewhere")])
        assert code == 2
        assert "elsewhere" in capsys.readouterr().err

    def test_data_dir_flag_with_a_dataset_that_is_no_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", dataset=[1], out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg), "--data-dir", str(tmp_path)]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_data_dir_flag_on_a_dataset_that_reads_no_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))  # synthetic
        assert main(["train", "--config", str(cfg), "--data-dir", str(tmp_path)]) == 2
        assert re.search(r"\bdir\b", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_data_dir_flag_beside_both_mnist_files(self, tmp_path, capsys):
        """An mnist section that names both files reads no dir."""
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"),
                           dataset={"name": "mnist", "images": "a.idx3", "labels": "b.idx1"})
        assert main(["train", "--config", str(cfg), "--data-dir", str(tmp_path)]) == 2
        assert re.search(r"\bdir\b", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_impossible_allocation_exits_2(self, tmp_path, capsys):
        # a 10^12 x 784 float64 matrix is larger than the address space, so
        # the allocation fails without touching memory
        cfg = write_config(tmp_path / "c.json", arch={**HIGHWAY, "width": 10**12},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "allocate" in capsys.readouterr().err

    def test_jobs_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--jobs", "2"])
        assert exc.value.code == 2

    def test_conv_highway_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           dataset={"name": "synthetic", "count": 80},
                           arch={"kind": "conv-highway", "depth": 2,
                                 "image_shape": [1, 28, 28], "kernel_size": 3,
                                 "activation": "relu"},
                           sgd={"lr0": 0.05, "momentum": 0.9, "decay": 1.0,
                                "epochs": 1, "batch_size": 16},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        from highwaynet.checkpoint import load_checkpoint
        net = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert net.is_conv and len(net.body) == 2


class TestTrainEqualsTrial:
    @pytest.mark.parametrize("kind, jobs", [("highway", 2), ("plain", 1)])
    def test_train_reruns_each_search_trial(self, tmp_path, kind, jobs):
        """`train` with a search.csv row's values and seed logs the trial's
        final_loss last and its best_loss lowest, digit for digit."""
        dataset = {"name": "synthetic", "count": 150, "seed": 4}
        arch = {**HIGHWAY, "kind": kind}
        search = {"trials": 3, "epochs": 2, "batch_size": 32}
        cfg = write_config(tmp_path / "search.json", dataset=dataset, arch=arch, search=search,
                           seed=2, out_dir=str(tmp_path / "search"))  # draws relu and tanh
        assert main(["search", "--config", str(cfg), "--jobs", str(jobs)]) == 0
        with open(tmp_path / "search" / "search.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for row in rows:
            init = {"kind": "he"}
            if row["gate_bias"]:
                init["gate_bias"] = float(row["gate_bias"])
            sgd = {key: float(row[key]) for key in ("lr0", "momentum", "decay")}
            run = tmp_path / f"trial{row['trial']}"
            cfg = write_config(tmp_path / "train.json", dataset=dataset, init=init,
                               arch={**arch, "activation": row["activation"]},
                               sgd={**sgd, "epochs": 2, "batch_size": 32},
                               seed=int(row["seed"]), out_dir=str(run))
            assert main(["train", "--config", str(cfg)]) == (0 if row["status"] == "ok" else 3)
            losses = [cells[1] for cells in read_log_rows(run / "log.csv")] or ["inf"]
            assert row["final_loss"] == losses[-1]
            assert row["best_loss"] == min(losses, key=float)


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_names_section_and_key(self, tmp_path, capsys, case):
        command, section, key, overrides = MALFORMED[case]
        cfg = write_config(tmp_path / "c.json", **{"out_dir": str(tmp_path / "run"), **overrides})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{section}\b", err) and re.search(rf"\b{key}\b", err), err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 309],
                             ids=["1e400", "-1e400", "int-1e309"])
    def test_number_too_large_for_a_float(self, tmp_path, capsys, literal):
        cfg = write_config(tmp_path / "c.json", sgd={**SGD, "lr0": 12345.5},
                           out_dir=str(tmp_path / "run"))
        cfg.write_text(cfg.read_text().replace("12345.5", literal))
        assert main(["train", "--config", str(cfg)]) == 2
        assert literal in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestConfigReference:
    """README's annotated config example, less its // comments, reads through
    each section's dataclass, so the reference cannot drift from the schema.
    Nothing is loaded or built."""

    def test_every_section_reads(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
            example = f.read().split("```jsonc\n")[1].split("```")[0]
        cfg = _section("config", json.loads(re.sub(r"//.*", "", example)), CONFIG_KEYS)
        assert set(cfg) == set(CONFIG_KEYS)
        _build(DatasetSpec, "dataset", cfg["dataset"])
        assert cfg["arch"]["activation"] in ACTIVATIONS
        _build(NetworkTemplate, "arch", cfg["arch"], "activation", in_features=784, classes=10,
               init_kind="he")
        scheme = _build(InitScheme, "init", cfg["init"], rng_seed=0)
        _build(TrainConfig, "sgd", cfg["sgd"], activation="relu", gate_bias=scheme.gate_bias)
        _build(SearchSpace, "search", cfg["search"])


class TestSweep:
    def test_two_kinds_two_depths(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", depths=[2, 3],
                           kinds=["plain", "highway"],
                           out_dir=str(tmp_path / "sweep"))
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("kind,depth,status,best_loss")
        assert len(lines) == 5
        best_losses = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(np.isfinite(v) for v in best_losses)
        assert (tmp_path / "sweep" / "search_plain_2.csv").exists()
        assert (tmp_path / "sweep" / "search_highway_3.csv").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"depths": [2, 0]}, "0"),
        ({"depths": [2, True]}, "True"),
        ({"depths": [2], "kinds": ["highway", "hghway"]}, "hghway"),
        ({"depths": [2], "kinds": [["highway"]]}, "highway"),
        ({"depths": [2], "kinds": []}, "kinds"),
        ({"depths": [2, 2]}, "[2, 2]"),
        ({"depths": [2], "kinds": ["highway", "highway"]}, "['highway', 'highway']"),
        ({"depths": [2, 2], "kinds": ["highway", "highway"]}, "repeat"),
    ], ids=["depth-zero", "depth-bool", "kind-typo", "kind-list", "kinds-empty",
            "depth-repeated", "kind-repeated", "both-repeated"])
    def test_grid_checked_before_the_dataset(self, tmp_path, capsys, monkeypatch,
                                             overrides, named):
        def no_dataset(spec, seed):
            raise AssertionError("the dataset was loaded before the grid was checked")
        monkeypatch.setattr(DatasetSpec, "load", no_dataset)
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "sweep"), **overrides)
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "kinds x depths" in err and named in err, err
        assert not (tmp_path / "sweep").exists()

    MIXED = {
        "dense-arch": ({**HIGHWAY, "depth": 2, "width": 6, "image_shape": [1, 28, 28]},
                       ["highway", "conv-highway"], "2"),
        "conv-arch": ({**CONV, "width": 6}, ["conv-highway", "plain"], "1"),
    }

    @staticmethod
    def sweep_rows(tmp_path, name, arch, kinds, jobs="1"):
        cfg = write_config(tmp_path / f"{name}.json", dataset={"name": "synthetic", "count": 48},
                           arch=arch, kinds=kinds, depths=[1, 2],
                           search={"trials": 2, "epochs": 1, "batch_size": 16},
                           out_dir=str(tmp_path / name))
        assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
        lines = (tmp_path / name / "sweep.csv").read_text().strip().splitlines()[1:]
        return [line for line in lines if line.startswith("conv-highway,")], lines

    @pytest.mark.parametrize("case", sorted(MIXED))
    def test_dense_and_conv_kinds_in_one_sweep(self, tmp_path, case):
        """Each cell shapes the flat dataset for its own kind, and a conv row
        is the row a conv-only sweep with the same seed and depths writes."""
        arch, kinds, jobs = self.MIXED[case]
        conv_rows, lines = self.sweep_rows(tmp_path, "mixed", arch, kinds, jobs)
        assert [line.split(",")[:2] for line in lines] == [
            [kind, depth] for kind in kinds for depth in ("1", "2")]
        for kind in kinds:
            for depth in (1, 2):
                assert (tmp_path / "mixed" / f"search_{kind}_{depth}.csv").exists()
        alone, _ = self.sweep_rows(tmp_path, "alone", {**CONV, "width": 6}, ["conv-highway"])
        assert conv_rows == alone and len(alone) == 2

    def test_empty_depths_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", depths=[],
                           out_dir=str(tmp_path / "sweep"))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "depths" in capsys.readouterr().err


class TestSearchCommand:
    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path / "c.json", depths=[2], out_dir=str(tmp_path / "run"))
        assert main([command, "--config", str(cfg), "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_writes_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "s"))
        assert main(["search", "--config", str(cfg)]) == 0
        lines = (tmp_path / "s" / "search.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 trials


class TestAnalyze:
    @pytest.fixture
    def trained_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           arch={"kind": "highway", "depth": 4, "width": 8,
                                 "activation": "relu"},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "run" / "model.ckpt"

    def test_emits_four_tables(self, tmp_path, trained_run):
        cfg, ckpt = trained_run
        out = tmp_path / "report"
        assert main(["analyze", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out-dir", str(out)]) == 0
        for name in ("bias_map", "mean_activity", "sample_trace", "block_outputs"):
            lines = (out / f"{name}.csv").read_text().strip().splitlines()
            assert len(lines) == 1 + 3        # header + (depth-1) rows
            assert len(lines[1].split(",")) == 8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["layers"] == 3 and summary["width"] == 8

    def test_plain_checkpoint_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           arch={"kind": "plain", "depth": 3, "width": 8,
                                 "activation": "relu"},
                           out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        code = main(["analyze", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                     "--out-dir", str(tmp_path / "report")])
        assert code == 2
        assert "plain" in capsys.readouterr().err

    def test_corrupt_checkpoint_rejected(self, tmp_path, capsys, trained_run):
        cfg, ckpt = trained_run
        raw = bytearray(ckpt.read_bytes())
        raw[0] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        code = main(["analyze", "--config", str(cfg), "--checkpoint", str(bad),
                     "--out-dir", str(tmp_path / "report")])
        assert code == 2

    def test_missing_checkpoint(self, tmp_path, trained_run, capsys):
        cfg, _ = trained_run
        code = main(["analyze", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "ghost.ckpt"),
                     "--out-dir", str(tmp_path / "report")])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestManifest:
    def test_contains_resolved_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["arch"]["depth"] == 3
        assert manifest["config"]["sgd"]["lr0"] == 0.05

    def test_names_the_blas_at_one_thread(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        set_blas_threads(2)  # main pins 1 whatever the caller had set
        assert main(["train", "--config", str(cfg_path)]) == 0
        blas = json.loads((tmp_path / "run" / "manifest.json").read_text())["blas"]
        assert blas == set_blas_threads(1) and blas["threads"] in (1, None)

    def test_analyze_names_its_inputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = str(tmp_path / "run" / "model.ckpt")
        assert main(["analyze", "--config", str(cfg), "--checkpoint", ckpt,
                     "--probe-index", "3", "--out-dir", str(tmp_path / "report")]) == 0
        manifest = json.loads((tmp_path / "report" / "manifest.json").read_text())
        with open(ckpt, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert manifest["inputs"] == {"checkpoint": ckpt, "probe_index": 3, "sha256": digest}
        train = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert "inputs" not in train

    @staticmethod
    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_idx_train_names_both_files(self, tmp_path):
        images, labels = tmp_path / "digits.idx3", tmp_path / "digits.idx1"
        save_idx(synthetic_digits(150, seed=3), images, labels)
        cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"),
                           dataset={"name": "mnist", "images": str(images), "labels": str(labels)})
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["inputs"] == {"data": {str(images): self.sha256(images),
                                               str(labels): self.sha256(labels)}}

    def test_cifar_search_names_its_path_and_its_bytes(self, tmp_path):
        """The digest is of the bytes read: one changed pixel byte changes it."""
        path = tmp_path / "cifar.bin"
        save_cifar_binary(Dataset(Rng(4).uniform(size=(48, 3072)), Rng(5).integers(10, size=48),
                                  10, "cifar10"), path)
        cfg = write_config(tmp_path / "c.json", dataset={"name": "cifar10", "paths": [str(path)]})
        digests = []
        for run in ("before", "after"):
            assert main(["search", "--config", str(cfg), "--out-dir", str(tmp_path / run)]) == 0
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            assert manifest["inputs"] == {"data": {str(path): self.sha256(path)}}
            digests.append(manifest["inputs"]["data"][str(path)])
            raw = bytearray(path.read_bytes())
            raw[100] ^= 1
            path.write_bytes(bytes(raw))
        assert digests[0] != digests[1]

    def test_every_json_output_is_strict(self, tmp_path):
        """A fresh-init net (lr0 0) has one gate bias everywhere, so its
        bias/activity correlation is undefined: summary.json holds null, and
        every JSON file the four commands write parses without NaN."""
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        cfg = write_config(tmp_path / "c.json", sgd={**SGD, "lr0": 0.0}, depths=[2],
                           out_dir=str(tmp_path / "train"))
        ckpt = str(tmp_path / "train" / "model.ckpt")
        for command, extra in [("train", []), ("search", []), ("sweep", []),
                               ("analyze", ["--checkpoint", ckpt])]:
            assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / command),
                         *extra]) == 0
            for path in (tmp_path / command).glob("*.json"):
                assert json.loads(path.read_text(), parse_constant=refuse) is not None
            manifest = json.loads((tmp_path / command / "manifest.json").read_text())
            assert manifest["command"] == command and manifest["seed"] == 11
        summary = json.loads((tmp_path / "analyze" / "summary.json").read_text())
        assert summary["bias_activity_correlation"] is None


class TestBlasThreadEnvironment:
    def test_train_bits_do_not_depend_on_the_thread_variable(self, tmp_path):
        """main runs BLAS at one thread whatever OPENBLAS_NUM_THREADS says;
        at 2 threads the input layer's (64, 784) x (784, 50) GEMM sums in
        another order."""
        cfg = write_config(tmp_path / "c.json", dataset={"name": "synthetic", "count": 1000},
                           arch={"kind": "highway", "depth": 10, "width": 50,
                                 "activation": "relu"},
                           sgd={"lr0": 0.05, "momentum": 0.9, "decay": 0.95, "epochs": 1,
                                "batch_size": 64}, seed=1)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            out = tmp_path / f"threads{threads}"
            done = subprocess.run([sys.executable, "-m", "highwaynet.cli", "train", "--config",
                                   str(cfg), "--out-dir", str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            log = [row[:-1] for row in csv.reader((out / "log.csv").read_text().splitlines())]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["blas"] == set_blas_threads(1)
            outputs.append((log, (out / "model.ckpt").read_bytes()))
        assert outputs[0] == outputs[1]


# The configs the fuzz below starts from: every section present and each run
# tiny (48 samples, 1 epoch).  Mutated integers stay in [-3, 8] so that no
# draw asks for a large dataset, network or search.
FUZZ_BASE = {
    "dataset": {"name": "synthetic", "count": 48, "seed": 3},
    "arch": {"kind": "highway", "depth": 3, "width": 6, "activation": "relu"},
    "init": {"kind": "he", "gate_bias": -2.0},
    "sgd": {"lr0": 0.05, "momentum": 0.9, "decay": 0.95, "epochs": 1, "batch_size": 16},
    "search": {"trials": 2, "epochs": 1, "batch_size": 16},
    "depths": [2, 3],
    "kinds": ["plain", "highway"],
    "seed": 5,
    "out_dir": "out",
}
FUZZ_BASES = (
    FUZZ_BASE,
    {**FUZZ_BASE, "arch": {"kind": "conv-highway", "depth": 1, "image_shape": [1, 28, 28],
                           "activation": "tanh"}},
    {**FUZZ_BASE, "dataset": {"name": "cifar10", "paths": ["cifar.bin"]}},
    {**FUZZ_BASE, "dataset": {"name": "mnist", "dir": "data", "subset": 8}},
)
FUZZ_WORDS = ("relu", "tanh", "identity", "plain", "highway", "conv-highway", "he", "glorot",
              "synthetic", "mnist", "cifar10", "cifar100", "cifar.bin", "count", "depth")
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=6)
    | st.sampled_from(FUZZ_WORDS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=6) | st.sampled_from(FUZZ_WORDS), inner, max_size=3),
    max_leaves=5)


def value_nodes(node):
    yield node
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from value_nodes(child)


def mutate(cfg: dict, data) -> None:
    """One drawn edit of cfg in place: a value replaced, a key deleted or an
    unknown key added, anywhere in the config."""
    holders = [node for node in value_nodes(cfg) if isinstance(node, (dict, list)) and node]
    node = data.draw(st.sampled_from(holders))
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    edit = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if edit == "replace" or isinstance(node, list):
        node[key] = data.draw(FUZZ_VALUES)
    elif edit == "delete":
        del node[key]
    else:
        node[data.draw(st.text(max_size=6) | st.sampled_from(FUZZ_WORDS))] = data.draw(FUZZ_VALUES)


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(command=st.sampled_from(["train", "search", "sweep", "analyze"]),
           base=st.sampled_from(FUZZ_BASES), edits=st.integers(1, 3),
           data_dir=st.none() | st.sampled_from(["data", "elsewhere"]), data=st.data())
    def test_exit_code_is_0_2_or_3(self, tmp_path, monkeypatch, capsys, command, base, edits,
                                   data_dir, data):
        """Whatever a config holds, the CLI ends with exit 0, 2 or 3 and no
        traceback (an escaping exception would exit 1)."""
        monkeypatch.chdir(tmp_path)  # the relative paths in a config resolve here
        if not os.path.exists("cifar.bin"):
            save_cifar_binary(Dataset(Rng(4).uniform(size=(48, 3072)),
                                      Rng(5).integers(10, size=48), 10, "cifar10"), "cifar.bin")
        cfg = json.loads(json.dumps(base))
        for _ in range(edits):
            mutate(cfg, data)
        with open("c.json", "w") as f:
            json.dump(cfg, f)
        argv = [command, "--config", "c.json"] + (["--data-dir", data_dir] if data_dir else [])
        if command == "analyze":
            argv += ["--checkpoint", str(self.checkpoint(tmp_path))]
        assert main(argv) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @staticmethod
    def checkpoint(tmp_path):
        path = tmp_path / "fuzz.ckpt"
        if not path.exists():
            cfg = write_config(tmp_path / "base.json", **FUZZ_BASE)
            assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "ckpt")]) == 0
            os.replace(tmp_path / "ckpt" / "model.ckpt", path)
        return path
