"""Experiment command line: train, sweep, search, analyze.

Each run is driven by a JSON config file (flags override the common keys)
and writes a manifest.json recording the resolved config, seed, and package
version, which is enough to reproduce the outputs byte for byte (modulo the
wall-time column in the training log).

Exit codes: 0 success; 2 config/usage/format problems; 3 training diverged;
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .analysis import AnalysisError, bias_activity_correlation, export_report, gate_report, gate_sparsity
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import Dataset, FormatError, load_cifar_binary, load_idx, subset, synthetic_digits
from .ops import Rng, derive_seed
from .optim import SgdConfig, train
from .search import NetworkTemplate, SearchSpace, run_search, write_search_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _require(cfg: dict, key: str, context: str) -> dict:
    if key not in cfg:
        raise ConfigError(f"config is missing the {key!r} section ({context})")
    return cfg[key]


def load_dataset(cfg: dict, seed: int) -> Dataset:
    section = _require(cfg, "dataset", "what to train on")
    name = section.get("name", "synthetic")
    ds_seed = section.get("seed", seed)
    if name == "synthetic":
        ds = synthetic_digits(section.get("count", 10000), ds_seed)
    elif name == "mnist":
        directory = section.get("dir", "data")
        images = section.get("images", os.path.join(directory, "train-images-idx3-ubyte"))
        labels = section.get("labels", os.path.join(directory, "train-labels-idx1-ubyte"))
        for p in (images, labels):
            if not os.path.exists(p):
                raise ConfigError(f"dataset file not found: {p} "
                                  "(tools/fetch_mnist.py downloads the archives)")
        ds = load_idx(images, labels)
    elif name in ("cifar10", "cifar100"):
        paths = section.get("paths")
        if not paths:
            raise ConfigError("cifar datasets need dataset.paths = [batch files]")
        for p in paths:
            if not os.path.exists(p):
                raise ConfigError(f"dataset file not found: {p}")
        ds = load_cifar_binary(paths, name, as_images=section.get("as_images", False))
    else:
        raise ConfigError(f"unknown dataset name: {name!r}")
    if "subset" in section and section["subset"] is not None:
        n = section["subset"]
        if n > ds.count:
            raise ConfigError(f"subset {n} larger than dataset ({ds.count})")
        ds = subset(ds, n, Rng(derive_seed(ds_seed, 90)))
    return ds


def _template(cfg: dict) -> NetworkTemplate:
    arch = _require(cfg, "arch", "network architecture")
    init_cfg = cfg.get("init", {})
    for key in ("kind", "depth", "width"):
        if key not in arch and not (key == "width" and arch.get("kind") == "conv-highway"):
            raise ConfigError(f"arch section is missing {key!r}")
    return NetworkTemplate(
        kind=arch["kind"],
        depth=arch["depth"],
        width=arch.get("width", 0),
        in_features=arch.get("in_features", 784),
        classes=arch.get("classes", 10),
        init_kind=init_cfg.get("kind", "he"),
        image_shape=tuple(arch["image_shape"]) if "image_shape" in arch else None,
        kernel_size=arch.get("kernel_size", 3),
    )


def _write_manifest(out_dir: str, command: str, cfg: dict, seed: int) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _search_space(cfg: dict) -> SearchSpace:
    s = cfg.get("search", {})
    kwargs = {}
    for key in ("lr0", "momentum", "decay", "gate_bias"):
        if key in s:
            kwargs[key] = tuple(s[key]) if s[key] is not None else None
    if "activations" in s:
        kwargs["activations"] = tuple(s["activations"])
    for key in ("trials", "epochs", "batch_size"):
        if key in s:
            kwargs[key] = s[key]
    return SearchSpace(**kwargs)


def _shape_for_arch(ds: Dataset, template: NetworkTemplate) -> Dataset:
    """Flatten for dense networks, reshape to [count, c, h, w] for conv."""
    if template.kind != "conv-highway":
        return ds.flattened()
    if template.image_shape is None:
        raise ConfigError("conv-highway needs arch.image_shape = [c, h, w]")
    if ds.inputs.ndim == 4:
        return ds
    c, h, w = template.image_shape
    if ds.features != c * h * w:
        raise ConfigError(f"dataset features {ds.features} do not fill image {template.image_shape}")
    return Dataset(ds.inputs.reshape(-1, c, h, w), ds.labels, ds.num_classes, ds.name)


def cmd_train(cfg: dict) -> int:
    seed = cfg.get("seed", 0)
    out_dir = cfg.get("out_dir", "runs/train")
    os.makedirs(out_dir, exist_ok=True)
    template = _template(cfg)
    ds = _shape_for_arch(load_dataset(cfg, seed), template)
    sgd_cfg = _require(cfg, "sgd", "optimizer settings")
    net = replace(template, in_features=ds.features, classes=ds.num_classes).build(
        cfg["arch"].get("activation", "relu"), cfg.get("init", {}).get("gate_bias"),
        derive_seed(seed, 1))
    config = SgdConfig(**sgd_cfg)
    _, log = train(net, ds, config, Rng(derive_seed(seed, 2)))

    log.write_csv(os.path.join(out_dir, "log.csv"))
    save_checkpoint(net, os.path.join(out_dir, "model.ckpt"))
    _write_manifest(out_dir, "train", cfg, seed)
    if log.diverged:
        print(f"diverged after {len(log.entries)} epochs; artifacts in {out_dir}")
        return EXIT_DIVERGED
    print(f"trained {template.kind} depth={template.depth}: "
          f"loss={log.final_loss():.6f} acc={log.entries[-1].accuracy:.4f} -> {out_dir}")
    return EXIT_OK


def cmd_search(cfg: dict, jobs: int = 1) -> int:
    seed = cfg.get("seed", 0)
    out_dir = cfg.get("out_dir", "runs/search")
    os.makedirs(out_dir, exist_ok=True)
    template = _template(cfg)
    ds = _shape_for_arch(load_dataset(cfg, seed), template)
    template = replace(template, in_features=ds.features, classes=ds.num_classes)
    space = _search_space(cfg)
    results = run_search(space, template, ds, seed, jobs=jobs)
    write_search_csv(results, os.path.join(out_dir, "search.csv"))
    _write_manifest(out_dir, "search", cfg, seed)
    best = results[0]
    print(f"search over {space.trials} trials: best loss {best.best_loss:.6f} "
          f"(trial {best.trial}, status {best.status}) -> {out_dir}")
    return EXIT_OK


def cmd_sweep(cfg: dict, jobs: int = 1) -> int:
    seed = cfg.get("seed", 0)
    out_dir = cfg.get("out_dir", "runs/sweep")
    depths = cfg.get("depths", [])
    kinds = cfg.get("kinds", [cfg.get("arch", {}).get("kind", "highway")])
    if not depths:
        raise ConfigError("sweep needs a non-empty 'depths' list")
    os.makedirs(out_dir, exist_ok=True)
    base = _template(cfg)
    ds = _shape_for_arch(load_dataset(cfg, seed), base)
    space = _search_space(cfg)

    rows = []
    for kind in kinds:
        for depth in depths:
            template = replace(base, kind=kind, depth=depth, in_features=ds.features,
                               classes=ds.num_classes)
            results = run_search(space, template, ds, derive_seed(seed, depth), jobs=jobs)
            write_search_csv(results, os.path.join(out_dir, f"search_{kind}_{depth}.csv"))
            best = results[0]
            rows.append((kind, depth, best))
            print(f"{kind} depth={depth}: best loss {best.best_loss:.6f} ({best.status})")

    with open(os.path.join(out_dir, "sweep.csv"), "w") as f:
        f.write("kind,depth,status,best_loss,final_loss,lr0,momentum,decay,"
                "activation,gate_bias,seed\n")
        for kind, depth, best in rows:
            c = best.config
            gate = "" if c.gate_bias is None else repr(c.gate_bias)
            f.write(f"{kind},{depth},{best.status},{best.best_loss!r},{best.final_loss!r},"
                    f"{c.lr0!r},{c.momentum!r},{c.decay!r},{c.activation},{gate},{best.seed}\n")
    _write_manifest(out_dir, "sweep", cfg, seed)
    return EXIT_OK


def cmd_analyze(cfg: dict, checkpoint_path: str, out_dir: str, probe_index: int = 0) -> int:
    seed = cfg.get("seed", 0)
    if not os.path.exists(checkpoint_path):
        raise ConfigError(f"checkpoint not found: {checkpoint_path}")
    net = load_checkpoint(checkpoint_path)
    ds = load_dataset(cfg, seed).flattened()
    report = gate_report(net, ds, probe_index)
    os.makedirs(out_dir, exist_ok=True)
    paths = export_report(report, out_dir)
    sparsity = gate_sparsity(report)
    summary = {
        "sample_count": report.sample_count,
        "layers": int(report.bias_map.shape[0]),
        "width": int(report.bias_map.shape[1]),
        "mean_sparsity": float(sparsity["mean"].mean()),
        "sample_sparsity": float(sparsity["sample"].mean()),
        "bias_activity_correlation": bias_activity_correlation(report),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(out_dir, "analyze", cfg, seed)
    print(f"wrote {len(paths)} gate tables ({summary['layers']}x{summary['width']}) -> {out_dir}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="highwaynet",
                                     description="gated-network experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "sweep", "search"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--data-dir", default=None)
        if name != "train":
            p.add_argument("--jobs", type=int, default=1)
    p = sub.add_parser("analyze")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", default="runs/analyze")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--probe-index", type=int, default=0)
    return parser


def _apply_overrides(cfg: dict, args) -> dict:
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.data_dir is not None:
        cfg.setdefault("dataset", {})["dir"] = args.data_dir
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "search":
            return cmd_search(cfg, jobs=args.jobs)
        if args.command == "sweep":
            return cmd_sweep(cfg, jobs=args.jobs)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.checkpoint, args.out_dir, args.probe_index)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FormatError, CheckpointError, AnalysisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
