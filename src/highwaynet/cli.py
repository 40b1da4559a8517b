"""Experiment command line: train, sweep, search, analyze.

Each run is driven by a JSON config file (flags override the common keys;
_build reads each section into its dataclass).  A command makes its output
directory after its last config check and writes its outputs there.  main pins
BLAS to one thread and adds manifest.json (config, seed, version, BLAS, the files
read and their sha256): enough to reproduce the outputs byte for byte bar log.csv's seconds.

Exit codes: 0 success; 2 config/usage/format problems; 3 training diverged;
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .analysis import bias_activity_correlation, export_report, gate_report, gate_sparsity
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DatasetSpec
from .init import InitScheme, NetworkTemplate
from .layers import BODY_KINDS
from .ops import ACTIVATIONS, derive_seed, require_int, set_blas_threads, write_csv
from .search import (CONFIG_COLUMNS, SearchSpace, TrainConfig, config_cells, fit, run_search,
                     write_search_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# The keys a section may hold, each with the type no later check enforces.
CONFIG_KEYS = {"dataset": object, "arch": object, "init": object, "sgd": object,
               "search": object, "depths": list, "kinds": list, "seed": object, "out_dir": str}


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def _section(name: str, section, keys) -> dict:
    """The config object `name`, checked to hold no key outside keys and,
    where keys maps a key to a type, no value of another type."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{name}: unknown key {', '.join(map(repr, unknown))}")
    for key, value in section.items():
        if isinstance(keys, dict) and not isinstance(value, keys[key]):
            raise ConfigError(f"{name}: {key} must be a {keys[key].__name__}, got {value!r}")
    return section


def _build(cls, name: str, section, *extra: str, **run):
    """Config section `name` as the dataclass cls, whose fields and defaults
    are its schema.  The fields in `run` come from the run, not the config;
    the `extra` keys are allowed and left to the caller.  JSON lists become
    tuples; an unknown key or a value cls rejects is a ConfigError."""
    own = [f.name for f in fields(cls) if f.name not in run]
    _section(name, section, own + list(extra))
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items() if k in own}
    try:
        return cls(**values, **run)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _finite(text: str, number=float):
    """A JSON number or NaN/Infinity constant as `number`, refused unless finite as a float."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"config: {text} is not a finite number")
    return number(text)


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, parse_constant=_finite, parse_float=_finite,
                            parse_int=lambda text: _finite(text, int))
            return _section("config", cfg, CONFIG_KEYS)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _write_json(path: str, value) -> None:
    with open(path, "w") as f:
        json.dump(value, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _setup(cfg: dict, spec: DatasetSpec, seed: int):
    """The flat dataset, its NetworkTemplate, and the run fields train takes from arch and init."""
    # rng_seed is a run field: search.fit derives each run's init seed
    scheme = _build(InitScheme, "init", cfg.get("init", {}), rng_seed=0)
    arch = cfg.get("arch", {})
    if isinstance(arch, dict) and arch.get("kind") == "conv-highway":  # _build refuses a non-dict
        arch = {"width": 0, **arch}  # unused by conv layers, which keep the image's channels
    ds = spec.load(seed)
    template = _build(NetworkTemplate, "arch", arch, "activation", in_features=ds.features,
                      classes=ds.num_classes, init_kind=scheme.kind)
    activation = arch.get("activation", "relu")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"arch: activation must be one of {', '.join(ACTIVATIONS)}, "
                          f"got {activation!r}")
    return ds, template, {"activation": activation, "gate_bias": scheme.gate_bias}


def cmd_train(cfg: dict, spec: DatasetSpec, seed: int, out_dir: str, args) -> int:
    ds, template, run = _setup(cfg, spec, seed)
    config = _build(TrainConfig, "sgd", cfg.get("sgd", {}), **run)
    os.makedirs(out_dir, exist_ok=True)
    net, log = fit(template, ds, config, seed)

    log.write_csv(os.path.join(out_dir, "log.csv"))
    save_checkpoint(net, os.path.join(out_dir, "model.ckpt"))
    if log.diverged:
        print(f"diverged after {len(log.entries)} epochs; artifacts in {out_dir}")
        return EXIT_DIVERGED
    print(f"trained {template.kind} depth={template.depth}: "
          f"loss={log.final_loss():.6f} acc={log.entries[-1].accuracy:.4f} -> {out_dir}")
    return EXIT_OK


def cmd_search(cfg: dict, spec: DatasetSpec, seed: int, out_dir: str, args) -> int:
    space = _build(SearchSpace, "search", cfg.get("search", {}))
    ds, template, _ = _setup(cfg, spec, seed)
    os.makedirs(out_dir, exist_ok=True)
    results = run_search(space, template, ds, seed, jobs=args.jobs)
    write_search_csv(results, os.path.join(out_dir, "search.csv"))
    best = results[0]
    print(f"search over {space.trials} trials: best loss {best.best_loss:.6f} "
          f"(trial {best.trial}, status {best.status}) -> {out_dir}")
    return EXIT_OK


def cmd_sweep(cfg: dict, spec: DatasetSpec, seed: int, out_dir: str, args) -> int:
    if not cfg.get("depths"):
        raise ConfigError("sweep needs a non-empty 'depths' list")
    space = _build(SearchSpace, "search", cfg.get("search", {}))
    try:  # the kinds and depths alone, before the dataset is built
        if cfg.get("kinds") == []:
            raise ValueError("kinds must not be empty; leave it out to sweep the arch's kind")
        for kind in cfg.get("kinds", []):
            if not isinstance(kind, str) or kind not in BODY_KINDS:
                raise ValueError(f"unknown network kind: {kind!r}")
        for depth in cfg["depths"]:
            require_int("depth", depth)
        for name, values in (("kinds", cfg.get("kinds", [])), ("depths", cfg["depths"])):
            if any(value in values[:i] for i, value in enumerate(values)):
                raise ValueError(f"{name} must not repeat a value, got {values}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kinds x depths: {exc}") from exc
    ds, base, _ = _setup(cfg, spec, seed)
    try:  # check every (kind, depth) template before the first search starts
        templates = [replace(base, kind=kind, depth=depth)
                     for kind in cfg.get("kinds", [base.kind]) for depth in cfg["depths"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kinds x depths: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for t in templates:
        results = run_search(space, t, ds, derive_seed(seed, t.depth), jobs=args.jobs)
        write_search_csv(results, os.path.join(out_dir, f"search_{t.kind}_{t.depth}.csv"))
        best = results[0]
        rows.append((t.kind, t.depth, best.status, best.best_loss, best.final_loss,
                     *config_cells(best.config), best.seed))
        print(f"{t.kind} depth={t.depth}: best loss {best.best_loss:.6f} ({best.status})")
    write_csv(os.path.join(out_dir, "sweep.csv"), ("kind", "depth", "status", "best_loss",
                                                   "final_loss", *CONFIG_COLUMNS, "seed"), rows)
    return EXIT_OK


def cmd_analyze(cfg: dict, spec: DatasetSpec, seed: int, out_dir: str, args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = spec.load(seed)
    report = gate_report(net, ds, args.probe_index)
    paths = export_report(report, out_dir)
    sparsity = gate_sparsity(report)
    correlation = bias_activity_correlation(report)  # NaN when undefined; JSON has null
    summary = {
        "sample_count": report.sample_count,
        "layers": int(report.bias_map.shape[0]),
        "width": int(report.bias_map.shape[1]),
        "mean_sparsity": float(sparsity["mean"].mean()),
        "sample_sparsity": float(sparsity["sample"].mean()),
        "bias_activity_correlation": correlation if math.isfinite(correlation) else None,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"wrote {len(paths)} gate tables ({summary['layers']}x{summary['width']}) -> {out_dir}")
    return EXIT_OK


COMMANDS = {"train": cmd_train, "sweep": cmd_sweep, "search": cmd_search, "analyze": cmd_analyze}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="highwaynet",
                                     description="gated-network experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default="runs/analyze" if name == "analyze" else None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--data-dir", default=None)
        if name in ("sweep", "search"):
            p.add_argument("--jobs", type=int, default=1)
        if name == "analyze":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--probe-index", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    blas = set_blas_threads(1)  # the bits of a run depend on the count
    try:
        cfg = load_config(args.config)
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
        if args.seed is not None:
            cfg["seed"] = args.seed
        if "dataset" not in cfg:
            raise ConfigError("config is missing the 'dataset' section (what to train on)")
        if args.data_dir is not None and isinstance(cfg["dataset"], dict):  # else _build refuses
            cfg["dataset"]["dir"] = args.data_dir
        spec = _build(DatasetSpec, "dataset", cfg["dataset"])
        seed = require_int("config: seed", cfg.get("seed", 0), least=None)
        require_int("jobs", getattr(args, "jobs", 1))  # sweep and search only
        out_dir = cfg.get("out_dir", f"runs/{args.command}")
        code = COMMANDS[args.command](cfg, spec, seed, out_dir, args)
        inputs = {"data": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                           for path in spec.files}} if spec.files else {}
        if args.command == "analyze":  # and the checkpoint
            inputs.update(checkpoint=args.checkpoint, probe_index=args.probe_index,
                          sha256=hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest())
        manifest = {"command": args.command, "config": cfg, "seed": seed, "version": __version__,
                    "blas": blas, **({"inputs": inputs} if inputs else {})}
        _write_json(os.path.join(out_dir, "manifest.json"), manifest)
        return code
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
