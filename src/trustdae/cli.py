"""Experiment runner: preprocess, run, sweep, gradcheck, synth.

Configuration is a plain key=value file; repeated --set flags override
file values. Every output CSV starts with comment lines echoing the
fully resolved configuration and the content hash of the dataset cache,
so any row can be reproduced from its own header.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baselines, dataset, metrics, synth, trainer
from .gradcheck import PATHS, run_suite
from .model import Hyperparams, predict_scores, save_checkpoint

# comma-separated list settings and the kind of each element
_LISTS = {"bucket_edges": int, "alpha_grid": float, "beta_grid": float, "k_grid": int}


@dataclass(frozen=True)
class ExperimentConfig(Hyperparams):
    """Run settings on top of the model's Hyperparams fields and defaults."""

    ratings: str = "ratings.txt"
    trusts: str = "trusts.txt"
    cache: str = "dataset.cache"
    out: str = "out"
    min_count: int = 5
    folds: int = 5
    variant: str = "tdae"
    checkpoint_every: int = 0
    bucket_edges: str = "5,20,50,200"
    alpha_grid: str = ""
    beta_grid: str = ""
    k_grid: str = ""
    synth_users: int = 200
    synth_items: int = 300
    synth_communities: int = 4
    synth_block_items: int = 60
    synth_p_rate: float = 0.3
    synth_p_trust: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        for name in _LISTS:
            self.list_values(name)
        edges = self.list_values("bucket_edges")
        if any(hi <= lo for lo, hi in zip(edges, edges[1:])):
            raise ValueError("bucket_edges must be strictly increasing")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.variant not in baselines.VARIANTS:
            raise ValueError(f"variant must be one of {baselines.VARIANTS}, not {self.variant!r}")

    def list_values(self, name: str) -> list:
        """The parsed elements of the list setting `name` (see _LISTS)."""
        text = getattr(self, name)
        try:
            return [_LISTS[name](tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"bad value for {name}: {text!r}") from None

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(**{f.name: getattr(self, f.name) for f in fields(Hyperparams)})

    def resolved_lines(self) -> list[str]:
        out = []
        for f in sorted(fields(self), key=lambda f: f.name):
            out.append(f"# {f.name}={getattr(self, f.name)}")
        return out


class ConfigError(Exception):
    pass


def _coerce(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    kinds = {f.name: f.type if isinstance(f.type, type) else type(f.default)
             for f in fields(ExperimentConfig)}
    values: dict = {}

    def absorb(text: str, where: str):
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{where}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in kinds:
                raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, kinds[key], raw)

    if path:
        with open(path, "r", encoding="utf-8") as fh:
            absorb(fh.read(), path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in kinds:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _coerce(key, kinds[key], raw)
    return ExperimentConfig(**values)  # validates the settings


@contextlib.contextmanager
def _replacing(path: str):
    """Yield `path`.tmp to fill; it replaces `path`, or is removed if the block raises."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _atomic_write(path: str, lines: list[str]) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def fold_seed(base: int, fold: int) -> int:
    return int(np.random.SeedSequence([base, fold]).generate_state(1)[0])


def run_cross_validation(ds: dataset.Dataset, cfg: ExperimentConfig,
                         out_dir: str | None = None,
                         header: list[str] | None = None):
    """Train/evaluate the configured variant on every fold.

    Returns (MetricsReport, per-fold FoldMetrics). With `out_dir`, train
    logs and checkpoints are written per fold.
    """
    split = dataset.split_folds(ds, cfg.folds, cfg.seed)
    fold_metrics = []
    for fold in range(cfg.folds):
        try:
            fold_metrics.append(_run_fold(ds, split, fold, cfg, out_dir, header))
        except Exception as exc:
            raise RuntimeError(f"fold {fold} failed: {exc}") from exc
        print(f"fold {fold}: map@{cfg.top_n}={fold_metrics[-1].map_at_n:.4f} "
              f"ndcg@{cfg.top_n}={fold_metrics[-1].ndcg_at_n:.4f}")
    edges = cfg.list_values("bucket_edges")
    report = metrics.aggregate_folds(fold_metrics, bucket_edges=edges or None)
    return report, fold_metrics


def _run_fold(ds, split, fold, cfg, out_dir, header):
    train_set, test_set = dataset.materialize_split(ds, split, fold)
    if cfg.variant == "pop":
        model = baselines.pop_fit(train_set)
        score_fn = lambda users: baselines.pop_scores(model, users)  # noqa: E731
    else:
        hp = baselines.ablation_config(cfg.hyperparams(), cfg.variant)
        hp = hp.replace(seed=fold_seed(cfg.seed, fold))
        ckpt = None
        if out_dir:
            def ckpt(epoch, params, _fold=fold, _hp=hp):
                with _replacing(os.path.join(out_dir, f"fold{_fold}.ckpt")) as tmp:
                    save_checkpoint(params, _hp, tmp)
        params, log = trainer.train(train_set, hp, checkpoint=ckpt,
                                    checkpoint_every=cfg.checkpoint_every)
        if out_dir:
            _atomic_write(os.path.join(out_dir, f"fold{fold}_train_log.csv"),
                          (header or []) + log.csv_rows())
        score_fn = lambda users, _p=params: predict_scores(  # noqa: E731
            _p, train_set, users, hp.alpha)
    return metrics.evaluate_fold(score_fn, train_set, test_set, cfg.top_n)


def cmd_preprocess(cfg: ExperimentConfig) -> int:
    raw_ratings, raw_trusts = dataset.load_raw(cfg.ratings, cfg.trusts)
    ds = dataset.binarize_and_filter(raw_ratings, raw_trusts, cfg.min_count)
    os.makedirs(os.path.dirname(os.path.abspath(cfg.cache)), exist_ok=True)
    dataset.save_cache(ds, cfg.cache)
    stats = ds.stats()
    width = max(len(k) for k in stats)
    print(f"wrote {cfg.cache}")
    for key, val in stats.items():
        shown = f"{val:.6%}" if "density" in key else f"{val}"
        print(f"  {key:<{width}}  {shown}")
    return 0


def _header(cfg: ExperimentConfig) -> list[str]:
    return cfg.resolved_lines() + [f"# cache_sha256={dataset.cache_sha256(cfg.cache)}"]


def cmd_run(cfg: ExperimentConfig) -> int:
    ds = dataset.load_cache(cfg.cache)
    header = _header(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    report, fold_metrics = run_cross_validation(ds, cfg, out_dir=cfg.out,
                                                header=header)
    _atomic_write(os.path.join(cfg.out, "metrics.csv"), header + report.csv_rows())
    fold_rows = ["metric,cutoff,fold,value"]
    for fold, fm in enumerate(fold_metrics):
        fold_rows.append(f"map,{cfg.top_n},{fold},{fm.map_at_n!r}")
        fold_rows.append(f"ndcg,{cfg.top_n},{fold},{fm.ndcg_at_n!r}")
    _atomic_write(os.path.join(cfg.out, "folds.csv"), header + fold_rows)
    print(report.table())
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    grids = [("alpha", cfg.list_values("alpha_grid")),
             ("beta", cfg.list_values("beta_grid")),
             ("latent_dim", cfg.list_values("k_grid"))]
    grids = [(name, vals) for name, vals in grids if vals]
    if not grids:
        print("sweep: no grid values configured", file=sys.stderr)
        return 1
    ds = dataset.load_cache(cfg.cache)
    header = _header(cfg)
    rows = ["param,value,metric,mean,ci95"]
    failures = []
    for name, vals in grids:
        for val in vals:
            try:
                report, _ = run_cross_validation(ds, replace(cfg, **{name: val}))
            except Exception as exc:  # record and keep sweeping
                failures.append(f"# failed: {name}={val} error={exc!r}")
                continue
            rows.append(f"{name},{val},map,{report.map_mean!r},{report.map_ci95!r}")
            rows.append(f"{name},{val},ndcg,{report.ndcg_mean!r},{report.ndcg_ci95!r}")
    os.makedirs(cfg.out, exist_ok=True)
    _atomic_write(os.path.join(cfg.out, "sweep.csv"), header + rows + failures)
    print(f"wrote {os.path.join(cfg.out, 'sweep.csv')} "
          f"({len(rows) - 1} rows, {len(failures)} failures)")
    return 0


def cmd_gradcheck(cfg: ExperimentConfig) -> int:
    ok = True
    for path, changes in PATHS.items():
        report = run_suite(seed0=cfg.seed, **changes)
        print(f"gradcheck {path}: {report.instances} instances, {report.entries} entries, "
              f"max_rel={report.max_rel_err:.2e} max_abs={report.max_abs_err:.2e} "
              f"failures={report.failures} ({report.elapsed:.2f}s)")
        ok = ok and report.ok
    return 0 if ok else 1


def cmd_synth(cfg: ExperimentConfig) -> int:
    ratings, trusts = synth.make_block_raw(
        n_users=cfg.synth_users, n_items=cfg.synth_items,
        n_communities=cfg.synth_communities, block_items=cfg.synth_block_items,
        p_rate=cfg.synth_p_rate, p_trust=cfg.synth_p_trust, seed=cfg.seed)
    os.makedirs(os.path.dirname(os.path.abspath(cfg.ratings)), exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(cfg.trusts)), exist_ok=True)
    synth.write_raw_files(ratings, trusts, cfg.ratings, cfg.trusts)
    print(f"wrote {cfg.ratings} ({len(ratings)} ratings) and "
          f"{cfg.trusts} ({len(trusts)} trust edges)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trustdae",
        description="Trust-aware denoising autoencoder experiments")
    parser.add_argument("command",
                        choices=["preprocess", "run", "sweep", "gradcheck", "synth"])
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        handler = {"preprocess": cmd_preprocess, "run": cmd_run,
                   "sweep": cmd_sweep, "gradcheck": cmd_gradcheck,
                   "synth": cmd_synth}[args.command]
        return handler(cfg)
    except (ConfigError, dataset.DatasetError, OSError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
