"""Cross-validation benchmark of the `trustdae preprocess` and `trustdae run` commands.

    python3 cvbench/run.py --workload many_users --seed 1 --seconds 35 --trace 0

Generates a workload's raw rating and trust files from the seed, then runs
rounds until `--seconds` have passed. A round is one fresh process that
runs `preprocess` and then `run` on those files (see worker.py). The
outputs of the rounds must be byte-identical, and those of the last round
are checked: training logs, the cache's counts against the benchmark's
own filter, and one fold recomputed by the oracle (oracle.py).

The last line of standard output is one JSON object. With `--trace 0` its
metrics are the end-to-end figures, each the median over the rounds;
with `--trace 1` they are the per-layer figures of tracing.py, which are
also written under the workload's key to cvbench/trace.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracle import check_fold
from tracing import COUNTS
from workloads import WORKLOADS, binarize_and_filter, generate, input_seed, write_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CUTOFF = 10
# |oracle - folds.csv| per fold mean: summation order moves a mean by under
# 1e-13, hits at other ranks in one user's list by more than 8e-8 (README)
METRIC_TOL = 1e-9
# map_at_10 must beat the oracle's popularity MAP@10 by this factor
POP_FACTOR = 2.0
# a round is never started when it could end past this point of the run
DEADLINE_S = 150.0
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class CheckFailed(Exception):
    pass


def run_round(sets: list[str], traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC),
           "1" if traced else "0", "--"] + sets
    env = dict(os.environ, **WORKER_ENV)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise CheckFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc_preprocess"] != 0 or result["rc_run"] != 0:
        raise CheckFailed(f"trustdae failed: {proc.stderr.strip()[-2000:]}")
    return result


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def fold_test_counts(counts: np.ndarray, folds: int, fold: int) -> np.ndarray:
    """Test positives per user in one fold: split_folds deals a user's
    positives round-robin from fold 0, so fold sizes differ by at most one."""
    return counts // folds + (fold < counts % folds)


def workload_stats(w, raw) -> dict:
    """Make-up of the filtered inputs and the work the run must do."""
    f = binarize_and_filter(raw, w.min_count)
    n, m = len(f.users), len(f.items)
    r_cnt = np.bincount(np.searchsorted(f.users, f.ratings[:, 0]), minlength=n)
    t_cnt = np.bincount(np.searchsorted(f.users, f.trusts[:, 0]), minlength=n)
    samples = dense_rows = 0
    for fold in range(w.folds):
        o_r = r_cnt - fold_test_counts(r_cnt, w.folds, fold)
        samples += int((o_r + np.minimum(o_r, m - o_r)
                        + t_cnt + np.minimum(t_cnt, n - t_cnt)).sum())
        dense_rows += int((o_r > 0.25 * m).sum())
    return {
        "raw_ratings": len(raw.ratings), "raw_trusts": len(raw.trusts),
        "users": n, "items": m, "ratings": len(f.ratings), "trusts": len(f.trusts),
        "rating_rows_over_quarter": dense_rows / (n * w.folds),
        "trust_rows_over_quarter": float((t_cnt > 0.25 * n).mean()),
        "users_evaluated_per_fold": int((r_cnt >= w.folds).sum()),
        "epochs": w.epochs, "folds": w.folds,
        "train_samples": samples * w.epochs,
    }


def check_outputs(w, stats: dict, work: Path, out: Path, seed: int) -> dict:
    """Checks on the last round's files; returns figures for the trace file."""
    sys.path.insert(0, str(SRC))
    from trustdae import dataset, load_checkpoint

    ds = dataset.load_cache(work / "ds.cache")
    got = {"users": ds.n, "items": ds.m, "ratings": len(ds.ratings), "trusts": len(ds.trusts)}
    want = {k: stats[k] for k in got}
    if got != want:
        raise CheckFailed(f"cache holds {got}, the benchmark's filter gives {want}")

    for fold in range(w.folds):
        log = csv_rows(out / f"fold{fold}_train_log.csv")
        values = np.array([[float(v) for v in row.values()] for row in log])
        if len(log) != w.epochs or not np.isfinite(values).all():
            raise CheckFailed(f"fold {fold}: training log has {len(log)} rows or a non-finite value")
        if not float(log[-1]["total"]) < float(log[0]["total"]):
            raise CheckFailed(f"fold {fold}: loss did not fall: {log[0]['total']} -> {log[-1]['total']}")

    fold = seed % w.folds
    split = dataset.split_folds(ds, w.folds, 0)
    params, hp = load_checkpoint(out / f"fold{fold}.ckpt")
    test = split.folds == fold
    check = check_fold(dict(params.tensors()), hp.alpha, ds.n, ds.m,
                       ds.ratings[~test], ds.ratings[test], ds.trusts, CUTOFF)
    reported = {(r["metric"], int(r["fold"])): float(r["value"])
                for r in csv_rows(out / "folds.csv")}
    summary = {r["metric"]: float(r["mean"]) for r in csv_rows(out / "metrics.csv")
               if r["bucket"] == "all"}
    if check.users != stats["users_evaluated_per_fold"]:
        raise CheckFailed(f"oracle evaluated {check.users} users, expected "
                          f"{stats['users_evaluated_per_fold']}")
    for name, mine in (("map", check.map_at_n), ("ndcg", check.ndcg_at_n)):
        if abs(mine - reported[(name, fold)]) > METRIC_TOL:
            raise CheckFailed(f"fold {fold} {name}@{CUTOFF}: folds.csv has "
                              f"{reported[(name, fold)]!r}, oracle {mine!r}")
    if check.lists_with_train_positive:
        raise CheckFailed(f"{check.lists_with_train_positive} top-{CUTOFF} lists hold a training positive")
    if not summary["map"] > POP_FACTOR * check.pop_map_at_n:
        raise CheckFailed(f"map_at_10 {summary['map']:.4f} is not {POP_FACTOR}x the "
                          f"popularity MAP {check.pop_map_at_n:.4f}")
    return {"checked_fold": fold, "map_at_10": summary["map"], "ndcg_at_10": summary["ndcg"],
            "popularity_map_at_10": check.pop_map_at_n}


def end_to_end(rounds: list[dict], stats: dict, quality: dict) -> dict:
    def med(f):
        return statistics.median(f(r) for r in rounds)
    users = stats["users_evaluated_per_fold"] * stats["folds"]
    return {
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "run_s": (med(lambda r: r["run_s"]), "s"),
        "train_samples_per_s": (med(lambda r: stats["train_samples"] / r["train_s"]), "1/s"),
        "eval_users_per_s": (med(lambda r: users / r["eval_s"]), "1/s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
        "map_at_10": (quality["map_at_10"], "score"),
        "ndcg_at_10": (quality["ndcg_at_10"], "score"),
    }


def per_layer(rounds: list[dict]) -> dict:
    out = {}
    for name in rounds[0]["layers"]:
        values = [r["layers"][name] for r in rounds]
        if name in COUNTS:
            if len(set(values)) != 1:
                raise CheckFailed(f"count {name} differs between rounds: {values}")
            out[name] = (values[0], "count")
        else:
            out[name] = (statistics.median(values), "s")
    out["traced.run_s"] = (statistics.median(r["run_s"] for r in rounds), "s")
    return out


def write_trace(workload: str, entry: dict) -> None:
    path = BENCH / "trace.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    table[workload] = entry
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trustdae" / "cli.py").is_file():
        print(f"error: no trustdae sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = generate(w, args.seed)
    write_files(raw, work / "ratings.txt", work / "trusts.txt")
    stats = workload_stats(w, raw)
    out = work / "out"
    sets = [f"ratings={work / 'ratings.txt'}", f"trusts={work / 'trusts.txt'}",
            f"cache={work / 'ds.cache'}", f"out={out}"] + w.config

    rounds, digests, longest = [], set(), 0.0
    try:
        measure_start = time.perf_counter()
        while True:
            shutil.rmtree(out, ignore_errors=True)
            (work / "ds.cache").unlink(missing_ok=True)
            t0 = time.perf_counter()
            rounds.append(run_round(sets, args.trace == 1,
                                    timeout=DEADLINE_S - (t0 - started)))
            longest = max(longest, time.perf_counter() - t0)
            r = rounds[-1]
            print(f"round {len(rounds)}: setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
                  f"train_s={r['train_s']:.4f} eval_s={r['eval_s']:.4f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f}", file=sys.stderr)
            digests.add(digest([out / "metrics.csv", out / "folds.csv", work / "ds.cache"]))
            now = time.perf_counter()
            if now - measure_start >= args.seconds or now + longest - started > DEADLINE_S:
                break
        if len(digests) != 1:
            raise CheckFailed("rounds wrote different metrics.csv, folds.csv or cache bytes")
        quality = check_outputs(w, stats, work, out, args.seed)
        if args.trace:
            metrics = per_layer(rounds)
            write_trace(args.workload, {
                "seed": args.seed, "input_seed": input_seed(args.workload, args.seed),
                "rounds": len(rounds), "workload": stats, "quality": quality,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "missing_hooks": rounds[-1]["missing_hooks"],
                "spans_last_round": rounds[-1]["spans"]})
        else:
            metrics = end_to_end(rounds, stats, quality)
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(len(rounds), 1),
                          "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": len(rounds), "failed": 0,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
