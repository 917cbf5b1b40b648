"""Alternating parent/change pairs of the cross-validation benchmark.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload wide_catalogue --seeds 101-110 --seconds 35 \\
        [--claim setup_s]

For each seed it runs `cvbench/run.py` of both checkouts, one after the
other; the parent goes first in the first pair, the change in the second,
and so on. A run whose JSON says `"correct": false` stops the script with
exit 1. Each pair's end-to-end metrics are printed as it finishes.

The summary gives, for every end-to-end metric of the parent's
`BENCHMARK.json` (read only, for the better direction and the bound):
each side's median and quartiles, and the change's wins, ties counting
for neither. `bound` says whether the change's median is worse than the
parent's by more than the bound (`worse`), or not (`ok`), or whether the
parent's own quartile distance exceeds the bound while some change run is
no better than some parent run (`unresolved`). `gain` says whether a gain
may be claimed: the change wins at least nine pairs in ten and its median
beats the parent's by more than the parent's quartile distance.

With `--claim METRIC` the script exits 1 unless METRIC's `gain` is yes and
every metric's `bound` is `ok`, so one command gates a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list[int]:
    """"101-110" or "7" to a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of `end_to_end` over (parent, change) metric pairs.

    Quartiles are numpy's linear-interpolation percentiles.
    """
    rows = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        parent = np.array([p[name] for p, _ in pairs], dtype=float)
        change = np.array([c[name] for _, c in pairs], dtype=float)
        sign = -1.0 if spec["better"] == "lower" else 1.0   # signed, a larger value is better
        sp, sc = sign * parent, sign * change
        p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
        c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
        wins = int((sc > sp).sum())
        gap = sign * (c_med - p_med)
        spread = p_q3 - p_q1
        if spread > bound * abs(p_med) and not sc.min() > sp.max():
            verdict = "unresolved"
        elif gap >= -bound * abs(p_med):
            verdict = "ok"
        else:
            verdict = "worse"
        rows.append({
            "name": name, "better": spec["better"], "bound": bound,
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "ties": int((sc == sp).sum()), "pairs": len(pairs),
            "bound_check": verdict,
            "gain": bool(10 * wins >= 9 * len(pairs) and gap > spread),
        })
    return rows


def claim_failures(rows: list[dict], metric: str) -> list[str]:
    """Why a gain in `metric` may not be claimed over `summarize`'s rows;
    empty when it may."""
    failures = [f"{row['name']} bound {row['bound_check']}"
                for row in rows if row["bound_check"] != "ok"]
    if not next(row["gain"] for row in rows if row["name"] == metric):
        failures.insert(0, f"{metric} gain no")
    return failures


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a checkout; exits 1 unless its JSON says correct."""
    cmd = [sys.executable, str(tree / "cvbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        print(f"{tree} seed {seed}: run not correct (exit {proc.returncode})\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        sys.exit(1)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", metavar="METRIC",
                        help="exit 1 unless METRIC gains and every bound is ok")
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in end_to_end]
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim {args.claim}: not an end-to-end metric ({', '.join(names)})")

    print("pair seed first " + " ".join(f"{n}(parent->change)" for n in names))
    # each run's working directory is its tree, so a relative path would miss
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {side: run_once(sides[side], args.workload, seed, args.seconds)
               for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"{k + 1} {seed} {order[0]} " + " ".join(
            f"{got['parent'][n]:.6g}->{got['change'][n]:.6g}" for n in names), flush=True)

    print(f"\n{args.workload}, {len(pairs)} pairs, {args.seconds:g}-s runs; "
          "median [q1, q3]")
    rows = summarize(pairs, end_to_end)
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        ratio = f"{c_med / p_med:.3f}x" if p_med else "n/a"
        print(f"{row['name']} ({row['better']} is better, bound {row['bound']:g}): "
              f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}], "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}], change/parent {ratio}, "
              f"wins {row['wins']}/{row['pairs']} (ties {row['ties']}), "
              f"bound {row['bound_check']}, gain {'yes' if row['gain'] else 'no'}")
    if args.claim is None:
        return 0
    failures = claim_failures(rows, args.claim)
    print(f"claim {args.claim}: " + ("; ".join(failures) if failures else "holds"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
