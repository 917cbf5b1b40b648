"""Check that two checkouts write byte-identical outputs.

    python3 scripts/same_outputs.py --parent DIR --change DIR

For each configuration in CONFIGS it runs `synth`, `preprocess` and `run`
of each checkout's `trustdae.cli` in a fresh Python process. Both trees
run in one shared work directory per configuration, emptied before each
tree, so the paths echoed in stdout and in the CSV headers match. It
keeps the stdout, the dataset cache and every file `run` writes under
`out/`: `metrics.csv`, `folds.csv`, the `fold*.ckpt` files and the train
logs. Then it runs `gradcheck` of each tree.

Train logs are compared without their `wall_time` column and `gradcheck`'s
output without its elapsed times; everything else byte for byte. The
script exits 1 and names every file that differs, or is missing on one
side, and exits 0 when all match. For a train log that differs it also
prints the largest relative difference in each column that differs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# configuration name -> --set overrides, applied to all three commands;
# `distinct_decays` tells apart which tensors take which l2 coefficient,
# `alpha0_beta0` adds the exactly-zero cross-view gradient to codes whose
# fusion gradient alpha * g_fused can be -0.0, and `wide` spreads about
# 6,000 items over 200 users, so each fold's evaluation takes several score
# blocks, and in `dense` most rows are over a quarter full, so negatives
# come from the enumerated complement, and some rejection-sampled rows need
# more than one draw; in `renormalised` both decay groups' scales fall
# below the trainer's floor and are folded into their tensors once a fold
CONFIGS = {
    "defaults": [],
    "pop": ["variant=pop"],
    "tdae0": ["variant=tdae0"],
    "user_embedding": ["user_embedding=1", "corruption=0.3"],
    "latent_dim_1": ["latent_dim=1"],
    "distinct_decays": ["weight_decay=0.05", "map_decay=0.002"],
    "alpha0_beta0": ["alpha=0", "beta=0"],
    "wide": ["latent_dim=20", "top_n=20", "synth_items=6000", "synth_block_items=1500"],
    "dense": ["synth_communities=2", "synth_items=120", "synth_block_items=60",
              "synth_p_rate=0.7", "synth_p_trust=0.6"],
    "renormalised": ["weight_decay=10", "map_decay=10"],
}

_ELAPSED = re.compile(rb" \(\d+\.\d+s\)$", re.MULTILINE)


def cli(tree: Path, work: Path, args: list[str]) -> bytes:
    """stdout of `trustdae.cli` of `tree`, run in `work`; exits 1 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "trustdae.cli", *args],
                          cwd=work, env=env, capture_output=True)
    if proc.returncode:
        print(f"{tree}: `trustdae {' '.join(args)}` exited {proc.returncode}\n"
              f"{proc.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def outputs(tree: Path, work: Path) -> dict[str, bytes]:
    """{name: bytes} of everything compared, for every configuration and gradcheck."""
    got = {}
    for config, changes in CONFIGS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        sets = [arg for change in changes for arg in ("--set", change)]
        stdout = b"".join(cli(tree, work, [command, *sets])
                          for command in ("synth", "preprocess", "run"))
        got[f"{config}/stdout"] = stdout
        for path in [work / "dataset.cache", *sorted((work / "out").iterdir())]:
            got[f"{config}/{path.relative_to(work)}"] = path.read_bytes()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    got["gradcheck/stdout"] = cli(tree, work, ["gradcheck"])
    return got


def canonical(name: str, data: bytes) -> bytes:
    """`data` without what may differ between identical runs: a train log's
    `wall_time` column and gradcheck's elapsed times."""
    if name.startswith("gradcheck/"):
        return _ELAPSED.sub(b"", data)
    if not name.endswith("_train_log.csv"):
        return data
    lines = data.split(b"\n")
    table = [i for i, line in enumerate(lines) if line and not line.startswith(b"#")]
    if not table or b"wall_time" not in lines[table[0]].split(b","):
        return data
    col = lines[table[0]].split(b",").index(b"wall_time")
    for i in table:
        fields = lines[i].split(b",")
        lines[i] = b",".join(fields[:col] + fields[col + 1:])
    return b"\n".join(lines)


def differing(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """Sorted names that differ between two {name: bytes} trees or exist in one only."""
    return sorted(name for name in parent.keys() | change.keys()
                  if name not in parent or name not in change
                  or canonical(name, parent[name]) != canonical(name, change[name]))


def column_changes(parent: bytes, change: bytes) -> dict[str, float] | None:
    """{column: largest relative difference} over the columns, `wall_time`
    aside, in which two train logs' tables differ; None when the tables
    differ in shape or hold a value that is not a number."""
    def table(data: bytes) -> list[list[str]]:
        return [line.split(",") for line in data.decode().split("\n")
                if line and not line.startswith("#")]

    out = {}
    try:
        (head, *rows_p), (head_c, *rows_c) = table(parent), table(change)
        if head != head_c or len(rows_p) != len(rows_c):
            return None
        for a, b in zip(rows_p, rows_c):
            if not len(a) == len(b) == len(head):
                return None
            for name, x, y in zip(head, map(float, a), map(float, b)):
                if name != "wall_time" and not x == y:
                    rel = abs(x - y) / max(abs(x), abs(y))
                    out[name] = max(out.get(name, 0.0), math.inf if math.isnan(rel) else rel)
    except ValueError:   # no table, bytes that are not UTF-8, or a non-number
        return None
    return {name: out[name] for name in head if name in out}


def describe(name: str, parent: dict[str, bytes], change: dict[str, bytes]) -> str:
    """`name`, and for a train log on both sides how its columns moved."""
    if not name.endswith("_train_log.csv") or name not in parent or name not in change:
        return name
    cols = column_changes(parent[name], change[name])
    if cols is None:
        return f"{name} (tables differ in shape or hold a non-number)"
    if not cols:
        return f"{name} (comment lines only)"
    return (f"{name} (largest relative difference: "
            + ", ".join(f"{col} {rel:.2g}" for col, rel in cols.items()) + ")")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        parent = outputs(args.parent, work)
        change = outputs(args.change, work)
    diff = differing(parent, change)
    for name in diff:
        print(f"differs: {describe(name, parent, change)}")
    print(f"{len(parent.keys() | change.keys()) - len(diff)} files identical, "
          f"{len(diff)} differ ({', '.join(CONFIGS)}, gradcheck)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
