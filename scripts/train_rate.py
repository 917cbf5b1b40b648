"""In-process rate of training, alternated between checkouts.

    python3 scripts/train_rate.py [--tree DIR]... [--users 800] [--items 1200]
        [--communities 8] [--p-rate 0.25] [--p-trust 0.1] [--epochs 3] [--repeats 3]

Each `--tree` (by default this checkout alone) has its `src/trustdae`
imported under a name of its own, so several checkouts train in one
process. Each builds the same input with its own code: fold 0 of
`synth.make_block_dataset(n_users, n_items, n_communities,
block_items=n_items // n_communities, p_rate, p_trust, seed=3)`, split five
ways at seed 3; the defaults give the profile set of ROADMAP.md. Each
repeat then times one `train` at latent dimension 10 for `--epochs` epochs
in every tree, the trees taking turns to go first. The script prints each
tree's min and median seconds, its median's ratio to the first tree's,
and a hash of its trained parameters and of its train log's loss columns,
which equal trees share.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import sys
import time
from dataclasses import astuple
from pathlib import Path

LATENT_DIM = 10
SEED = 3


def load(tree: Path, name: str):
    """`tree`'s trustdae package, imported as `name`."""
    src = tree.resolve() / "src" / "trustdae"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def digest(params, log) -> str:
    """sha256 prefix of every tensor's bytes and every epoch's loss columns."""
    h = hashlib.sha256()
    for name, arr in params.tensors():
        h.update(name.encode())
        h.update(arr.tobytes())
    for e in log.epochs:
        h.update(repr(astuple(e.loss) + (e.param_norm,)).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append")
    parser.add_argument("--users", type=int, default=800)
    parser.add_argument("--items", type=int, default=1200)
    parser.add_argument("--communities", type=int, default=8)
    parser.add_argument("--p-rate", type=float, default=0.25)
    parser.add_argument("--p-trust", type=float, default=0.1)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.epochs < 1:
        parser.error("--repeats and --epochs must be >= 1")
    trees = args.tree or [Path(__file__).resolve().parents[1]]
    import numpy as np

    runs = []
    for j, tree in enumerate(trees):
        td = load(tree, f"_train_rate_tree{j}")
        synth = importlib.import_module(f"_train_rate_tree{j}.synth")
        ds = synth.make_block_dataset(n_users=args.users, n_items=args.items,
                                      n_communities=args.communities,
                                      block_items=args.items // args.communities,
                                      p_rate=args.p_rate, p_trust=args.p_trust, seed=SEED)
        train_set, _ = td.materialize_split(ds, td.split_folds(ds, 5, seed=SEED), 0)
        hp = td.Hyperparams(latent_dim=LATENT_DIM, epochs=args.epochs)
        runs.append((td, train_set, hp, []))
    hashes = [None] * len(trees)
    for r in range(args.repeats):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for j in order:
            td, train_set, hp, seconds = runs[j]
            start = time.perf_counter()
            params, log = td.train(train_set, hp)
            seconds.append(time.perf_counter() - start)
            hashes[j] = digest(params, log)
    train_set = runs[0][1]
    print(f"n={train_set.n} m={train_set.m} ratings={train_set.nnz('rating')} "
          f"trusts={train_set.nnz('trust')} k={LATENT_DIM} epochs={args.epochs} "
          f"repeats={args.repeats}")
    first = float(np.median(runs[0][3]))
    for tree, (_, _, _, seconds), h in zip(trees, runs, hashes):
        median = float(np.median(seconds))
        print(f"{tree}: min {min(seconds):.4g} median {median:.4g} s "
              f"speedup {first / median:.3f}x hash {h}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
