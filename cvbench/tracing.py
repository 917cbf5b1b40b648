"""Span timing by wrapping the module attributes that the program's callers look up.

A wrapped callable records, per span name, the number of calls, the total
wall time and the self time: the span's duration minus the durations of
the spans that ran inside it. The program is single-threaded, so child
spans never overlap and a stack of child-time accumulators gives self
time exactly. Spans are aggregated in memory per name; the benchmark
writes the table out once a round ends.
"""

from __future__ import annotations

import functools
import importlib
import time


def _records(result) -> int:
    ratings, trusts = result
    return len(ratings) + len(trusts)


# (module under trustdae, attribute path, counter of work items in the result)
HOOKS = [
    ("dataset", "load_raw", _records),
    ("dataset", "binarize_and_filter", None),
    ("dataset", "save_cache", None),
    ("dataset", "load_cache", None),
    ("dataset", "cache_sha256", None),
    ("dataset", "split_folds", None),
    ("dataset", "materialize_split", None),
    ("trainer", "stream", None),
    ("trainer", "corrupt", None),
    ("trainer", "forward_sampled", None),
    ("trainer", "backprop_core", None),
    ("trainer", "logistic_loss", None),
    ("trainer", "correlative_term", None),
    ("sparse", "SparseInteractions.sample_item_negatives", len),
    ("sparse", "SparseInteractions.sample_user_negatives", len),
    ("cli", "predict_scores", None),
    ("cli", "save_checkpoint", None),
    ("metrics", "rank_top_n", None),
    ("metrics", "average_precision", None),
    ("metrics", "ndcg", None),
]

_SAMPLERS = ["sparse.SparseInteractions.sample_item_negatives",
             "sparse.SparseInteractions.sample_user_negatives"]

# per-layer metric -> (span statistic, spans summed); `self` is the span's
# duration minus its child spans
LAYERS = {
    "dataset.parse_s": ("total", ["dataset.load_raw"]),
    "dataset.filter_s": ("total", ["dataset.binarize_and_filter"]),
    "dataset.cache_s": ("total", ["dataset.save_cache", "dataset.load_cache",
                                  "dataset.cache_sha256"]),
    "dataset.split_s": ("total", ["dataset.split_folds", "dataset.materialize_split"]),
    "dataset.records": ("items", ["dataset.load_raw"]),
    "sparse.sample_s": ("total", _SAMPLERS),
    "sparse.negatives": ("items", _SAMPLERS),
    "trainer.train_s": ("total", ["trainer.train"]),
    "trainer.self_s": ("self", ["trainer.train"]),
    "trainer.stream_s": ("total", ["trainer.stream"]),
    "trainer.stream_calls": ("calls", ["trainer.stream"]),
    "trainer.user_steps": ("calls", ["trainer.backprop_core"]),
    "model.corrupt_s": ("total", ["trainer.corrupt"]),
    "model.forward_s": ("total", ["trainer.forward_sampled"]),
    "objective.loss_s": ("total", ["trainer.logistic_loss", "trainer.correlative_term"]),
    "objective.backprop_s": ("total", ["trainer.backprop_core"]),
    "model.predict_s": ("total", ["cli.predict_scores"]),
    "metrics.rank_s": ("total", ["metrics.rank_top_n"]),
    "metrics.kernel_s": ("total", ["metrics.average_precision", "metrics.ndcg"]),
    "metrics.self_s": ("self", ["metrics.evaluate_fold"]),
    "metrics.users_ranked": ("calls", ["metrics.rank_top_n"]),
    "model.checkpoint_s": ("total", ["cli.save_checkpoint"]),
    "cli.self_s": ("self", ["cli.run"]),
}

COUNTS = {name for name, (stat, _) in LAYERS.items() if stat in ("calls", "items")}


class Tracer:
    def __init__(self):
        # span name -> [calls, total seconds, self seconds, work items]
        self.stats: dict[str, list] = {}
        self._stack = [0.0]   # child time of every open span, innermost last

    def wrap(self, name: str, fn, count=None):
        """`fn` timed as span `name`; `count(result)` adds to its work items."""
        stack, clock = self._stack, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - stack.pop()
                stack[-1] += duration
            if count is not None:
                stats[3] += count(result)
            return result

        return span

    def total(self, name: str) -> float:
        return self.stats[name][1]

    def install(self) -> list[str]:
        """Wrap every hook that still exists; returns the names found missing."""
        missing = []
        for module, path, count in HOOKS:
            owner = importlib.import_module(f"trustdae.{module}")
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(f"{module}.{path}", fn, count))
        return missing

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric whose spans were all hooked."""
        column = {"calls": 0, "total": 1, "self": 2, "items": 3}
        out = {}
        for metric, (stat, spans) in LAYERS.items():
            if all(s in self.stats for s in spans):
                out[metric] = sum(self.stats[s][column[stat]] for s in spans)
        return out

    def span_table(self) -> dict[str, dict]:
        return {name: dict(zip(("calls", "total_s", "self_s", "items"), row))
                for name, row in sorted(self.stats.items())}
