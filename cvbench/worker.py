"""One round in a fresh process: `trustdae preprocess`, then `trustdae run`.

Started by `run.py`, never imported by it, so that the peak resident
memory this process reports belongs to the two commands alone:

    python3 worker.py SRC_DIR TRACE(0|1) -- KEY=VALUE...

The KEY=VALUE pairs become `--set` flags of both commands. The last line
of standard output is a JSON object with the wall time of both commands,
the time spent inside `trainer.train` and `metrics.evaluate_fold`, the
peak RSS and, with TRACE=1, the per-layer figures of `tracing.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, traced, sep, *sets = argv
    if sep != "--":
        raise SystemExit("usage: worker.py SRC_DIR TRACE(0|1) -- KEY=VALUE...")
    sys.path.insert(0, src)
    from trustdae import cli, metrics, trainer

    from tracing import Tracer

    tracer = Tracer()
    missing = tracer.install() if traced == "1" else []
    # the outer spans: end-to-end rates divide by the first two
    trainer.train = tracer.wrap("trainer.train", trainer.train)
    metrics.evaluate_fold = tracer.wrap("metrics.evaluate_fold", metrics.evaluate_fold)
    run = tracer.wrap("cli.run", cli.main)
    flags = [f"--set={kv}" for kv in sets]

    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        rc_preprocess = cli.main(["preprocess"] + flags)
        t1 = time.perf_counter()
        rc_run = run(["run"] + flags) if rc_preprocess == 0 else None
        t2 = time.perf_counter()
    result = {
        "rc_preprocess": rc_preprocess, "rc_run": rc_run,
        "setup_s": t1 - t0, "run_s": t2 - t1,
        "train_s": tracer.total("trainer.train"),
        "eval_s": tracer.total("metrics.evaluate_fold"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced == "1":
        result["missing_hooks"] = missing
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.span_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
