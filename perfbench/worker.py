"""One measured tempcl process, started fresh by run.py for every sample.

    python3 perfbench/worker.py setup --config C --seed S --result R
    python3 perfbench/worker.py train --config C --seed S --output O --result R
    python3 perfbench/worker.py trace --config C --seed S --output O --result R

``setup`` times what every tempcl command pays before doing work: importing
tempcl, parsing the config and building the datasets.  ``train`` runs
``tempcl.cli.main(["train", ...])`` in this process with an epoch clock at
the runner -> encoder boundary: one pair of clock reads around each
``train_epoch`` call.  ``trace`` runs the same command under the span
tracer instead and writes the spans to ``spans.json`` in the output
directory.  Each mode writes its measurements as JSON to the result path.
The caller pins the BLAS and tempcl thread counts in the environment.
"""

import argparse
import inspect
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class EpochClock:
    """Stands in for ``train_epoch``: records (start, end) of each call and
    the anchor rows it steps (the final undersized batch is dropped)."""

    def __init__(self, fn):
        self.fn = fn
        self.signature = inspect.signature(fn)
        self.spans = []
        self.rows = 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        out = self.fn(*args, **kwargs)
        self.spans.append((start, time.perf_counter()))
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        batch = bound.arguments["batch_size"]
        self.rows += bound.arguments["dataset"].n // batch * batch
        return out


def _setup(args) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tempcl.cli  # noqa: F401  (imports every tempcl module, as the CLI does)
    from tempcl.config import parse_config
    from tempcl.runner import build_datasets

    cfg = parse_config(Path(args.config).read_text())
    cfg.run.seed = args.seed
    build_datasets(cfg)
    return {"setup_s": time.perf_counter() - start}


def _train(args, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import tempcl.cli
    import tempcl.runner

    argv = ["train", "--config", args.config, "--seed", str(args.seed), "--output", args.output]
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        clock = EpochClock(tempcl.runner.train_epoch)
        tempcl.runner.train_epoch = clock
    start = time.perf_counter()
    try:
        code = tempcl.cli.main(argv)
    finally:
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
    result = {
        "exit_code": code,
        "run_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        spans = [[name, s - start, e - start, parent, size]
                 for name, s, e, parent, size in tracer.spans]
        (Path(args.output) / "spans.json").write_text(json.dumps(spans))
    else:
        result["epochs"] = [[s - start, e - start] for s, e in clock.spans]
        result["rows"] = clock.rows
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "train", "trace"))
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if args.mode == "setup":
        result = _setup(args)
    else:
        result = _train(args, traced=args.mode == "trace")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
