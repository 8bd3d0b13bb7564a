"""Benchmark for tempcl: end-to-end training runs of fixed workloads.

    python3 perfbench/run.py --workload k100-moco --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the repository root.  For one workload the benchmark writes the
workload's config and inputs (made from ``--seed``) under
``.perfbench_work/``, then starts fresh processes (perfbench/worker.py):

* set-up samples, each importing tempcl, parsing the config and building
  the datasets (``setup_s`` is their median), one before each training run
  so that they meet the same host conditions as the runs;
* training runs of ``tempcl train`` with tracing off, repeated while the
  ``--seconds`` budget lasts; every run's outputs are checked and must be
  byte-identical to the first run's (the same seed gives the same
  ``metrics.csv``).  The timings are taken from the runs' fastest
  segments (see ``fastest_segments``): each epoch, and each gap between
  epochs, at its fastest repeat;
* with ``--trace 1``, one more run under the span tracer, whose per-layer
  metrics are reported instead of the end-to-end ones, followed by a check
  that the final checkpoint re-evaluates to the final snapshot's rows.

Human-readable lines (metrics with units and sample counts, ``metrics.csv``
hashes, the pinned environment) come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` measures every workload with tracing off and on and
exits non-zero if any operation failed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# One BLAS thread was faster and steadier than two on a 2-core box, and one
# tempcl thread keeps the tracer's span stack single-threaded.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TEMPCL_THREADS")

SETUP_SAMPLES = 9  # at least; one is taken before every training run
WORKER_TIMEOUT_S = 170
MIN_BEYOND = 10  # a reported percentile needs this many samples above it

# Workload names, metric names, units and directions are defined once, in
# BENCHMARK.json; metrics are reported in its order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ACCURACY_METRICS = ("knn1", "knn10", "fs_lp", "lt_lp")
GROUP_SCOPES = ("all", "head", "mid", "tail")


def percentile(values, q):
    """Nearest-rank q-th percentile.  Refuses (ValueError) when fewer than
    MIN_BEYOND samples lie above the chosen rank, e.g. p90 of 99 samples."""
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(xs)} samples has fewer than {MIN_BEYOND} beyond it")
    return xs[rank - 1]


def pin_threads():
    """Pin every thread-count variable to 1 (never above nproc); call
    before numpy is imported."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    env = {var: os.environ.get(var) for var in PINNED_THREADS}
    env.update(numpy=np.__version__, blas=vendor, python=platform.python_version(),
               nproc=len(os.sched_getaffinity(0)))
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(mode, cfg_path, seed, result_path, output=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--config", str(cfg_path),
           "--seed", str(seed), "--result", str(result_path)]
    if output is not None:
        cmd += ["--output", str(output)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(result_path).read_text())


def load_config(cfg_path, seed, output_dir):
    from tempcl.config import parse_config

    cfg = parse_config(Path(cfg_path).read_text())
    cfg.run.seed = seed
    cfg.run.output_dir = str(output_dir)
    return cfg


def read_metrics_csv(path) -> tuple[str, list]:
    """(header, [(epoch, tau, metric, scope, value_text)]) of a metrics.csv."""
    lines = Path(path).read_text().splitlines()
    rows = [tuple(line.split(",")) for line in lines[1:]]
    return (lines[0] if lines else ""), rows


def check_outputs(cfg, out_dir, exit_code, knn10_floor) -> tuple[list, dict]:
    """Problems found in one run's outputs, and the run's quality figures
    and metrics.csv hash."""
    from tempcl.runner import snapshot_epochs

    if exit_code != 0:
        return [f"tempcl train exited {exit_code}"], {}
    path = Path(out_dir) / "metrics.csv"
    if not path.is_file():
        return ["metrics.csv missing"], {}
    header, rows = read_metrics_csv(path)
    problems = []
    if header != "epoch,tau,metric,scope,value":
        problems.append(f"metrics.csv header is {header!r}")
    if any(len(r) != 5 for r in rows):
        return problems + ["metrics.csv has a row without 5 fields"], {}
    epochs = sorted({int(r[0]) for r in rows})
    if epochs != snapshot_epochs(cfg):
        problems.append(f"snapshot epochs {epochs} != {snapshot_epochs(cfg)}")
    for epoch, _, metric, scope, text in rows:
        if scope not in GROUP_SCOPES:
            continue
        value = float(text)
        if not math.isfinite(value):
            problems.append(f"epoch {epoch} {metric}/{scope} = {text}")
        elif metric in ACCURACY_METRICS and not 0.0 <= value <= 1.0:
            problems.append(f"epoch {epoch} {metric}/{scope} = {text} outside [0, 1]")
    final = {(m, s): float(v) for e, _, m, s, v in rows if int(e) == cfg.run.epochs}
    info = {"final_knn10": final.get(("knn10", "all"), float("nan")),
            "tail_knn10": final.get(("knn10", "tail"), float("nan")),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if not info["final_knn10"] > knn10_floor:
        problems.append(f"final knn10 {info['final_knn10']} not above floor {knn10_floor}")
    return problems, info


def check_checkpoint(cfg, out_dir) -> list:
    """Problems if ``eval_checkpoint`` on the final checkpoint does not
    reproduce the final snapshot's rows of metrics.csv exactly."""
    from tempcl.runner import eval_checkpoint

    E = cfg.run.epochs
    _, rows = read_metrics_csv(Path(out_dir) / "metrics.csv")
    want = [(m, s, v) for e, _, m, s, v in rows if int(e) == E and m != "train_loss"]
    cfg.run.output_dir = str(Path(out_dir) / "eval")
    got = [(m, s, repr(v)) for m, s, v in
           eval_checkpoint(cfg, Path(out_dir) / "checkpoint_final.tclp", E)]
    if got != want:
        diff = [(w, g) for w, g in zip(want, got) if w != g][:3]
        return [f"eval_checkpoint differs from the epoch-{E} snapshot "
                f"({len(got)} vs {len(want)} rows; first differences {diff})"]
    return []


def check_pixel_inputs(data_dir) -> list:
    """Problems if the generated CIFAR files do not round-trip through
    ``load_cifar10_bin``."""
    from tempcl.data import load_cifar10_bin, serialize_cifar10_bin

    problems = []
    for name in ("train.bin", "test.bin"):
        raw = (Path(data_dir) / name).read_bytes()
        if serialize_cifar10_bin(load_cifar10_bin(Path(data_dir) / name)) != raw:
            problems.append(f"{name} does not round-trip through load_cifar10_bin")
    return problems


def segments(run) -> list:
    """Durations (s) of one clocked run's timeline cut at every
    ``train_epoch`` call: the lead-in, then each epoch followed by the gap
    after it (the gap after the last epoch runs to the end of the run)."""
    cuts = [0.0] + [t for span in run["epochs"] for t in span] + [run["run_s"]]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def fastest_segments(runs) -> list:
    """Segment-wise minimum over runs of one config and seed.

    The runs do identical work (their outputs are byte-identical), so a
    segment that took longer in one run than in another was slowed by the
    host, not by the program: on a shared host, neighbours slow whole
    stretches of a run by up to ~1.6x for tenths of a second to minutes.
    Taking each segment's fastest repeat keeps most of that out of the
    timings, while a slowdown of the program itself shows in every repeat."""
    return [min(col) for col in zip(*map(segments, runs))]


def end_to_end(setup, runs, cfg) -> dict:
    """metric -> (value, sample count) over the successful clocked runs."""
    from tempcl.runner import snapshot_epochs

    seg = fastest_segments(runs)
    epoch_ms = [1e3 * d for d in seg[1::2]]
    # the snapshot at epoch k is the gap after k epochs, segment 2k; the
    # epoch-0 snapshot sits in the lead-in, which also holds set-up
    gaps = [1e3 * seg[2 * e] for e in snapshot_epochs(cfg) if e > 0]
    first = runs[0]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "run_s": (sum(seg), len(runs)),
        "train_rows_per_s": (first["rows"] / (1e-3 * sum(epoch_ms)), len(epoch_ms)),
        "epoch_ms_p50": (statistics.median(epoch_ms), len(epoch_ms)),
        "epoch_ms_p90": (percentile(epoch_ms, 90), len(epoch_ms)),
        "snapshot_ms_p50": (statistics.median(gaps), len(gaps)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), len(runs)),
        "final_knn10": (first["final_knn10"], len(runs)),
        "tail_knn10": (first["tail_knn10"], len(runs)),
    }


def measure(workload, seed, seconds, trace, log, work_root=WORK_ROOT) -> dict:
    """Measure one workload; returns the result object printed last."""
    work = work_root / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()


def _measure(workload, seed, seconds, trace, work, log) -> dict:
    from workloads import write_inputs

    cfg_path = write_inputs(workload, seed, work)
    cfg = load_config(cfg_path, seed, work / "out")
    failures = check_pixel_inputs(work / "data") if workload.pixel_inputs else []
    attempted = 1 if workload.pixel_inputs else 0

    def setup_sample():
        out = run_worker("setup", cfg_path, seed, work / f"setup{len(setup)}.json")
        setup.append(out["setup_s"])

    def one_run(i, mode):
        nonlocal attempted
        attempted += 1
        out = work / f"run{i}"
        try:
            run = run_worker(mode, cfg_path, seed, work / f"run{i}.json", output=out)
        except WorkerError as e:
            failures.append(f"run {i}: {e}")
            return None
        problems, info = check_outputs(cfg, out, run["exit_code"], workload.knn10_floor)
        if info and hashes and info["sha256"] != hashes[0]:
            problems.append(f"metrics.csv sha256 {info['sha256']} differs from run 0")
        if problems:
            failures.extend(f"run {i}: {p}" for p in problems)
            return None
        hashes.append(info["sha256"])
        run.update(info, out=out)
        return run

    setup, hashes, runs = [], [], []
    start = time.perf_counter()
    while True:
        setup_sample()
        run = one_run(len(runs), "train")
        if run is None:
            break
        runs.append(run)
        elapsed = time.perf_counter() - start
        # stop before a further run (and the traced run) would overrun
        if elapsed + elapsed / len(runs) * (2 if trace else 1) > seconds:
            break
    if not runs:
        raise WorkerError("; ".join(failures))
    while len(setup) < SETUP_SAMPLES:
        setup_sample()

    log(f"{workload.name} seed={seed}: {len(runs)} clocked runs in "
        f"{time.perf_counter() - start:.1f} s")
    log("  env " + json.dumps(environment(), sort_keys=True))

    e2e = end_to_end(setup, runs, cfg)
    if trace:
        from tracer import layer_metrics

        traced = one_run(len(runs), "trace")
        if traced is None:
            raise WorkerError("; ".join(failures))
        spans = json.loads((traced["out"] / "spans.json").read_text())
        untraced = statistics.median(r["run_s"] for r in runs)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        per_layer = layer_metrics(spans, traced["run_s"], untraced, list(units))
        attempted += 1
        failures.extend(check_checkpoint(cfg, traced["out"]))
        metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
        log(f"  per-layer metrics (traced run {traced['run_s']:.3f} s, "
            f"untraced median {untraced:.3f} s over {len(runs)} runs)")
        for name, value in per_layer.items():
            log(f"  {name:48s} {value!r:>24} {units[name]}")
    else:
        metrics = {}
        for m in SPEC["end_to_end"]:
            value, n = e2e[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            log(f"  {m['name']:18s} {value:14.6f} {m['unit']:9s} (n={n})")
    for i, h in enumerate(hashes):
        log(f"  metrics.csv sha256 run{i} {h}")
    for f in failures:
        log(f"  FAILED {f}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="tempcl benchmark (see module docstring)")
    names = [w["name"] for w in SPEC["workloads"]]
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tempcl" / "__init__.py").is_file():
        print(f"tempcl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def log(line):
        print(line, flush=True)

    if args.workload != "all":
        try:
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, log)
        except WorkerError as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    failed = 0
    for name in names:
        for trace in (0, 1):
            log(f"== {name} trace={trace}")
            try:
                result = measure(WORKLOADS[name], args.seed, args.seconds, trace, log)
                failed += result["failed"]
            except WorkerError as e:
                log(f"  FAILED {e}")
                failed += 1
    log(f"failed operations: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
