"""Golden end-to-end runs of the experiment runner, and the checkpoint
entry points checked against them.

The five runs are seconds-scale (6 epochs of period 3).  Two cover the
negative sources under the cosine schedule on 150 synthetic training rows;
the third runs the momentum queue under coarse head/tail temperature
supervision; the fourth trains on CIFAR-10-format images with pixel
augmentation; the fifth takes the symmetrized in-batch loss.  Their
``metrics.csv`` files are kept under ``tests/golden/``; the final
checkpoint and the analysis CSVs are pinned by sha256 in
``tests/golden/hashes.json``.  A change that moves any of these outputs
must say why and regenerate them on purpose, with

    PYTHONPATH=src python tests/regenerate_goldens.py

which reruns the five configs and rewrites the golden ``metrics.csv``
files and ``hashes.json``; the comparisons here stay exact.  The
momentum-queue and pixel runs are repeated in a fresh process with two BLAS
threads, which must give the same ``metrics.csv`` and checkpoint, and with
one BLAS thread, under which the runner's import-time rule opens its worker
paths; so is a run of 100 classes (``WIDE``).  The in-batch run without
probes must give its golden less the probe rows, with and without the
worker.

The analysis CSVs are hashed with every decimal number rounded to 12
significant digits: the contribution curves come from a BLAS product whose
last bit depends on the BLAS thread count.  ``metrics.csv`` and the
checkpoint do not, and are compared exactly.

A run owns one worker thread.  Pixel runs take their views from a stream
that it fills one batch ahead.  A mid-run snapshot of a run that does not
stream its views runs whole there while the next epochs train; at other
snapshots a wide forward pass runs half of its rows there, and the probe
fits run there while kNN runs on the caller's thread.  The stream,
the split forward pass, the whole-snapshot jobs and the fits are checked
against their inline forms, and runs that finish, diverge or are
interrupted, in training or in a snapshot, must leave no thread behind and
run no queued fit.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import tempcl.runner
from tempcl.cli import EXIT_NUMERIC, main
from tempcl.config import parse_config
from tempcl.data import AugmentationPolicy, load_cifar10_bin
from tempcl.encoder import (
    NegativeSource,
    _epoch_views,
    forward,
    init_encoder,
    init_optim_state,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)
from tempcl.runner import (
    _blas_leaves_a_cpu,
    _forward_rows,
    _ViewStream,
    analyze_checkpoint,
    build_datasets,
    eval_checkpoint,
    run_experiment,
    snapshot_epochs,
)
from tempcl.schedule import ScheduleConfig
from test_data import cifar10_fixture_bytes, traced_peak

GOLDEN = Path(__file__).resolve().parent / "golden"
# run name -> its config overrides
RUNS = {
    "in_batch": {"encoder__negatives": "in_batch"},
    "momentum_queue": {"encoder__negatives": "momentum_queue"},
    "coarse_momentum_queue": {"encoder__negatives": "momentum_queue", "schedule__coarse": "true"},
    "pixel": {"data__kind": "cifar10", "data__augment": "pixel",
              "data__path": "{data_dir}/train.bin", "data__test_path": "{data_dir}/test.bin",
              "data__n_max": 12, "data__imbalance": 3,
              "encoder__hidden_dims": 32, "encoder__batch_size": 16},
    "symmetrized": {"encoder__symmetrize": "true"},
}
EPOCHS = 6

BASE = {
    "data.n_max": "60",
    "run.epochs": str(EPOCHS),
    "run.eval_every": "3",
    "schedule.period_T": "3",
    "eval.probe_epochs": "20",
    "analysis.bins": "50",
}

# sha256 of checkpoint_final.tclp, and of every analysis CSV of the run
# concatenated as (file name, rounded contents) in name order
HASHES = json.loads((GOLDEN / "hashes.json").read_text())


def config_text(out_dir, data_dir="", **overrides):
    """The base config's text with ``section__key=value`` overrides;
    ``{data_dir}`` in a value becomes ``data_dir``."""
    keys = {**BASE, **{k.replace("__", "."): str(v).format(data_dir=data_dir)
                       for k, v in overrides.items()}}
    keys["run.output_dir"] = str(out_dir)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def config(out_dir, data_dir="", **overrides):
    """The parsed :func:`config_text`."""
    return parse_config(config_text(out_dir, data_dir, **overrides))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def analysis_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.glob("*.csv")):
        if p.name.startswith(("coverage_", "curves_", "pca_")):
            text = p.read_text()
            assert "np." not in text, f"{p.name} holds a NumPy scalar repr"
            text = _DECIMAL.sub(lambda m: f"{float(m.group()):.12g}", text)
            h.update(p.name.encode() + b"\0" + text.encode())
    return h.hexdigest()


def write_pixel_data(d: Path) -> Path:
    """The CIFAR-10-format train and test files of the pixel run, in ``d``."""
    (d / "train.bin").write_bytes(cifar10_fixture_bytes(n=300, seed=11))
    (d / "test.bin").write_bytes(cifar10_fixture_bytes(n=100, seed=12))
    return d


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return write_pixel_data(tmp_path_factory.mktemp("cifar10"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory, data_dir):
    out = {}
    for name, overrides in RUNS.items():
        out_dir = tmp_path_factory.mktemp(name)
        cfg = config(out_dir, data_dir, **overrides)
        out[name] = (cfg, out_dir, run_experiment(cfg))
    return out


@pytest.mark.parametrize("name", RUNS)
def test_metrics_csv_matches_golden(runs, name):
    _, out_dir, _ = runs[name]
    golden = (GOLDEN / f"metrics_{name}.csv").read_text()
    assert (out_dir / "metrics.csv").read_text() == golden


@pytest.mark.parametrize("name", RUNS)
def test_checkpoint_and_analysis_match_golden(runs, name):
    _, out_dir, _ = runs[name]
    assert sha256(out_dir / "checkpoint_final.tclp") == HASHES[name]["checkpoint"]
    assert analysis_digest(out_dir) == HASHES[name]["analysis"]


@pytest.mark.parametrize("name", RUNS)
def test_checkpoints_load_and_resave_byte_for_byte(runs, name, tmp_path):
    """Each checkpoint of a golden run is its header, then the loaded
    ``flat``'s bytes, and saving what was loaded writes the same file."""
    _, out_dir, _ = runs[name]
    for path in sorted(out_dir.glob("checkpoint_*.tclp")):
        raw = path.read_bytes()
        params = load_checkpoint(path)
        assert raw[-params.flat.nbytes:] == params.flat.tobytes()
        save_checkpoint(params, tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == raw


@pytest.mark.parametrize("name", RUNS)
def test_outputs_follow_the_snapshot_schedule(runs, name):
    cfg, out_dir, summary = runs[name]
    epochs = snapshot_epochs(cfg)
    lines = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    assert sorted({int(line.split(",")[0]) for line in lines}) == epochs
    for e in epochs:
        for kind in ("coverage", "curves", "pca"):
            assert (out_dir / f"{kind}_epoch{e:05d}.csv").is_file()
    # recommended evaluation epochs of the cosine period get a checkpoint;
    # coarse supervision has no period
    periodic = [] if cfg.schedule.coarse else [
        "checkpoint_epoch00002.tclp", "checkpoint_epoch00005.tclp"]
    assert sorted(p.name for p in out_dir.glob("checkpoint_*.tclp")) == [
        *periodic, "checkpoint_final.tclp"]
    assert set(summary) >= {"knn1", "knn10", "fs_lp", "lt_lp", "coverage_cv", "train_loss"}


def _final_lines(out_dir: Path) -> list:
    """The final snapshot's metrics.csv lines, without the training loss
    (which only a training run knows)."""
    lines = (out_dir / "metrics.csv").read_text().splitlines(keepends=True)[1:]
    return [line for line in lines
            if line.startswith(f"{EPOCHS},") and ",train_loss," not in line]


@pytest.mark.parametrize("name", RUNS)
def test_eval_checkpoint_reproduces_the_final_snapshot(runs, data_dir, name, tmp_path):
    _, out_dir, _ = runs[name]
    cfg = config(tmp_path, data_dir, **RUNS[name])
    rows = eval_checkpoint(cfg, out_dir / "checkpoint_final.tclp", EPOCHS)
    written = (tmp_path / f"eval_epoch{EPOCHS:05d}.csv").read_text().splitlines(keepends=True)
    assert written[0] == "epoch,tau,metric,scope,value\n"
    assert written[1:] == _final_lines(out_dir)
    assert len(rows) == len(written) - 1


@pytest.mark.parametrize("name", RUNS)
def test_analyze_checkpoint_reproduces_the_final_analysis(runs, data_dir, name, tmp_path):
    _, out_dir, _ = runs[name]
    cfg = config(tmp_path, data_dir, **RUNS[name])
    cv = analyze_checkpoint(cfg, out_dir / "checkpoint_final.tclp", EPOCHS)
    cv_line = next(line for line in _final_lines(out_dir) if ",coverage_cv," in line)
    assert repr(cv) == cv_line.rstrip("\n").rsplit(",", 1)[1]
    for kind in ("coverage", "curves", "pca"):
        name = f"{kind}_epoch{EPOCHS:05d}.csv"
        assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()


def test_a_run_without_probes_gives_the_golden_less_its_probe_rows(data_dir, tmp_path,
                                                                   monkeypatch):
    """eval.run_probes = false drops the fs_lp and lt_lp rows and nothing
    else: training, so the checkpoint, and every other row are the in-batch
    golden's, and eval_checkpoint gives the final snapshot's rows.  So with
    the worker shut (more BLAS threads) and open (one BLAS thread), where
    each mid-run snapshot, with no fit, runs whole on it."""
    overrides = {**RUNS["in_batch"], "eval__run_probes": "false"}
    golden = (GOLDEN / "metrics_in_batch.csv").read_text().splitlines(keepends=True)
    calls, forwards = patch_snapshot(monkeypatch), patch_forward(monkeypatch)
    for probe_worker in (False, True):
        monkeypatch.setattr(tempcl.runner, "PROBE_WORKER", probe_worker)
        calls.clear()
        forwards.clear()
        run_dir = tmp_path / f"run_{probe_worker}"
        cfg = config(run_dir, data_dir, **overrides)
        run_experiment(cfg)
        assert (run_dir / "metrics.csv").read_text().splitlines(keepends=True) == [
            line for line in golden if ",fs_lp," not in line and ",lt_lp," not in line]
        assert sha256(run_dir / "checkpoint_final.tclp") == HASHES["in_batch"]["checkpoint"]
        snapshots = len(snapshot_epochs(cfg))
        mid_run = snapshots - 1 if probe_worker else 0
        here = threading.get_ident()
        assert [(name, thread == here) for name, thread in calls] == (
            [("kNN", False)] * mid_run + [("kNN", True)] * (snapshots - mid_run))
        # the train and test sets' passes of each mid-run snapshot, whole on the worker
        assert forwards[:2 * mid_run] == [(151, True), (1000, True)] * mid_run
        rows = eval_checkpoint(config(run_dir / "eval", data_dir, **overrides),
                               run_dir / "checkpoint_final.tclp", EPOCHS)
        final = [line.rstrip("\n").split(",")[2:] for line in _final_lines(run_dir)]
        assert [[metric, scope, repr(value)] for metric, scope, value in rows] == final


# runs one golden config, or WIDE, given (output dir, data dir, run name)
_RUN_ONE = (
    "import sys\n"
    "from test_runner import RUNS, WIDE, config\n"
    "from tempcl.runner import run_experiment\n"
    "run_experiment(config(sys.argv[1], sys.argv[2], **{**RUNS, 'wide': WIDE}[sys.argv[3]]))\n"
)


@pytest.mark.parametrize("name", ["momentum_queue", "pixel"])
def test_two_blas_threads_give_the_golden_outputs(data_dir, name, tmp_path):
    """metrics.csv and the final checkpoint do not depend on the BLAS
    thread count: a fresh process with two threads reproduces the goldens."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    subprocess.run([sys.executable, "-c", _RUN_ONE, str(tmp_path), str(data_dir), name],
                   env=env, check=True, capture_output=True)
    golden = (GOLDEN / f"metrics_{name}.csv").read_text()
    assert (tmp_path / "metrics.csv").read_text() == golden
    assert sha256(tmp_path / "checkpoint_final.tclp") == HASHES[name]["checkpoint"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one BLAS thread opens the worker paths only with a CPU to spare")
@pytest.mark.parametrize("name", ["momentum_queue", "pixel", "wide"])
def test_one_blas_thread_gives_the_golden_outputs(data_dir, wide_inline, name, tmp_path):
    """The goldens hold where the import-time rule opens the worker paths,
    which tier-1 (BLAS variables unset) reaches only through monkeypatch.
    The pixel run makes its views there, so its snapshots run on the
    caller's thread, which hands the worker their probe fits.  The
    momentum-queue and WIDE runs run each mid-run snapshot whole there (its
    forward passes, kNN, probes and dump) while the next epochs train, and
    split their final snapshot's widest forward pass (the momentum-queue
    run's 1,000 test rows, the WIDE run's 722 train rows).  The WIDE run
    must match the run that fits every probe inline."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    script = ("import json, threading\nimport tempcl.runner as r\n"
              "placed = []  # (function, rows or file name, whether on the worker) of each call\n"
              "def wrap(name, size):\n"
              "    real = getattr(r, name)\n"
              "    def call(*args, **kwargs):\n"
              "        worker = threading.current_thread() is not threading.main_thread()\n"
              "        placed.append((name, size(args), worker))\n"
              "        return real(*args, **kwargs)\n"
              "    setattr(r, name, call)\n"
              "wrap('forward', lambda a: len(a[1]))\n"
              "wrap('knn_report', lambda a: len(a[2]))\n"
              "wrap('linear_probe', lambda a: a[4].mode)\n"
              "wrap('write_atomic', lambda a: a[0].name)\n"
              + _RUN_ONE + "print(r.PROBE_WORKER, json.dumps(placed))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(data_dir), name],
                          env=env, check=True, capture_output=True, text=True)
    probe_worker, placed = proc.stdout.splitlines()[-1].split(" ", 1)
    assert probe_worker == "True"
    placed = json.loads(placed)

    def where(fn):
        return [(size, worker) for name, size, worker in placed if name == fn]

    assert any(worker for _, worker in where("linear_probe"))
    if name == "pixel":
        assert not any(worker for _, worker in where("knn_report") + where("write_atomic"))
    else:
        # (train rows, test rows), and the final snapshot's forward passes
        (train, test), final = {"momentum_queue": ((151, 1000), [(151, False), (500, False),
                                                                  (500, True)]),
                                "wide": ((722, 300), [(300, False), (361, False),
                                                      (361, True)])}[name]
        mid_run = [e for e in snapshot_epochs(config("-", **{**RUNS, "wide": WIDE}[name]))
                   if e < EPOCHS]
        assert where("forward")[:2 * len(mid_run)] == [(train, True), (test, True)] * len(mid_run)
        assert sorted(where("forward")[2 * len(mid_run):]) == final
        assert where("knn_report") == [(test, True)] * len(mid_run) + [(test, False)]
        assert where("linear_probe")[:2 * len(mid_run)] == [("FS_LP", True),
                                                            ("LT_LP", True)] * len(mid_run)
        dumps = tuple(f"{kind}_epoch{e:05d}.csv" for e in mid_run
                      for kind in ("coverage", "curves", "pca"))
        assert sum(file in dumps for file, _ in where("write_atomic")) == len(dumps)
        assert all(worker == (file in dumps) for file, worker in where("write_atomic"))
    if name == "wide":
        for file in ("metrics.csv", "checkpoint_final.tclp"):
            assert (tmp_path / file).read_bytes() == (wide_inline / file).read_bytes()
        return
    golden = (GOLDEN / f"metrics_{name}.csv").read_text()
    assert (tmp_path / "metrics.csv").read_text() == golden
    assert sha256(tmp_path / "checkpoint_final.tclp") == HASHES[name]["checkpoint"]


@pytest.mark.parametrize("overrides, expected", [
    ({}, [0, 2, 3, 5, 6]),  # cosine: eval_every points plus round((k - 0.3) * T)
    ({"schedule__kind": "linear_oscillation"}, [0, 2, 3, 5, 6]),
    ({"schedule__coarse": "true"}, [0, 3, 6]),
    ({"schedule__kind": "constant"}, [0, 3, 6]),
    ({"schedule__kind": "step", "schedule__step_length": 2}, [0, 3, 6]),
    ({"schedule__period_T": 4, "run__eval_every": 5}, [0, 3, 5, 6]),
    ({"schedule__period_T": 6}, [0, 3, 4, 6]),
    ({"run__epochs": 0}, [0]),
])
def test_snapshot_epochs(overrides, expected):
    assert snapshot_epochs(config("unused", **overrides)) == expected


def test_build_datasets_drops_the_train_parse_before_the_test_parse(tmp_path):
    """A 1,000-row train file and a 2,000-row test file: the traced peak is
    the test parse (its float64 features beside its bytes) and the small
    long-tail subset, not the balanced train parse too."""
    (tmp_path / "train.bin").write_bytes(cifar10_fixture_bytes(n=1000, seed=50))
    (tmp_path / "test.bin").write_bytes(cifar10_fixture_bytes(n=2000, seed=51))
    cfg = config(tmp_path / "out", tmp_path, **RUNS["pixel"])
    (train, test), peak = traced_peak(lambda: build_datasets(cfg))
    assert train.n < 100 and test.n == 2000
    assert peak < 1.1 * (test.features.nbytes + (tmp_path / "test.bin").stat().st_size)


BATCH = 64
PIXEL = AugmentationPolicy(augment="pixel")


@pytest.fixture(scope="module")
def pixel_train(data_dir):
    """The pixel fixture's 300 training images: four batches of 64 an epoch."""
    return load_cifar10_bin([data_dir / "train.bin"])


def within(fn, seconds=30):
    """``fn()`` called on a helper thread, so that a test fails instead of
    hanging when it does not return in time."""
    out = []

    def call():
        try:
            out.append((fn(), None))
        except BaseException as err:  # raised again below, in the test's thread
            out.append((None, err))

    helper = threading.Thread(target=call, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"{fn} did not return within {seconds} s"
    value, err = out[0]
    if err is not None:
        raise err
    return value


def views_of_epochs(dataset, epochs, seed=5):
    return chain.from_iterable(_epoch_views(dataset, PIXEL, seed, epoch, BATCH)
                               for epoch in range(epochs))


def taken(stream, n):
    """The stream's next ``n`` batches."""
    return within(lambda: list(stream.take(n)))


def test_stream_yields_the_inline_views(pixel_train):
    inline = list(views_of_epochs(pixel_train, 3))
    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, views_of_epochs(pixel_train, 3))
    ahead = [batch for _ in range(3) for batch in taken(stream, pixel_train.n // BATCH)]
    within(pool.shutdown)
    assert len(ahead) == len(inline) == 3 * (pixel_train.n // BATCH) == 12
    for made_ahead, made_inline in zip(ahead, inline):
        for a, b in zip(made_ahead, made_inline):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_train_epoch_steps_as_inline_on_views_made_ahead(pixel_train):
    """Epoch 0 fed from a stream over two epochs steps as it does inline,
    and leaves the stream at epoch 1's first batch."""
    def one_epoch(views):
        params = init_encoder(pixel_train.dim, (32,), 8, seed=0)
        state = init_optim_state(params, base_lr=0.1, warmup_epochs=0, total_epochs=2)
        _, loss = train_epoch(pixel_train, params, state, ScheduleConfig(kind="constant"),
                              NegativeSource.in_batch(), PIXEL, seed=5, epoch=0,
                              batch_size=BATCH, views=views)
        return params, loss

    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, views_of_epochs(pixel_train, 2))
    fed, fed_loss = within(lambda: one_epoch(stream.take(pixel_train.n // BATCH)))
    inline, inline_loss = one_epoch(None)
    assert fed_loss == inline_loss
    assert fed.flat.tobytes() == inline.flat.tobytes()
    [(idx, _, _)] = taken(stream, 1)
    within(pool.shutdown)
    assert np.array_equal(idx, next(_epoch_views(pixel_train, PIXEL, 5, 1, BATCH))[0])


def test_stream_raises_the_producers_exception_unchanged():
    before = threading.active_count()
    raised = []

    def failing():
        yield 0
        raised.append(FloatingPointError("made-up failure at batch 1"))
        raise raised[0]

    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, failing())
    assert taken(stream, 1) == [0]
    for _ in range(2):  # a failed stream stays failed
        with pytest.raises(FloatingPointError) as err:
            taken(stream, 1)
        assert err.value is raised[0] and str(err.value) == "made-up failure at batch 1"
    within(pool.shutdown)
    assert threading.active_count() == before


def test_closing_the_stream_early_joins_the_thread(pixel_train):
    """Shutting the executor down mid-stream joins its worker."""
    before = threading.active_count()
    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, views_of_epochs(pixel_train, 3))
    taken(stream, pixel_train.n // BATCH)  # the first of three epochs
    within(lambda: next(stream.take(1)))  # the worker then makes the batch after it
    within(pool.shutdown)
    assert threading.active_count() == before


def counted(made, n=6, seconds=0.0):
    """0, ..., n - 1, each appended to ``made`` once it has taken ``seconds``
    to make."""
    for i in range(n):
        time.sleep(seconds)
        made.append(i)
        yield i


def test_stream_makes_one_batch_ahead():
    before = threading.active_count()
    made = []
    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, counted(made))
    assert made == [0]  # the first batch is made by the time the stream is built
    batches = stream.take(6)
    for i in range(6):
        assert within(lambda: next(batches)) == i
        time.sleep(0.02)  # the worker would run further ahead if it could
        assert len(made) <= i + 2
    for _ in range(2):  # taking past the end is an error, and stays one
        with pytest.raises(RuntimeError):
            taken(stream, 1)
    within(pool.shutdown)
    assert threading.active_count() == before


def test_take_ends_once_the_batch_after_it_is_made():
    """So the worker is idle between epochs, free for the snapshots' probes."""
    before = threading.active_count()
    made = []
    pool = ThreadPoolExecutor(max_workers=1)
    stream = _ViewStream(pool, counted(made, seconds=0.05))  # slow enough to be caught mid-batch
    assert taken(stream, 2) == [0, 1]
    assert made == [0, 1, 2]
    time.sleep(0.02)
    assert made == [0, 1, 2]
    assert taken(stream, 4) == [2, 3, 4, 5]
    within(pool.shutdown)
    assert threading.active_count() == before


def test_streams_close_at_any_point_under_fast_thread_switching():
    """Three streams (more threads than cores) whose executors are shut down
    after every possible number of batches, with the interpreter switching
    threads every microsecond: each yields its items in order and its
    worker is joined."""
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(7):
            pools = [ThreadPoolExecutor(max_workers=1) for _ in range(3)]
            streams = [_ViewStream(pool, iter(range(6))) for pool in pools]
            for stream in streams:
                assert taken(stream, n) == list(range(n))
            for open_left in (2, 1, 0):
                within(pools[open_left].shutdown)
                assert threading.active_count() == before + open_left
    finally:
        sys.setswitchinterval(interval)


def test_a_stream_never_closed_does_not_hold_up_exit():
    """The worker thread is not a daemon: the interpreter joins it at exit,
    which must not wait for more than the batch made ahead."""
    script = ("from concurrent.futures import ThreadPoolExecutor\n"
              "from itertools import count\n"
              "from tempcl.runner import _ViewStream\n"
              "stream = _ViewStream(ThreadPoolExecutor(max_workers=1), count())\n"
              "assert list(stream.take(1)) == [0]\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def patch_snapshot(monkeypatch, knn=None, lt_lp=None, fs_lp=None):
    """Wraps the runner's kNN report and linear probe: each call is recorded
    as (name, thread id) in the returned list, then runs its hook (if any),
    then the real function."""
    calls = []
    real_knn, real_probe = tempcl.runner.knn_report, tempcl.runner.linear_probe

    def report(*args, **kwargs):
        calls.append(("kNN", threading.get_ident()))
        if knn:
            knn()
        return real_knn(*args, **kwargs)

    def probe(*args, **kwargs):
        mode = args[4].mode
        calls.append((mode, threading.get_ident()))
        hook = lt_lp if mode == "LT_LP" else fs_lp
        if hook:
            hook()
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(tempcl.runner, "knn_report", report)
    monkeypatch.setattr(tempcl.runner, "linear_probe", probe)
    return calls


def on_worker() -> bool:
    """Whether this is an executor's worker thread (by its default name)."""
    return threading.current_thread().name.startswith("ThreadPoolExecutor")


def patch_forward(monkeypatch, worker=None, caller=None):
    """Wraps the runner's snapshot forward pass: each call is recorded as
    (rows, whether on a worker) in the returned list, then the hook of its
    thread (if any) runs with the call's rows, then the real function."""
    calls = []

    def recorded(params, X):
        calls.append((X.shape[0], on_worker()))
        hook = worker if on_worker() else caller
        if hook:
            hook(X.shape[0])
        return forward(params, X)

    monkeypatch.setattr(tempcl.runner, "forward", recorded)
    return calls


# 100 classes of 10 down to 5 rows, as k100-moco: 722 train rows, a forward pass
# wide enough to split, and LT_LP's GEMMs of 722 rows x 128 features x 100 classes
WIDE = {"data__classes": 100, "data__n_max": 10, "data__imbalance": 2,
        "data__test_per_class": 3}


@pytest.fixture
def one_blas_thread(monkeypatch):
    """The runner sees one BLAS thread and a CPU to spare, whatever this
    process runs."""
    monkeypatch.setattr(tempcl.runner, "PROBE_WORKER", True)


@pytest.fixture(scope="module")
def wide_inline(tmp_path_factory):
    """The output directory of a WIDE run whose every LT_LP is fitted
    inline, as where BLAS runs more than one thread."""
    out_dir = tmp_path_factory.mktemp("wide_inline")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempcl.runner, "PROBE_WORKER", False)
        calls = patch_snapshot(patch)
        forwards = patch_forward(patch)
        run_experiment(config(out_dir, **WIDE))
    assert {thread for _, thread in calls} == {threading.get_ident()}
    assert forwards and not any(worker for _, worker in forwards)
    assert {rows for rows, _ in forwards} == {722, 300}  # the train and test sets, whole
    return out_dir


def patch_train_epoch(monkeypatch, hook):
    """Wraps the runner's ``train_epoch``: each call's epoch is recorded in
    the returned list, then ``hook(epoch)`` runs, then the real function."""
    epochs = []

    def training(*args, epoch, **kwargs):
        epochs.append(epoch)
        hook(epoch)
        return train_epoch(*args, epoch=epoch, **kwargs)

    monkeypatch.setattr(tempcl.runner, "train_epoch", training)
    return epochs


@pytest.mark.parametrize("entry", ["run_experiment", "eval_checkpoint"])
def test_lt_lp_fits_on_the_worker_alongside_knn_and_fs_lp(wide_inline, tmp_path, monkeypatch,
                                                           one_blas_thread, entry):
    """A mid-run snapshot runs whole on the worker, its forward passes, kNN,
    FS_LP, LT_LP and dump, while the next epoch trains: its kNN waits for
    that epoch to start, and the epoch waits for its LT_LP, the last fit, to
    start, so a snapshot run inline or joined before training goes on breaks
    it.  At the final snapshot, as in eval, LT_LP runs on the worker while
    the analysis dump (in a run) and then FS_LP run on the caller's thread:
    each waits at a barrier for LT_LP, and LT_LP for each, so a snapshot
    that runs them one after the other breaks it.  The outputs are those of
    the run that fits every probe inline."""
    before = threading.active_count()
    cfg = config(tmp_path, **WIDE)
    epochs = snapshot_epochs(cfg) if entry == "run_experiment" else [EPOCHS]
    resumed = {e: threading.Event() for e in epochs}  # epoch e trains after snapshot e
    lt_lp_started = {e: threading.Event() for e in epochs}
    fs_lp, dump = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)

    def snapshot(name):
        """The epoch of the snapshot whose ``name`` call this is."""
        return epochs[[n for n, _ in calls].count(name) - 1]

    def knn():
        epoch = snapshot("kNN")
        if epoch < EPOCHS:
            assert resumed[epoch].wait(10)

    def lt_lp():
        epoch = snapshot("LT_LP")
        if epoch < EPOCHS:
            lt_lp_started[epoch].set()
            return
        if entry == "run_experiment":
            dump.wait()
        fs_lp.wait()

    def fs_lp_hook():
        if snapshot("FS_LP") == EPOCHS:
            fs_lp.wait()

    def resume(epoch):
        if epoch in resumed:
            resumed[epoch].set()
            assert lt_lp_started[epoch].wait(10)

    calls = patch_snapshot(monkeypatch, knn=knn, lt_lp=lt_lp, fs_lp=fs_lp_hook)
    forwards = patch_forward(monkeypatch)
    trained = patch_train_epoch(monkeypatch, resume)
    mid_run = len(epochs) - 1
    if entry == "run_experiment":
        real_coverage_csv, dumps = tempcl.runner.coverage_csv, []  # the dump's first call

        def coverage_csv(hist):
            dumps.append(on_worker())
            if snapshot("kNN") == EPOCHS:
                dump.wait()
            return real_coverage_csv(hist)

        monkeypatch.setattr(tempcl.runner, "coverage_csv", coverage_csv)
        run_experiment(cfg)
        assert trained == list(range(EPOCHS))
        assert dumps == [True] * mid_run + [False]
        for name in ("metrics.csv", "checkpoint_final.tclp"):
            assert (tmp_path / name).read_bytes() == (wide_inline / name).read_bytes()
        assert analysis_digest(tmp_path) == analysis_digest(wide_inline)
    else:
        eval_checkpoint(cfg, wide_inline / "checkpoint_final.tclp", EPOCHS)
        written = (tmp_path / f"eval_epoch{EPOCHS:05d}.csv").read_text().splitlines(True)
        assert written[1:] == _final_lines(wide_inline)
    here = threading.get_ident()

    def on_caller(name):
        return [thread == here for n, thread in calls if n == name]

    assert on_caller("kNN") == [False] * mid_run + [True]
    assert on_caller("LT_LP") == [False] * len(epochs)
    assert on_caller("FS_LP") == [False] * mid_run + [True]
    # each mid-run snapshot's passes whole on the worker; the final's 722 train rows split
    assert forwards[:2 * mid_run] == [(722, True), (300, True)] * mid_run
    assert sorted(forwards[2 * mid_run:]) == [(300, False), (361, False), (361, True)]
    assert threading.active_count() == before


@pytest.mark.parametrize("run", ["in_batch", "pixel"])
def test_eval_of_a_narrow_golden_run_fits_lt_lp_on_the_worker(runs, data_dir, tmp_path,
                                                              monkeypatch, one_blas_thread, run):
    """However narrow its fits, beside one BLAS thread eval hands LT_LP to
    the worker: kNN, on the caller's thread, waits at a barrier for LT_LP
    to start, and LT_LP for kNN, so a snapshot that fits LT_LP on the
    caller's thread breaks it.  The rows are the golden's final snapshot's."""
    started = threading.Barrier(2, timeout=10)
    calls = patch_snapshot(monkeypatch, knn=started.wait, lt_lp=started.wait)
    cfg = config(tmp_path, data_dir, **RUNS[run])
    eval_checkpoint(cfg, runs[run][1] / "checkpoint_final.tclp", EPOCHS)
    written = (tmp_path / f"eval_epoch{EPOCHS:05d}.csv").read_text().splitlines(True)
    assert written[1:] == _final_lines(runs[run][1])
    here = threading.get_ident()
    assert sorted(name for name, _ in calls) == ["FS_LP", "LT_LP", "kNN"]
    on_caller = {name: thread == here for name, thread in calls}
    assert on_caller["kNN"] and not on_caller["LT_LP"]


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, False),  # one BLAS thread per CPU
    ({}, 1, False),  # one BLAS thread and no CPU to spare
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),  # 0 sets no count
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, True),
])
def test_the_worker_takes_snapshot_work_only_beside_one_blas_thread(monkeypatch, env, cpus,
                                                                    expected):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _blas_leaves_a_cpu() is expected


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_process_reads_its_blas_threads_at_import(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", "import tempcl.runner as r; print(r.PROBE_WORKER)"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == f"{threads == '1' and len(os.sched_getaffinity(0)) > 1}\n"


def cli_config(tmp_path) -> str:
    """The WIDE config, written for ``tempcl train``."""
    path = tmp_path / "run.cfg"
    path.write_text(config_text(tmp_path / "out", **WIDE))
    return str(path)


def test_a_diverging_lt_lp_exits_3_and_leaves_no_thread(tmp_path, capsys, monkeypatch,
                                                         one_blas_thread):
    """The epoch-0 snapshot's LT_LP diverges while epoch 1 trains; the run
    stops at the next snapshot, before epoch 2 trains."""
    before = threading.active_count()
    resumed = threading.Event()

    def diverge():
        assert resumed.wait(10)
        raise FloatingPointError("made-up LT_LP divergence")

    calls = patch_snapshot(monkeypatch, lt_lp=diverge)
    trained = patch_train_epoch(monkeypatch, lambda epoch: epoch == 1 and resumed.set())
    assert within(lambda: main(["train", "--config", cli_config(tmp_path)])) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric divergence: made-up LT_LP divergence\n"
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert sorted(name for name, _ in calls) == ["FS_LP", "LT_LP", "kNN"]  # at epoch 0
    assert trained == [0, 1]
    assert threading.active_count() == before


class ObservedShutdown(ThreadPoolExecutor):
    """A one-worker executor that sets ``shutting_down`` once its queue is
    cancelled (where the caller asks for that) and before it waits for its
    running work."""

    shutting_down = None  # a threading.Event, set by the test

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait=False, cancel_futures=cancel_futures)
        self.shutting_down.set()
        super().shutdown(wait=wait)


def test_an_interrupt_while_lt_lp_fits_propagates_and_leaves_no_thread(tmp_path, monkeypatch,
                                                                        one_blas_thread):
    """The final snapshot's LT_LP is still fitting on the worker when the
    caller's kNN is interrupted, and goes on until the run's worker is
    shutting down: the FS_LP queued behind it never runs."""
    before = threading.active_count()
    fitting, shutting_down = threading.Event(), threading.Event()
    monkeypatch.setattr(ObservedShutdown, "shutting_down", shutting_down)
    monkeypatch.setattr(tempcl.runner, "ThreadPoolExecutor", ObservedShutdown)
    final = len(snapshot_epochs(config("-", **WIDE)))

    def lt_lp():
        if [name for name, _ in calls].count("LT_LP") == final:
            fitting.set()
            assert shutting_down.wait(10)

    def knn():
        if not on_worker():  # the final snapshot's, the one kNN on the caller's thread
            assert fitting.wait(10)
            raise KeyboardInterrupt

    calls = patch_snapshot(monkeypatch, knn=knn, lt_lp=lt_lp)
    trained = patch_train_epoch(monkeypatch, lambda epoch: None)
    with pytest.raises(KeyboardInterrupt):
        within(lambda: main(["train", "--config", cli_config(tmp_path)]))
    assert not (tmp_path / "out" / "metrics.csv").exists()
    # the mid-run snapshots' calls on the worker, then the final snapshot's two,
    # appended on two threads
    worker = calls[0][1]
    mid_run = [("kNN", True), ("FS_LP", True), ("LT_LP", True)] * (final - 1)
    assert [(name, thread == worker) for name, thread in calls[:-2]] == mid_run
    assert sorted((name, thread == worker) for name, thread in calls[-2:]) == [
        ("LT_LP", True), ("kNN", False)]
    assert trained == list(range(EPOCHS))
    assert threading.active_count() == before


def test_an_interrupt_while_a_mid_run_snapshot_runs_propagates_and_leaves_no_thread(
        tmp_path, monkeypatch, one_blas_thread):
    """The epoch-0 snapshot is in its kNN on the worker when epoch 1 is
    interrupted, and goes on until the run's worker is shutting down; the
    interrupt leaves the run once the snapshot is whole, dump included."""
    before = threading.active_count()
    running, shutting_down = threading.Event(), threading.Event()
    monkeypatch.setattr(ObservedShutdown, "shutting_down", shutting_down)
    monkeypatch.setattr(tempcl.runner, "ThreadPoolExecutor", ObservedShutdown)
    knn_on_worker = []

    def knn():
        knn_on_worker.append(on_worker())
        running.set()
        assert shutting_down.wait(10)

    def interrupt(epoch):
        if epoch == 1:
            assert running.wait(10)
            raise KeyboardInterrupt

    calls = patch_snapshot(monkeypatch, knn=knn)
    trained = patch_train_epoch(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        within(lambda: main(["train", "--config", cli_config(tmp_path)]))
    out = tmp_path / "out"
    assert not (out / "metrics.csv").exists()
    assert [name for name, _ in calls] == ["kNN", "FS_LP", "LT_LP"]
    assert knn_on_worker == [True] and len({thread for _, thread in calls}) == 1
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "coverage_epoch00000.csv", "curves_epoch00000.csv", "pca_epoch00000.csv"]
    assert trained == [0, 1]
    assert threading.active_count() == before


def test_a_diverging_mid_run_snapshot_exits_3_at_the_next_join_and_leaves_no_thread(
        tmp_path, capsys, monkeypatch, one_blas_thread):
    """The epoch-0 snapshot's train forward pass, on the worker, diverges
    while epoch 1 trains; the run stops at the next snapshot, before epoch 2
    trains, and no kNN or probe runs."""
    before = threading.active_count()
    resumed = threading.Event()

    def diverge(rows):
        assert resumed.wait(10)
        raise FloatingPointError("made-up divergence in a mid-run snapshot")

    forwards = patch_forward(monkeypatch, worker=diverge)
    calls = patch_snapshot(monkeypatch)
    trained = patch_train_epoch(monkeypatch, lambda epoch: epoch == 1 and resumed.set())
    assert within(lambda: main(["train", "--config", cli_config(tmp_path)])) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric divergence: made-up divergence in a mid-run snapshot\n"
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert forwards == [(722, True)]
    assert calls == []
    assert trained == [0, 1]
    assert threading.active_count() == before


@pytest.fixture
def split_open(monkeypatch, one_blas_thread):
    """Every snapshot forward pass of 4 rows or more is split, however narrow."""
    monkeypatch.setattr(tempcl.runner, "FORWARD_WORKER_MACS", 0)


@pytest.mark.parametrize("D", [3072, 32])
@pytest.mark.parametrize("n", [4, 5, 7, 100, 2000])
def test_a_split_forward_pass_equals_the_whole_bit_for_bit(monkeypatch, split_open, D, n):
    params = init_encoder(D, (256, 128), 32, seed=1)
    X = np.random.default_rng(n).standard_normal((n, D))
    calls = patch_forward(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        emb, feats = within(lambda: _forward_rows(pool, params, X))
    assert sorted(calls) == [(n // 2, False), (n - n // 2, True)]  # one half on the worker
    whole = forward(params, X)
    for split, inline in ((emb, whole.embeddings), (feats, whole.features)):
        assert split.dtype == inline.dtype and split.shape == inline.shape
        assert split.tobytes() == inline.tobytes()


def test_the_gate_keeps_a_split_of_a_narrow_encoder_bit_for_bit(monkeypatch, one_blas_thread):
    """Hidden (64,) at D = 3072 and embedding 32: 85 rows are the fewest
    the real gate splits (85 x 198,656 >= 2^24 multiply-adds).  Below the
    gate this encoder's pieces of 5 rows or fewer differ in the last bits."""
    params = init_encoder(3072, (64,), 32, seed=1)
    X = np.random.default_rng(85).standard_normal((85, 3072))
    calls = patch_forward(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        emb, feats = within(lambda: _forward_rows(pool, params, X))
    assert sorted(calls) == [(42, False), (43, True)]
    whole = forward(params, X)
    assert emb.tobytes() == whole.embeddings.tobytes()
    assert feats.tobytes() == whole.features.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fewer_than_four_rows_are_never_split(monkeypatch, split_open, n):
    """A half of one row would take NumPy's gemv path, whose sums differ."""
    params = init_encoder(3072, (256, 128), 32, seed=1)
    X = np.random.default_rng(n).standard_normal((n, 3072))
    calls = patch_forward(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        emb, _ = _forward_rows(pool, params, X)
    assert calls == [(n, False)]
    assert emb.tobytes() == forward(params, X).embeddings.tobytes()


@pytest.mark.parametrize("probe_worker, rows", [(True, 4), (True, 20), (False, 2000)])
def test_a_forward_pass_below_the_gate_or_beside_more_blas_threads_runs_on_the_caller(
        monkeypatch, probe_worker, rows):
    """At D = 3072 and (256, 128) hidden dims, 20 rows are 16.5 M multiply-adds,
    just below the gate, and 2,000 rows are far above it."""
    monkeypatch.setattr(tempcl.runner, "PROBE_WORKER", probe_worker)
    params = init_encoder(3072, (256, 128), 32, seed=1)
    calls = patch_forward(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        _forward_rows(pool, params, np.ones((rows, 3072)))
    assert calls == [(rows, False)]


def test_the_goldens_hold_with_every_snapshot_forward_pass_split(runs, data_dir, wide_inline,
                                                                 tmp_path, monkeypatch,
                                                                 split_open):
    """The pixel run, whose snapshots all run on the caller's thread, its
    eval and analyze, and the wide run's final snapshot, with each of their
    forward passes split: the same outputs, and half of every pass on the
    worker.  The wide run's mid-run snapshots run whole on the worker, where
    no pass is split."""
    calls = patch_forward(monkeypatch)
    run_experiment(config(tmp_path / "pixel", data_dir, **RUNS["pixel"]))
    assert (tmp_path / "pixel" / "metrics.csv").read_text() == (
        GOLDEN / "metrics_pixel.csv").read_text()
    assert sha256(tmp_path / "pixel" / "checkpoint_final.tclp") == HASHES["pixel"]["checkpoint"]
    assert analysis_digest(tmp_path / "pixel") == HASHES["pixel"]["analysis"]

    cfg = config(tmp_path / "checkpoint", data_dir, **RUNS["pixel"])
    final = runs["pixel"][1]
    eval_checkpoint(cfg, final / "checkpoint_final.tclp", EPOCHS)
    written = (tmp_path / "checkpoint" / f"eval_epoch{EPOCHS:05d}.csv").read_text()
    assert written.splitlines(True)[1:] == _final_lines(final)
    analyze_checkpoint(cfg, final / "checkpoint_final.tclp", EPOCHS)
    for kind in ("coverage", "curves", "pca"):
        name = f"{kind}_epoch{EPOCHS:05d}.csv"
        assert (tmp_path / "checkpoint" / name).read_bytes() == (final / name).read_bytes()
    # 5 pixel snapshots, eval's 2 passes and analyze's 1; 2 passes each
    halves = len(snapshot_epochs(cfg)) * 2 + 3
    assert sum(worker for _, worker in calls) == halves
    assert len(calls) == 2 * halves

    calls.clear()
    run_experiment(config(tmp_path / "wide", **WIDE))
    for name in ("metrics.csv", "checkpoint_final.tclp"):
        assert (tmp_path / "wide" / name).read_bytes() == (wide_inline / name).read_bytes()
    assert analysis_digest(tmp_path / "wide") == analysis_digest(wide_inline)
    mid_run = len(snapshot_epochs(config("-", **WIDE))) - 1
    assert calls[:2 * mid_run] == [(722, True), (300, True)] * mid_run
    assert sorted(calls[2 * mid_run:]) == [(150, False), (150, True), (361, False), (361, True)]


def test_a_diverging_worker_half_exits_3_and_leaves_no_thread(tmp_path, capsys, monkeypatch,
                                                              one_blas_thread):
    """The wide run's 722 train rows are split at its final snapshot, after
    the mid-run snapshots' whole passes on the worker."""
    before = threading.active_count()

    def diverge(rows):
        if rows == 361:
            raise FloatingPointError("made-up divergence in a worker's half")

    calls = patch_forward(monkeypatch, worker=diverge)
    assert within(lambda: main(["train", "--config", cli_config(tmp_path)])) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric divergence: made-up divergence in a worker's half\n"
    assert not (tmp_path / "out" / "metrics.csv").exists()
    mid_run = len(snapshot_epochs(config("-", **WIDE))) - 1
    assert calls[:2 * mid_run] == [(722, True), (300, True)] * mid_run
    assert sorted(calls[2 * mid_run:]) == [(361, False), (361, True)]
    assert threading.active_count() == before


def test_an_interrupt_in_the_callers_half_propagates_and_leaves_no_thread(tmp_path, monkeypatch,
                                                                          one_blas_thread):
    """At the final snapshot, the first of the caller's passes is
    interrupted while the worker's half is still running."""
    before = threading.active_count()
    running, interrupted = threading.Event(), threading.Event()

    def worker(rows):
        if rows == 361:  # the final snapshot's half, not a mid-run snapshot's pass
            running.set()
            assert interrupted.wait(10)

    def caller(rows):
        assert running.wait(10)
        interrupted.set()
        raise KeyboardInterrupt

    calls = patch_forward(monkeypatch, worker=worker, caller=caller)
    with pytest.raises(KeyboardInterrupt):
        within(lambda: main(["train", "--config", cli_config(tmp_path)]))
    assert not (tmp_path / "out" / "metrics.csv").exists()
    mid_run = len(snapshot_epochs(config("-", **WIDE))) - 1
    assert calls[:2 * mid_run] == [(722, True), (300, True)] * mid_run
    assert sorted(calls[2 * mid_run:]) == [(361, False), (361, True)]
    assert threading.active_count() == before


def pixel_cli_config(tmp_path, data_dir, **overrides) -> str:
    """The pixel golden config, with overrides, written for ``tempcl train``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "pixel.cfg"
    path.write_text(config_text(tmp_path / "out", data_dir, **{**RUNS["pixel"], **overrides}))
    return str(path)


@pytest.mark.filterwarnings("error")
def test_diverging_pixel_run_exits_3_and_leaves_no_thread(tmp_path, data_dir, capsys):
    before = threading.active_count()
    config = pixel_cli_config(tmp_path, data_dir, encoder__base_lr="1e200")
    assert within(lambda: main(["train", "--config", config])) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric divergence: non-finite activations in ")
    assert err.count("\n") == 1
    assert threading.active_count() == before


def test_finished_and_interrupted_pixel_runs_leave_no_thread(tmp_path, data_dir, monkeypatch):
    before = threading.active_count()
    done = pixel_cli_config(tmp_path / "done", data_dir)
    assert within(lambda: main(["train", "--config", done])) == 0
    assert threading.active_count() == before

    def interrupted(*args, epoch, **kwargs):
        if epoch == 2:
            raise KeyboardInterrupt
        return train_epoch(*args, epoch=epoch, **kwargs)

    monkeypatch.setattr(tempcl.runner, "train_epoch", interrupted)
    stopped = pixel_cli_config(tmp_path / "stopped", data_dir)
    with pytest.raises(KeyboardInterrupt):
        within(lambda: main(["train", "--config", stopped]))
    assert threading.active_count() == before


def test_diverging_pixel_run_exits_3_in_a_fresh_process(tmp_path, data_dir):
    config = pixel_cli_config(tmp_path, data_dir, encoder__base_lr="1e200")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "tempcl.cli", "train", "--config", config],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.startswith("numeric divergence: non-finite activations in ")
