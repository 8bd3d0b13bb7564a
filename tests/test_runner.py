"""Golden end-to-end runs of the experiment runner, and the checkpoint
entry points checked against them.

The five runs are seconds-scale (6 epochs of period 3).  Two cover the
negative sources under the cosine schedule on 150 synthetic training rows;
the third runs the momentum queue under coarse head/tail temperature
supervision; the fourth trains on CIFAR-10-format images with pixel
augmentation; the fifth takes the symmetrized in-batch loss.  Their ``metrics.csv`` files are kept under
``tests/golden/``; the final checkpoint and the analysis CSVs are
pinned by sha256.  A change that moves any of these outputs must say why
and regenerate them on purpose.  The momentum-queue and pixel runs are
repeated in a fresh process with two BLAS threads, which must give the
same ``metrics.csv`` and checkpoint.

The analysis CSVs are hashed with every decimal number rounded to 12
significant digits: the contribution curves come from a BLAS product whose
last bit depends on the BLAS thread count.  ``metrics.csv`` and the
checkpoint do not, and are compared exactly.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tempcl.config import parse_config
from tempcl.runner import analyze_checkpoint, eval_checkpoint, run_experiment, snapshot_epochs
from test_data import cifar10_fixture_bytes

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
HASHES = {
    "in_batch": {
        "checkpoint": "38898379604d1a458f5e0fc5586669b573f93915f757601624a35e382e721b25",
        "analysis": "a6b4857edb570e31220dae19540f0672d3ae9656521c33698989bf40369c9dda",
    },
    "momentum_queue": {
        "checkpoint": "a80a4ba6c5db6aeba4e3c36e042d2c25f136956f78736f888afb9b68bac95f1f",
        "analysis": "0fa55bf98fff1249daa23abe9a347c83914d7eb0093789945c10c1af789256a2",
    },
    "coarse_momentum_queue": {
        "checkpoint": "aaaa17d1dfb7a1b24d3f4424176d2076ce081cd95f22510f1f08b985a602bf1c",
        "analysis": "fab400e350bd308f3f4a24af92da5d99a9c2fee2416f1549bbc3ad537cd1f18a",
    },
    "pixel": {
        "checkpoint": "47cb3efbba89e7e0f31cc68e37c9f6bbae831b6d39ce123fe1e3e075f4a9c8b0",
        "analysis": "2d025c687d2a4ccd0a9d1bb128e7d7c85004b7b1e90251f521a3d168c8f9b8b1",
    },
    "symmetrized": {
        "checkpoint": "bffda4060598f1324c6b0c8fdfc978326913aba81415c66906314be45078eb9c",
        "analysis": "75e30e1ca132f24e2b95b6b67a8cb4f385fd0281f62129d771c3d188a0e152e6",
    },
}


def config(out_dir, data_dir="", **overrides):
    """The base config with ``section__key=value`` overrides; ``{data_dir}``
    in a value becomes ``data_dir``."""
    keys = {**BASE, **{k.replace("__", "."): str(v).format(data_dir=data_dir)
                       for k, v in overrides.items()}}
    keys["run.output_dir"] = str(out_dir)
    return parse_config("".join(f"{k} = {v}\n" for k, v in keys.items()))


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


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """CIFAR-10-format train and test files for the pixel run."""
    d = tmp_path_factory.mktemp("cifar10")
    (d / "train.bin").write_bytes(cifar10_fixture_bytes(n=300, seed=11))
    (d / "test.bin").write_bytes(cifar10_fixture_bytes(n=100, seed=12))
    return d


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


# runs one golden config given (output dir, data dir, run name)
_RUN_ONE = (
    "import sys\n"
    "from test_runner import RUNS, config\n"
    "from tempcl.runner import run_experiment\n"
    "run_experiment(config(sys.argv[1], sys.argv[2], **RUNS[sys.argv[3]]))\n"
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
