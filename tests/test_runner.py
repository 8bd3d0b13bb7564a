"""Golden end-to-end runs of the experiment runner, and the checkpoint
entry points checked against them.

The two runs are seconds-scale (150 training rows, 6 epochs of period 3)
and cover both negative sources.  Their ``metrics.csv`` files are kept
under ``tests/golden/``; the final checkpoint and the analysis CSVs are
pinned by sha256.  A change that moves any of these outputs must say why
and regenerate them on purpose.

The analysis CSVs are hashed with every decimal number rounded to 12
significant digits: the contribution curves come from a BLAS product whose
last bit depends on the BLAS thread count.  ``metrics.csv`` and the
checkpoint do not, and are compared exactly.
"""

import hashlib
import re
from pathlib import Path

import pytest

from tempcl.config import parse_config
from tempcl.runner import analyze_checkpoint, eval_checkpoint, run_experiment, snapshot_epochs

GOLDEN = Path(__file__).resolve().parent / "golden"
NEGATIVES = ("in_batch", "momentum_queue")
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
        "analysis": "8ae4c9f92293e9229582dc2b97cd5e7a1ad329aa9243b2b5216c39aecb51e54b",
    },
    "momentum_queue": {
        "checkpoint": "a80a4ba6c5db6aeba4e3c36e042d2c25f136956f78736f888afb9b68bac95f1f",
        "analysis": "c576be5ebb2cac1ac2894d3f90090309be960653c1ec20d396ded3d459b1e15a",
    },
}


def config(out_dir, **overrides):
    """The base config with ``section__key=value`` overrides."""
    keys = {**BASE, **{k.replace("__", "."): str(v) for k, v in overrides.items()}}
    keys["run.output_dir"] = str(out_dir)
    return parse_config("".join(f"{k} = {v}\n" for k, v in keys.items()))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def analysis_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.glob("*.csv")):
        if p.name.startswith(("coverage_", "curves_", "pca_")):
            text = _DECIMAL.sub(lambda m: f"{float(m.group()):.12g}", p.read_text())
            h.update(p.name.encode() + b"\0" + text.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for negatives in NEGATIVES:
        out_dir = tmp_path_factory.mktemp(negatives)
        cfg = config(out_dir, encoder__negatives=negatives)
        out[negatives] = (cfg, out_dir, run_experiment(cfg))
    return out


@pytest.mark.parametrize("negatives", NEGATIVES)
def test_metrics_csv_matches_golden(runs, negatives):
    _, out_dir, _ = runs[negatives]
    golden = (GOLDEN / f"metrics_{negatives}.csv").read_text()
    assert (out_dir / "metrics.csv").read_text() == golden


@pytest.mark.parametrize("negatives", NEGATIVES)
def test_checkpoint_and_analysis_match_golden(runs, negatives):
    _, out_dir, _ = runs[negatives]
    assert sha256(out_dir / "checkpoint_final.tclp") == HASHES[negatives]["checkpoint"]
    assert analysis_digest(out_dir) == HASHES[negatives]["analysis"]


@pytest.mark.parametrize("negatives", NEGATIVES)
def test_outputs_follow_the_snapshot_schedule(runs, negatives):
    cfg, out_dir, summary = runs[negatives]
    epochs = snapshot_epochs(cfg)
    lines = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    assert sorted({int(line.split(",")[0]) for line in lines}) == epochs
    for e in epochs:
        for kind in ("coverage", "curves", "pca"):
            assert (out_dir / f"{kind}_epoch{e:05d}.csv").is_file()
    # recommended evaluation epochs of the cosine period get a checkpoint
    assert sorted(p.name for p in out_dir.glob("checkpoint_*.tclp")) == [
        "checkpoint_epoch00002.tclp", "checkpoint_epoch00005.tclp", "checkpoint_final.tclp"]
    assert set(summary) >= {"knn1", "knn10", "fs_lp", "lt_lp", "coverage_cv", "train_loss"}


def _final_lines(out_dir: Path) -> list:
    """The final snapshot's metrics.csv lines, without the training loss
    (which only a training run knows)."""
    lines = (out_dir / "metrics.csv").read_text().splitlines(keepends=True)[1:]
    return [line for line in lines
            if line.startswith(f"{EPOCHS},") and ",train_loss," not in line]


@pytest.mark.parametrize("negatives", NEGATIVES)
def test_eval_checkpoint_reproduces_the_final_snapshot(runs, negatives, tmp_path):
    _, out_dir, _ = runs[negatives]
    cfg = config(tmp_path, encoder__negatives=negatives)
    rows = eval_checkpoint(cfg, out_dir / "checkpoint_final.tclp", EPOCHS)
    written = (tmp_path / f"eval_epoch{EPOCHS:05d}.csv").read_text().splitlines(keepends=True)
    assert written[0] == "epoch,tau,metric,scope,value\n"
    assert written[1:] == _final_lines(out_dir)
    assert len(rows) == len(written) - 1


@pytest.mark.parametrize("negatives", NEGATIVES)
def test_analyze_checkpoint_reproduces_the_final_analysis(runs, negatives, tmp_path):
    _, out_dir, _ = runs[negatives]
    cfg = config(tmp_path, encoder__negatives=negatives)
    cv = analyze_checkpoint(cfg, out_dir / "checkpoint_final.tclp", EPOCHS)
    cv_line = next(line for line in _final_lines(out_dir) if ",coverage_cv," in line)
    assert repr(cv) == cv_line.rstrip("\n").rsplit(",", 1)[1]
    for kind in ("coverage", "curves", "pca"):
        name = f"{kind}_epoch{EPOCHS:05d}.csv"
        assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()


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
