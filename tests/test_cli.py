"""Tests for the command-line exit-code contract: 0 on success, 1 for a
configuration error, 2 for a data error, 3 for numeric divergence."""

import pytest

from tempcl.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from test_data import cifar10_fixture_bytes

TINY = """\
run.epochs = 2
run.eval_every = 2
data.classes = 4
data.dim = 8
data.n_max = 20
data.imbalance = 2
data.test_per_class = 5
encoder.hidden_dims = 16
encoder.embed_dim = 4
encoder.batch_size = 16
schedule.period_T = 2
eval.probe_epochs = 5
analysis.bins = 10
"""


def write_config(tmp_path, text=TINY, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(text + extra + f"run.output_dir = {tmp_path / 'out'}\n")
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A finished tiny run: (config path, output directory)."""
    tmp_path = tmp_path_factory.mktemp("trained")
    config = write_config(tmp_path)
    assert main(["train", "--config", config]) == 0
    return config, tmp_path / "out"


def test_train_then_eval_and_analyze(trained, capsys):
    config, out = trained
    checkpoint = str(out / "checkpoint_final.tclp")
    capsys.readouterr()
    assert main(["eval", "--config", config, "--checkpoint", checkpoint, "--epoch", "2"]) == 0
    assert "knn10 = " in capsys.readouterr().out
    assert (out / "eval_epoch00002.csv").is_file()
    assert main(["analyze", "--config", config, "--checkpoint", checkpoint]) == 0
    assert "coverage_cv = " in capsys.readouterr().out


def test_bad_config_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, extra="run.nope = 1\n")
    assert main(["train", "--config", config]) == EXIT_CONFIG
    assert "config error: line" in capsys.readouterr().err


def test_missing_checkpoint_exits_2(trained, tmp_path, capsys):
    config, _ = trained
    missing = str(tmp_path / "none.tclp")
    assert main(["eval", "--config", config, "--checkpoint", missing]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("cut", [
    lambda raw: raw[:-1],
    lambda raw: raw[:12],
    lambda raw: raw[:30],
    lambda raw: raw + b"\0",
], ids=["truncated-weights", "header-only", "truncated-layer-table", "trailing-bytes"])
@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_corrupt_checkpoint_exits_2(trained, tmp_path, capsys, cut, command):
    config, out = trained
    bad = tmp_path / "bad.tclp"
    bad.write_bytes(cut((out / "checkpoint_final.tclp").read_bytes()))
    assert main([command, "--config", config, "--checkpoint", str(bad)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_checkpoint_of_another_width_exits_2(trained, tmp_path, capsys):
    _, out = trained
    config = write_config(tmp_path, text=TINY.replace("data.dim = 8", "data.dim = 9"))
    checkpoint = str(out / "checkpoint_final.tclp")
    assert main(["eval", "--config", config, "--checkpoint", checkpoint]) == EXIT_DATA
    assert "input width 8" in capsys.readouterr().err


def test_truncated_cifar_file_exits_2(tmp_path, capsys):
    train = tmp_path / "train.bin"
    train.write_bytes(cifar10_fixture_bytes(n=6)[:-1])
    test = tmp_path / "test.bin"
    test.write_bytes(cifar10_fixture_bytes(n=6, seed=1))
    config = write_config(tmp_path, extra=f"data.kind = cifar10\ndata.path = {train}\n"
                                          f"data.test_path = {test}\n")
    assert main(["train", "--config", config]) == EXIT_DATA
    assert "not a multiple of 3073" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, extra="encoder.base_lr = 1e200\n")
    assert main(["train", "--config", config]) == EXIT_NUMERIC
    assert "numeric divergence" in capsys.readouterr().err
