"""Tests for the command-line exit-code contract: 0 on success, 1 for a
configuration error, 2 for a data error, 3 for numeric divergence."""

import math
import struct

import numpy as np
import pytest

import tempcl.runner
from tempcl.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from tempcl.config import parse_config
from tempcl.data import LongTailDataset, head_mid_tail_split, load_dataset, save_dataset
from tempcl.encoder import train_epoch
from tempcl.runner import synthetic_datasets
from tempcl.schedule import tau_at
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


def test_final_checkpoint_is_labelled_run_epochs(trained, tmp_path):
    """Without --epoch, eval and analyze of checkpoint_final.tclp reproduce
    the final snapshot (run.epochs = 2 in TINY), not epoch 0."""
    config, out = trained
    args = ["--config", config, "--checkpoint", str(out / "checkpoint_final.tclp"),
            "--output", str(tmp_path)]
    assert main(["eval", *args]) == 0
    assert main(["analyze", *args]) == 0
    final = [line for line in (out / "metrics.csv").read_text().splitlines(keepends=True)
             if line.startswith("2,") and ",train_loss," not in line]
    written = (tmp_path / "eval_epoch00002.csv").read_text().splitlines(keepends=True)
    assert final and written[1:] == final
    for kind in ("coverage", "curves", "pca"):
        name = f"{kind}_epoch00002.csv"
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    assert not list(tmp_path.glob("*epoch00000*"))


def test_eval_of_an_untrained_runs_final_checkpoint_gives_its_epoch_0_rows(tmp_path):
    """run.epochs = 0 still saves checkpoint_final.tclp, labelled epoch 0."""
    config = write_config(tmp_path, text=TINY.replace("run.epochs = 2", "run.epochs = 0"))
    assert main(["train", "--config", config]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--checkpoint", str(out / "checkpoint_final.tclp"),
                 "--output", str(tmp_path / "eval")]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) > 1 and all(row.startswith("0,") for row in rows[1:])
    assert (tmp_path / "eval" / "eval_epoch00000.csv").read_text().splitlines() == rows


def test_bad_config_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, extra="run.nope = 1\n")
    assert main(["train", "--config", config]) == EXIT_CONFIG
    assert "config error: line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "schedule-preview"])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe\x00bad")  # a UTF-16 byte-order mark, then text
    output = tmp_path / "out"
    assert main([command, "--config", str(config), "--output", str(output)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {config} is not UTF-8 text: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not output.exists()


def test_missing_checkpoint_exits_2(trained, tmp_path, capsys):
    config, _ = trained
    missing = str(tmp_path / "none.tclp")
    output = tmp_path / "eval"
    assert main(["eval", "--config", config, "--checkpoint", missing,
                 "--output", str(output)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not output.exists()  # a refused run writes nothing


@pytest.mark.parametrize("cut, message", [
    (lambda raw: raw[:-1], "weights need"),
    (lambda raw: raw[:12], "overruns the file"),
    (lambda raw: raw[:20], "overruns the file"),  # TINY's two layers need a 28-byte table
    (lambda raw: raw + b"\0", "trailing bytes"),
    # the last 8 bytes are the last bias of the last layer
    (lambda raw: raw[:-8] + struct.pack("<d", math.nan),
     "non-finite weight or bias in projection layer 0"),
], ids=["truncated-weights", "header-only", "truncated-layer-table", "trailing-bytes",
        "nan-bias"])
@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_corrupt_checkpoint_exits_2(trained, tmp_path, capsys, cut, message, command):
    config, out = trained
    bad = tmp_path / "bad.tclp"
    bad.write_bytes(cut((out / "checkpoint_final.tclp").read_bytes()))
    assert main([command, "--config", config, "--checkpoint", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and message in err


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


def test_batch_larger_than_the_train_set_exits_1(tmp_path, capsys):
    # 4 classes, n_max 20, imbalance 2: 59 long-tail training rows
    big_batch = TINY.replace("encoder.batch_size = 16", "encoder.batch_size = 128")
    assert main(["train", "--config", write_config(tmp_path, text=big_batch)]) == EXIT_CONFIG
    assert "config error: encoder.batch_size = 128 exceeds the 59 rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("text", [
    TINY.replace("data.classes = 4", "data.classes = 2"),
    # 4 classes, n_max 2, imbalance 2: 6 long-tail training rows
    TINY.replace("data.n_max = 20", "data.n_max = 2").replace("batch_size = 16", "batch_size = 2"),
], ids=["two-classes", "six-rows"])
@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_train_set_a_snapshot_cannot_score_exits_1(trained, tmp_path, capsys, text, command):
    """The head/mid/tail split needs 3 classes and kNN-10 needs 10 rows."""
    _, out = trained
    args = [command, "--config", write_config(tmp_path, text=text)]
    if command != "train":
        args += ["--checkpoint", str(out / "checkpoint_final.tclp")]
    assert main(args) == EXIT_CONFIG
    assert "config error: the train set has" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # nothing written


def test_negative_seed_override_exits_1(tmp_path, capsys):
    assert main(["train", "--config", write_config(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "config error: --seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_negative_epoch_exits_1(trained, tmp_path, capsys, command):
    config, out = trained
    output = tmp_path / "out"
    assert main([command, "--config", config, "--checkpoint", str(out / "checkpoint_final.tclp"),
                 "--epoch", "-1", "--output", str(output)]) == EXIT_CONFIG
    assert "config error: --epoch must be >= 0, got -1" in capsys.readouterr().err
    assert not output.exists()  # a refused run writes nothing


def tcld(path, class_sizes, dim=8, seed=0):
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    features = np.random.default_rng(seed).standard_normal((labels.size, dim))
    save_dataset(LongTailDataset(features, labels, len(class_sizes)), path)
    return path


def test_coarse_default_head_is_the_largest_classes_of_a_tcld_train_set(tmp_path, monkeypatch):
    """Class ids of a TCLD file need not run from the largest class down:
    the default coarse head is the train set's frequent half by size, and
    holds evaluation's head group."""
    train = tcld(tmp_path / "train.tcld", [2, 4, 8, 16, 32, 64])
    test = tcld(tmp_path / "test.tcld", [3] * 6, seed=1)
    heads = []

    def spy(ds, params, state, schedule, *args, **kwargs):
        heads.append(schedule.head_classes)
        return train_epoch(ds, params, state, schedule, *args, **kwargs)

    monkeypatch.setattr(tempcl.runner, "train_epoch", spy)
    config = write_config(tmp_path, extra=f"data.kind = tcld\ndata.path = {train}\n"
                                          f"data.test_path = {test}\nschedule.coarse = true\n")
    assert main(["train", "--config", config]) == 0
    assert heads == [(5, 4, 3)] * 2  # run.epochs
    groups = head_mid_tail_split(load_dataset(train).class_sizes)
    assert set(np.flatnonzero(groups == 0)) <= set(heads[0])


@pytest.mark.parametrize("kind", ["cifar10", "cifar100"])
@pytest.mark.parametrize("key, value", [("path", ","), ("test_path", " , ")])
def test_a_cifar_file_list_that_names_no_file_exits_1(tmp_path, capsys, kind, key, value):
    files = {"path": tmp_path / "train.bin", "test_path": tmp_path / "test.bin", key: value}
    config = write_config(tmp_path, extra=f"data.kind = {kind}\n" + "".join(
        f"data.{k} = {v}\n" for k, v in files.items()))
    assert main(["train", "--config", config]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: data.{key} names no file for "
                                       f"data.kind = {kind}\n")
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_train_set_with_an_empty_class_exits_2(trained, tmp_path, capsys, command):
    """A TCLD header K that names a class no record holds is the file's
    fault: the few-shot probe needs a train row of every class."""
    _, out = trained
    data = tmp_path / "data"
    data.mkdir()
    train = tcld(data / "train.tcld", [20, 12, 0, 6])
    test = tcld(data / "test.tcld", [5, 5, 5, 5], seed=1)
    args = [command, "--config", write_config(tmp_path, extra=f"data.kind = tcld\n"
                                              f"data.path = {train}\ndata.test_path = {test}\n")]
    if command != "train":
        args += ["--checkpoint", str(out / "checkpoint_final.tclp")]
    assert main(args) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {train}: class 2 of the train set has no "
                                       f"rows; the few-shot probe needs a row of every class\n")
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("labels, message", [
    ([0], "the train set holds one class; a long-tail train set needs 2 or more"),
    ([0, 1, 3], "class 2 of the train set has no rows; the few-shot probe needs a row of "
                "every class"),
], ids=["one-class", "class-2-missing"])
def test_a_cifar_train_file_that_lacks_a_class_exits_2(tmp_path, capsys, labels, message):
    """Classes run from 0 to a CIFAR file's largest label; a file that lacks
    one is at fault, whatever data.n_max asks of it."""
    recs = np.frombuffer(cifar10_fixture_bytes(n=40, seed=3), np.uint8).reshape(40, -1).copy()
    recs[:, 0] = np.resize(labels, 40)
    train, test = tmp_path / "train.bin", tmp_path / "test.bin"
    train.write_bytes(recs.tobytes())
    test.write_bytes(cifar10_fixture_bytes(n=20, seed=4))
    config = write_config(tmp_path, text=TINY.replace("data.n_max = 20", "data.n_max = 8"),
                          extra=f"data.kind = cifar10\ndata.path = {train}\n"
                                f"data.test_path = {test}\n")
    assert main(["train", "--config", config]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {train}: {message}\n"
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("test_set, code, message", [
    (dict(class_sizes=[5, 5, 5, 5], dim=16), EXIT_DATA,
     "test set width 16 does not match the train set's width 8"),
    (dict(class_sizes=[0, 0, 0, 0]), EXIT_CONFIG, "config error: the test set has no rows"),
], ids=["other-width", "no-rows"])
@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_test_set_a_snapshot_cannot_score_is_refused(trained, tmp_path, capsys, command,
                                                      test_set, code, message):
    _, out = trained
    data = tmp_path / "data"
    data.mkdir()
    train = tcld(data / "train.tcld", [20, 12, 8, 6])
    test = tcld(data / "test.tcld", seed=1, **test_set)
    args = [command, "--config", write_config(tmp_path, extra=f"data.kind = tcld\n"
                                              f"data.path = {train}\ndata.test_path = {test}\n")]
    if command != "train":
        args += ["--checkpoint", str(out / "checkpoint_final.tclp")]
    assert main(args) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["path", "test_path"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_non_finite_feature_exits_2(trained, tmp_path, capsys, command, where, value):
    _, out = trained
    data = tmp_path / "data"
    data.mkdir()
    files = {"path": tcld(data / "train.tcld", [20, 12, 8, 6]),
             "test_path": tcld(data / "test.tcld", [5, 5, 5, 5], seed=1)}
    ds = load_dataset(files[where])
    ds.features[3, 2] = value
    save_dataset(ds, files[where])
    args = [command, "--config", write_config(tmp_path, extra=f"data.kind = tcld\n"
                                              f"data.path = {files['path']}\n"
                                              f"data.test_path = {files['test_path']}\n")]
    if command != "train":
        args += ["--checkpoint", str(out / "checkpoint_final.tclp")]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"data error: {files[where]}: non-finite feature in record 3\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("K", [70_000, 0xFFFFFFFF])
def test_a_tcld_class_count_beyond_u16_labels_exits_2(tmp_path, capsys, K):
    """save_dataset refuses K > 0xFFFF, so such a header is the file's fault:
    70,000 was reported as an empty class, and 0xFFFFFFFF asked np.bincount
    for 32 GiB."""
    data = tmp_path / "data"
    data.mkdir()
    train = tcld(data / "train.tcld", [20, 12, 8, 6])
    test = tcld(data / "test.tcld", [5, 5, 5, 5], seed=1)
    raw = bytearray(train.read_bytes())
    raw[4:8] = struct.pack("<I", K)
    train.write_bytes(bytes(raw))
    args = ["train", "--config", write_config(tmp_path, extra=f"data.kind = tcld\n"
                                              f"data.path = {train}\ndata.test_path = {test}\n")]
    assert main(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (f"data error: {train}: K={K} exceeds the 65535 classes "
                            f"that u16 labels hold\n")
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("D", [0x20000000, 0xFFFFFFFF])
def test_a_tcld_width_no_record_can_hold_exits_2(tmp_path, capsys, D):
    """A record of 2 + 4 * D bytes must fit NumPy's C int; with n = 0 the
    file length alone cannot refuse such a D."""
    data = tmp_path / "data"
    data.mkdir()
    train = data / "train.tcld"
    train.write_bytes(b"TCLD" + struct.pack("<III", 3, D, 0))
    test = tcld(data / "test.tcld", [5, 5, 5], seed=1)
    args = ["train", "--config", write_config(tmp_path, extra=f"data.kind = tcld\n"
                                              f"data.path = {train}\ndata.test_path = {test}\n")]
    assert main(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (f"data error: {train}: D={D} is outside the 1..536870911 "
                            f"features that a record holds\n")
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_a_checkpoint_with_a_zero_width_layer_exits_2(tmp_path, capsys, command):
    checkpoint = tmp_path / "zero.tclp"
    checkpoint.write_bytes(b"TCLP" + struct.pack("<IIII", 0, 1, 32, 0))
    config = write_config(tmp_path, text=TINY.replace("data.dim = 8", "data.dim = 32"))
    output = tmp_path / "eval"
    assert main([command, "--config", config, "--checkpoint", str(checkpoint),
                 "--output", str(output)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (f"data error: {checkpoint}: layer shapes [(32, 0)] do not chain "
                            f"into an encoder of nonzero widths\n")
    assert not output.exists()  # a refused run writes nothing


@pytest.mark.parametrize("name", ["a#1", "a\nb", " a", "a "], ids=["hash", "newline",
                                                                "leading-space", "trailing-space"])
def test_an_output_that_config_resolved_cannot_keep_exits_1(tmp_path, capsys, monkeypatch,
                                                           name):
    """config.resolved writes run.output_dir raw: '#' starts a comment, a
    line break ends the line and the parser strips edge spaces."""
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", write_config(tmp_path), "--output", name]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --output {name!r} holds a '#'")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # nothing written


@pytest.fixture(scope="module")
def cifar100_files(tmp_path_factory):
    """CIFAR-100 train and test files in which all 100 fine classes occur,
    twice per class in the train file and once in the test file."""
    tmp_path = tmp_path_factory.mktemp("cifar100")
    rng = np.random.default_rng(0)
    paths = []
    for name, per_class in (("train.bin", 2), ("test.bin", 1)):
        recs = rng.integers(0, 256, size=(100 * per_class, 3074), dtype=np.uint8)
        recs[:, 0] = rng.integers(0, 20, size=len(recs))
        recs[:, 1] = np.arange(len(recs)) % 100
        (tmp_path / name).write_bytes(recs.tobytes())
        paths.append(tmp_path / name)
    return paths


def cifar100_config(tmp_path, cifar100_files, n_max=2, extra=""):
    train, test = cifar100_files
    text = TINY.replace("data.n_max = 20", f"data.n_max = {n_max}")
    return write_config(tmp_path, text=text, extra=f"data.kind = cifar100\ndata.path = {train}\n"
                                                 f"data.test_path = {test}\n" + extra)


def test_coarse_head_classes_beyond_data_classes_run(tmp_path, cifar100_files):
    # data.classes = 4 describes the synthetic generator, not the 100 loaded classes
    config = cifar100_config(tmp_path, cifar100_files,
                             extra="schedule.coarse = true\nschedule.head_classes = 0,50,99\n")
    assert main(["train", "--config", config]) == 0


def test_coarse_head_class_outside_the_data_exits_1(tmp_path, cifar100_files, capsys):
    config = cifar100_config(tmp_path, cifar100_files,
                             extra="schedule.coarse = true\nschedule.head_classes = 3,100\n")
    assert main(["train", "--config", config]) == EXIT_CONFIG
    assert "config error: schedule.head_classes must lie in [0, 100)" in capsys.readouterr().err


def test_n_max_beyond_the_loaded_class_sizes_exits_1(tmp_path, cifar100_files, capsys):
    config = cifar100_config(tmp_path, cifar100_files, n_max=3)
    assert main(["train", "--config", config]) == EXIT_CONFIG
    assert "config error: data.n_max = 3 does not fit" in capsys.readouterr().err


NARROW_TAP = {
    "hidden-dims-2": TINY.replace("encoder.hidden_dims = 16", "encoder.hidden_dims = 2"),
    "no-hidden-dims-dim-2": (TINY.replace("encoder.hidden_dims = 16", "encoder.hidden_dims =")
                             .replace("data.dim = 8", "data.dim = 2")),
}


@pytest.mark.parametrize("text", NARROW_TAP.values(), ids=NARROW_TAP.keys())
def test_feature_tap_narrower_than_the_pca_exits_1(tmp_path, capsys, text):
    """The PCA dump of every snapshot projects the tap onto 3 components."""
    assert main(["train", "--config", write_config(tmp_path, text=text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: analysis.enable needs a feature tap of at least 3 ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # nothing written


def test_analyze_of_a_checkpoint_with_a_narrow_tap_exits_2(tmp_path, capsys):
    text = NARROW_TAP["hidden-dims-2"] + "analysis.enable = false\n"
    config = write_config(tmp_path, text=text)
    assert main(["train", "--config", config]) == 0
    checkpoint = str(tmp_path / "out" / "checkpoint_final.tclp")
    output = tmp_path / "analyze"
    capsys.readouterr()
    assert main(["analyze", "--config", config, "--checkpoint", checkpoint,
                 "--output", str(output)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "feature tap width 2" in err
    assert err.count("\n") == 1
    assert not output.exists()  # a refused run writes nothing


@pytest.mark.parametrize("where", ["config", "checkpoint", "data.path"])
def test_a_directory_given_as_an_input_file_exits_2(trained, tmp_path, capsys, where):
    config, out = trained
    checkpoint = str(out / "checkpoint_final.tclp")
    folder = tmp_path / "folder"
    folder.mkdir()
    if where == "config":
        config = str(folder)
    elif where == "checkpoint":
        checkpoint = str(folder)
    else:
        config = write_config(tmp_path, extra=f"data.kind = tcld\ndata.path = {folder}\n"
                                              f"data.test_path = {folder}\n")
    output = tmp_path / "eval"
    assert main(["eval", "--config", config, "--checkpoint", checkpoint,
                 "--output", str(output)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not output.exists()  # a refused run writes nothing


def assert_diverges(tmp_path, capsys, base_lr, message, text=TINY):
    """Exit 3 with no NumPy warning (the callers turn warnings into errors)
    and no traceback: stderr is the one exit-3 line."""
    config = write_config(tmp_path, text=text, extra=f"encoder.base_lr = {base_lr}\n")
    assert main(["train", "--config", config]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric divergence: " + message) and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_divergence_exits_3(tmp_path, capsys):
    assert_diverges(tmp_path, capsys, "1e200", "non-finite activations in ")


@pytest.mark.filterwarnings("error")
def test_divergence_at_a_snapshot_exits_3(tmp_path, capsys):
    # one batch per epoch: epoch 0's loss is finite, the snapshot after it diverges
    text = (TINY.replace("run.eval_every = 2", "run.eval_every = 1")
            .replace("batch_size = 16", "batch_size = 32"))
    assert_diverges(tmp_path, capsys, "1e200", "non-finite activations in ", text)


@pytest.mark.filterwarnings("error")
def test_overflowing_norms_exit_3(tmp_path, capsys):
    # the outputs stay finite, but their squared norms overflow
    assert_diverges(tmp_path, capsys, "1e20", "the norm of row 0 overflows")


def preview(tmp_path, capsys, extra=""):
    """The (epoch, tau) rows that schedule-preview prints."""
    capsys.readouterr()
    assert main(["schedule-preview", "--config", write_config(tmp_path, extra=extra)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epoch,tau"
    return [(int(e), float(t)) for e, t in (line.split(",") for line in lines[1:])]


def test_schedule_preview_prints_the_cosine_curve(tmp_path, capsys):
    cfg = parse_config(TINY)
    rows = preview(tmp_path, capsys)
    assert [e for e, _ in rows] == list(range(cfg.run.epochs + 1))
    assert [t for _, t in rows] == [tau_at(cfg.schedule, e) for e, _ in rows]


def test_schedule_preview_under_coarse_supervision_is_nan(tmp_path, capsys):
    """Coarse runs train on per-anchor temperatures; metrics.csv labels tau
    nan, and so does the preview."""
    rows = preview(tmp_path, capsys, extra="schedule.coarse = true\n")
    assert len(rows) == 3 and all(math.isnan(t) for _, t in rows)


def test_gen_data_writes_the_synthetic_sets_that_train_reads(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", config]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved", "dataset.tcld",
                                                      "test.tcld"]
    assert "dataset.tcld: K=4 D=8 n=" in capsys.readouterr().out
    for name, made in zip(["dataset.tcld", "test.tcld"], synthetic_datasets(parse_config(TINY))):
        loaded = load_dataset(out / name)
        np.testing.assert_array_equal(loaded.labels, made.labels)
        np.testing.assert_array_equal(loaded.features, made.features.astype(np.float32))
    runs = tmp_path / "runs"
    runs.mkdir()
    config = write_config(runs, extra=f"data.kind = tcld\ndata.path = {out / 'dataset.tcld'}\n"
                                      f"data.test_path = {out / 'test.tcld'}\n")
    assert main(["train", "--config", config]) == 0
    assert (runs / "out" / "metrics.csv").is_file()
