"""Seeded mutation test of the TCLD and TCLP readers through the CLI.

Each valid file is mutated by byte flips, header fields set to 0 and
0xFFFFFFFF (each also resized to the length the new header implies, where
that stays small), truncation and trailing bytes.  Every mutant, run
through ``tempcl.cli.main`` in-process, must end with a documented exit code
and at most one line on stderr, and a failed command must leave no
``metrics.csv`` or ``eval_epoch*.csv`` behind."""

import struct

import numpy as np
import pytest

from tempcl.cli import main
from test_cli import TINY, tcld, write_config

N_FLIPS = 40


def tcld_length(raw):
    D, n = struct.unpack("<II", raw[8:16])
    return 16 + n * (2 + 4 * D)


def tclp_length(raw):
    n_layers = sum(struct.unpack("<II", raw[4:12]))
    off = 12 + 8 * n_layers
    if off > len(raw):
        return None
    return off + sum(8 * (d_in + 1) * d_out for d_in, d_out in struct.iter_unpack("<II", raw[12:off]))


def mutants(raw, header_bytes, implied_length, seed):
    """(name, bytes) pairs of mutated copies of ``raw``, whose first
    ``header_bytes`` bytes are u32 fields after the 4-byte magic."""
    rng = np.random.default_rng(seed)
    for off in range(4, header_bytes, 4):
        for value in (0, 0xFFFFFFFF):
            m = raw[:off] + struct.pack("<I", value) + raw[off + 4:]
            yield f"u32@{off}={value:#x}", m
            length = implied_length(m)
            if length is not None and length != len(m) and length <= 2 * len(raw):
                yield f"u32@{off}={value:#x}-resized", (m + bytes(length))[:length]
    for i in range(N_FLIPS):
        # half of the flips land in the header
        pos = int(rng.integers(header_bytes if i % 2 else len(raw)))
        m = bytearray(raw)
        m[pos] ^= int(rng.integers(1, 256))
        yield f"flip@{pos}", bytes(m)
    for cut in (0, 4, header_bytes - 1, header_bytes, len(raw) // 2, len(raw) - 1):
        yield f"cut{cut}", raw[:cut]
    yield "trailing", raw + rng.bytes(int(rng.integers(1, 9)))


def run_case(capsys, name, args, output):
    capsys.readouterr()
    try:
        code = main(args + ["--output", str(output)])
    except Exception as err:  # a traceback at the command line
        pytest.fail(f"{name}: {type(err).__name__}: {err}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), name
    assert err.count("\n") <= 1, f"{name}: {err}"
    if code != 0:
        assert not (output / "metrics.csv").exists(), name
        assert not list(output.glob("eval_epoch*.csv")), name


def test_mutated_train_tcld(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    train = tcld(data / "train.tcld", [20, 12, 8, 6])
    test = tcld(data / "test.tcld", [5, 5, 5, 5], seed=1)
    raw = train.read_bytes()
    for i, (name, m) in enumerate(mutants(raw, 16, tcld_length, seed=0)):
        path = data / f"m{i}.tcld"
        path.write_bytes(m)
        config = write_config(tmp_path, extra=f"data.kind = tcld\ndata.path = {path}\n"
                                              f"data.test_path = {test}\n")
        run_case(capsys, name, ["train", "--config", config], tmp_path / f"out{i}")


def test_mutated_checkpoint(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", config]) == 0
    raw = (tmp_path / "out" / "checkpoint_final.tclp").read_bytes()
    n_layers = sum(struct.unpack("<II", raw[4:12]))
    for i, (name, m) in enumerate(mutants(raw, 12 + 8 * n_layers, tclp_length, seed=1)):
        path = tmp_path / f"m{i}.tclp"
        path.write_bytes(m)
        for command in ("eval", "analyze"):
            run_case(capsys, f"{command} {name}",
                     [command, "--config", config, "--checkpoint", str(path)],
                     tmp_path / f"{command}{i}")
