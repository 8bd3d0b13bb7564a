"""Command-line experiment runner.

Subcommands: ``train`` (full experiment), ``eval --checkpoint`` and
``analyze --checkpoint`` (re-evaluate a saved encoder), ``schedule-preview``
(epoch,tau CSV on stdout), and ``gen-data`` (write the synthetic dataset
files).  Exit codes: 1 for configuration errors, 2 for data errors, 3 for
numeric divergence.  A train file that holds one class, or no row of a
class below its class count (a TCLD header's K, a CIFAR file's largest
label + 1), is a data error.  A config that asks more of a file than it
holds is a configuration error: an ``n_max`` beyond a class's rows, or a
train set below the 3 classes and 10 rows that a snapshot scores.
"""

import argparse
import re
import sys
from pathlib import Path

from tempcl.config import ConfigError, parse_config, render_config
from tempcl.data import DataFormatError, save_dataset, write_atomic
from tempcl.runner import (
    _tau_label,
    analyze_checkpoint,
    eval_checkpoint,
    run_experiment,
    synthetic_datasets,
)

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EPOCH_HELP = "epoch label (default: parsed from the file name, else run.epochs)"


def _add_common(p):
    p.add_argument("--config", help="experiment config file (section.key = value lines)")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--output", help="override run.output_dir")


def _load_config(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except UnicodeDecodeError as err:
        raise ConfigError(f"{args.config} is not UTF-8 text: {err}") from None
    cfg = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg.run.seed = args.seed
    if args.output is not None:
        out = args.output  # config.resolved must parse back to this path
        if "#" in out or out != out.strip() or len(out.splitlines()) > 1:
            raise ConfigError(f"--output {out!r} holds a '#', a line break or edge spaces, "
                              f"which config.resolved cannot keep")
        cfg.run.output_dir = out
    return cfg


def _checkpoint_epoch(cfg, args):
    """--epoch, else the file name's epoch, else run.epochs (checkpoint_final)."""
    if args.epoch is not None:
        if args.epoch < 0:
            raise ConfigError(f"--epoch must be >= 0, got {args.epoch}")
        return args.epoch
    m = re.search(r"epoch(\d+)", Path(args.checkpoint).name)
    return int(m.group(1)) if m else cfg.run.epochs


def cmd_train(args) -> int:
    run_experiment(_load_config(args))
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    epoch = _checkpoint_epoch(cfg, args)
    rows = eval_checkpoint(cfg, args.checkpoint, epoch)
    for metric, scope, value in rows:
        if scope == "all":
            print(f"{metric} = {value!r}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    epoch = _checkpoint_epoch(cfg, args)
    cv = analyze_checkpoint(cfg, args.checkpoint, epoch)
    print(f"coverage_cv = {cv!r}")
    return 0


def cmd_schedule_preview(args) -> int:
    cfg = _load_config(args)
    print("epoch,tau")
    for t in range(cfg.run.epochs + 1):
        print(f"{t},{_tau_label(cfg, t)!r}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.resolved", render_config(cfg))
    train, test = synthetic_datasets(cfg)
    save_dataset(train, out_dir / "dataset.tcld")
    save_dataset(test, out_dir / "test.tcld")
    print(f"dataset.tcld: K={train.num_classes} D={train.dim} n={train.n}")
    print(f"test.tcld: K={test.num_classes} D={test.dim} n={test.n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempcl",
        description="Contrastive learning with dynamic temperature schedules on long-tail data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a full experiment")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epoch", type=int, help=EPOCH_HELP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="analysis dumps for a saved checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epoch", type=int, help=EPOCH_HELP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("schedule-preview", help="emit the epoch,tau schedule as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_schedule_preview)

    p = sub.add_parser("gen-data", help="write the synthetic dataset files")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
