"""Rerun the five golden configs of ``test_runner`` and rewrite what they pin:
``tests/golden/metrics_<run>.csv`` and ``tests/golden/hashes.json``.

Only a change that moves the outputs on purpose runs it, and that change
says which values moved and why.  For each run it prints the pinned values
that changed against the files it replaces: each ``metrics.csv`` line, the
checkpoint hash and the analysis digest.  From the repository root:

    PYTHONPATH=src python tests/regenerate_goldens.py
"""

import json
import tempfile
from itertools import zip_longest
from pathlib import Path

from tempcl.runner import run_experiment
from test_runner import GOLDEN, RUNS, analysis_digest, config, sha256, write_pixel_data


def moved(old_csv: str, new_csv: str, old: dict, new: dict) -> list:
    """(what, was, now) for each pinned value of one run that changed."""
    lines = zip_longest(old_csv.splitlines(), new_csv.splitlines(), fillvalue="")
    out = [(f"metrics.csv line {i}", a, b) for i, (a, b) in enumerate(lines, 1) if a != b]
    return out + [(key, old.get(key, ""), new[key]) for key in new if old.get(key) != new[key]]


def main() -> None:
    hashes_path = GOLDEN / "hashes.json"
    old_hashes = json.loads(hashes_path.read_text()) if hashes_path.exists() else {}
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = write_pixel_data(Path(tmp))
        for name, overrides in RUNS.items():
            out_dir = Path(tmp) / name
            run_experiment(config(out_dir, data_dir, **overrides))
            golden = GOLDEN / f"metrics_{name}.csv"
            old_csv = golden.read_text() if golden.exists() else ""
            golden.write_bytes((out_dir / "metrics.csv").read_bytes())
            new_csv = golden.read_text()
            hashes[name] = {"checkpoint": sha256(out_dir / "checkpoint_final.tclp"),
                            "analysis": analysis_digest(out_dir)}
            changes = moved(old_csv, new_csv, old_hashes.get(name, {}), hashes[name])
            print(f"{name}: {len(changes) or 'no'} pinned value(s) moved")
            for what, was, now in changes:
                print(f"  {what}: {was or '(none)'} -> {now or '(none)'}")
    hashes_path.write_text(json.dumps(hashes, indent=2) + "\n")


if __name__ == "__main__":
    main()
