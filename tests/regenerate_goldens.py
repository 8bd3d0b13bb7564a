"""Rerun the five golden configs of ``test_runner`` and rewrite what they pin:
``tests/golden/metrics_<run>.csv`` and ``tests/golden/hashes.json``.

Only a change that moves the outputs on purpose runs it, and that change
says which values moved and why.  From the repository root:

    PYTHONPATH=src python tests/regenerate_goldens.py
"""

import json
import tempfile
from pathlib import Path

from tempcl.runner import run_experiment
from test_runner import GOLDEN, RUNS, analysis_digest, config, sha256, write_pixel_data


def main() -> None:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = write_pixel_data(Path(tmp))
        for name, overrides in RUNS.items():
            out_dir = Path(tmp) / name
            run_experiment(config(out_dir, data_dir, **overrides))
            (GOLDEN / f"metrics_{name}.csv").write_bytes((out_dir / "metrics.csv").read_bytes())
            hashes[name] = {"checkpoint": sha256(out_dir / "checkpoint_final.tclp"),
                            "analysis": analysis_digest(out_dir)}
            print(f"{name}: {hashes[name]['checkpoint']}")
    (GOLDEN / "hashes.json").write_text(json.dumps(hashes, indent=2) + "\n")


if __name__ == "__main__":
    main()
