"""Regenerate the reference outputs and compare them byte for byte.

    python3 reference/compare.py            # regenerate, compare, exit 1 on any difference
    python3 reference/compare.py --write    # overwrite the committed references

Each output is made by one in-process `eitgate.cli.main` call on the sources
under `src/`, written with `--out` into a temporary directory, and compared
with the file of the same name next to this script.  Every command appears
in at least one of the two output formats; the two-point sweep holds one
failed (NotAttainable) row.  A change that moves a
number on purpose regenerates the files with `--write` and says why in
`CHANGES.md`.  The fig2 sweep dominates the run time.  All ten cases share
one process, so the later cases read the mode-b Poisson windows that the
earlier ones memoized (`coherent_gate._window`); their outputs are the same
either way.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from eitgate.cli import main  # noqa: E402

ONE_QUBIT_CONFIG = {"constraints": {"mode": "one-qubit"}}
TWO_POINT_CONFIG = {"constraints": {"alpha_b_range": [1, 30]},
                    "sweep": {"quantity": "delta_target", "values": [0.001, 0.2]}}

# file name -> CLI arguments (before --out); "{one_qubit}" and "{two_point}"
# are config paths
CASES = {
    "eval.json": ["eval"],
    "check-oracle.json": ["check-oracle"],
    "design-delta0.2-s1.json": ["design", "--delta", "0.2", "--suppression", "1"],
    "design-delta0.2-s1e-3.json": ["design", "--delta", "0.2", "--suppression", "1e-3"],
    "design-1q-gamma10-1e-6.json": ["design", "--gamma10", "1e-6",
                                    "--config", "{one_qubit}"],
    "fig2.csv": ["sweep", "--config", str(ROOT / "configs" / "fig2.json"),
                 "--format", "csv"],
    "eval.csv": ["eval", "--format", "csv"],
    "check-oracle.csv": ["check-oracle", "--format", "csv"],
    "design-gamma10-1e-6.csv": ["design", "--gamma10", "1e-6", "--format", "csv"],
    "sweep-two-point.json": ["sweep", "--config", "{two_point}", "--format", "json"],
}


def generate(out_dir: Path) -> None:
    one_qubit = out_dir / "one-qubit-config.json"
    one_qubit.write_text(json.dumps(ONE_QUBIT_CONFIG))
    two_point = out_dir / "two-point-config.json"
    two_point.write_text(json.dumps(TWO_POINT_CONFIG))
    for name, args in CASES.items():
        argv = [a.format(one_qubit=one_qubit, two_point=two_point) for a in args]
        start = time.perf_counter()
        code = main(argv + ["--out", str(out_dir / name)])
        print(f"{name}: exit {code}, {time.perf_counter() - start:.1f} s", flush=True)
        if code != 0:
            raise SystemExit(f"{name}: eitgate exited {code}")


def run(write: bool) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        generate(tmp)
        if write:
            for name in CASES:
                shutil.copyfile(tmp / name, HERE / name)
            print(f"wrote {len(CASES)} references to {HERE}")
            return 0
        differ = [name for name in CASES
                  if not (HERE / name).exists()
                  or not filecmp.cmp(tmp / name, HERE / name, shallow=False)]
    for name in differ:
        print(f"DIFFERS: {name}")
    print("all identical" if not differ else f"{len(differ)} of {len(CASES)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed references instead of comparing")
    sys.exit(run(parser.parse_args().write))
