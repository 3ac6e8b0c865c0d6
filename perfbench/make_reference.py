"""Write the default-seed references of the two pass workloads.

    python3 perfbench/make_reference.py

For each pass workload this runs the default seed once and stores the
s_rad column (one value per epoch) in perfbench/reference/<workload>.s.txt.
The output check compares later runs of that seed to it within the 1e-8 rad
equivalence gate, so regenerate it only when a change of s is intended.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def main() -> int:
    import numpy as np
    from gravlink import cli

    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("pass_analytic", "pass_ephemeris"):
            inputs = workloads.generate(name, workloads.DEFAULT_SEED, Path(tmp) / name)
            out_dir = Path(tmp) / name / "out"
            os.environ["GRAVLINK_OUTPUT_DIR"] = str(out_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["run", str(inputs.config)]) != 0:
                    raise SystemExit(f"{name}: gravlink run failed")
            s = np.loadtxt(out_dir / "pass_sweep.txt", comments="#")[:, 4]
            target = workloads.REFERENCE_DIR / f"{name}.s.txt"
            target.write_text("".join(f"{v:.12e}\n" for v in s), encoding="utf-8")
            print(f"wrote {target.relative_to(BENCH_DIR.parent)} ({s.size} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
