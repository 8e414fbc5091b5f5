"""Record the golden outputs that `run.py` compares the default seed against.

    python3 bench/record_golden.py [workload ...]

Runs one pass of each workload for the default seed and stores every
output table in golden/<workload>.npz: per operation its argv, header
and rows as float64 (outcome coded up=0, down=1).  Re-record only when
a change is meant to alter the outputs, and say so in the change.
"""

import shutil
import sys

import run


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import checks
    import workloads

    run.GOLDEN.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        rundir = run.ROOT / ".bench_run" / f"golden-{name}"
        rundir.mkdir(parents=True, exist_ok=True)
        try:
            runner = run.Runner(name, run.DEFAULT_SEED, rundir)
            runner.run_pass(run.nproc())
            arrays = {}
            for i, op in enumerate(runner.ops):
                table = checks.parse(runner.out_path(i).read_text())
                arrays[f"{i:02d}.argv"] = np.array(op.argv)
                arrays[f"{i:02d}.header"] = np.array(table.header)
                arrays[f"{i:02d}.rows"] = table.numeric()
            np.savez_compressed(run.GOLDEN / f"{name}.npz", **arrays)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        print(f"{name}: {len(runner.ops)} outputs recorded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
