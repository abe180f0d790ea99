"""One benchmark run: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload htm_txapp --seed 7 \
        --seconds 20 --trace 0

Run it from the repository root.  It prints the run's digests and
counts on a ``DETAIL`` line, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
0 when every output checked out, 1 when some did not, and 2 when it
cannot run at all (no ``src/repro`` next to it, bad arguments).
"""

import compileall
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro package under {src}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # one thread: no BLAS pool next to the interpreter's main thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # bytecode first, so no run's set-up time includes compiling it
    compileall.compile_dir(src / "repro", quiet=1)
    compileall.compile_dir(Path(__file__).parent, quiet=1)
    t_entry = time.perf_counter()
    sys.path[0] = str(ROOT)  # the package, not this script's directory
    sys.path.insert(1, str(src))
    from benchmarks.e2e.cli import bench_main

    return bench_main(sys.argv[1:], t_entry=t_entry)


if __name__ == "__main__":
    sys.exit(main())
