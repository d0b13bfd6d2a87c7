"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: the BLAS thread count is
read from the environment when the library loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: the operators are desk-scale (at most 256x256 dense), so
# threading adds scheduling noise without speed-up, and the count never
# exceeds the number of cores.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/monosplit`` to benchmark."""


def prepare():
    """Pin BLAS threads and the process to one CPU; import ``src/monosplit``.

    Every process started later inherits the CPU, so the calibration sampler
    (``calibration.SpeedSampler``) times the core the program runs on.
    """
    if not (SRC / "monosplit" / "__init__.py").is_file():
        raise MissingProgram(f"no monosplit package under {SRC}")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
