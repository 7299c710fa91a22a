import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
