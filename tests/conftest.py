import os

# One BLAS thread, set before numpy loads: the SLSQP oracle of criterion 2
# otherwise spreads over every core, and its time bound then depends on
# what else runs on the host.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
