"""End-to-end and per-layer benchmark of the compile → estimate → DEM → sample → decode pipeline.

Run it through ``perfbench/run.py``; ``BENCHMARK.json`` at the repository
root declares the workloads and every metric's name, unit and direction.
"""

#: Thread-pool knobs of the numeric libraries; ``run.py`` caps each at nproc
#: before numpy is imported, and every result records their values.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
