"""Pin BLAS to one thread and describe the machine.

Import this module before numpy: the BLAS libraries read their thread
count from the environment when they load.  One thread is the
single-threaded baseline, and it is steadier than two on a shared
two-CPU machine.  ``rodfield --threads`` cannot do this (without
threadpoolctl it does nothing), so the benchmark sets the variables itself.
"""

import os
import platform

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def describe() -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS}
