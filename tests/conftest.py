import ctypes
import glob
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def one_blas_thread():
    """Run the test with the OpenBLAS that numpy bundles on one thread, the
    setting of perfbench/run.py. Bit-for-bit comparisons of products of
    different shapes need it: a threaded GEMM splits its rows among threads
    by the matrix's shape. Without a bundled OpenBLAS the test runs as is."""
    funcs = []
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        dll = ctypes.CDLL(lib)
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        put = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            funcs.append((get, put))
    before = [get() for get, _ in funcs]
    for _, put in funcs:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(funcs, before):
            put(n)
