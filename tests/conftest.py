import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import evolvesurf
from evolvesurf import make_chart, make_diffusion, make_grid


def pytest_configure(config):
    """Hypothesis caches the constants of local source files in its home
    directory, ``.hypothesis/`` under the working directory by default; keep
    that cache in the temporary directory instead of the working tree."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "evolvesurf-hypothesis")


@pytest.fixture
def unit_grid():
    return make_grid((0.0, 1.0, 0.0, 1.0), 16, 16)


@pytest.fixture
def flat():
    return make_chart("flat_static", horizon=1.0)


@pytest.fixture
def iso():
    return make_chart("isotropic_scaling", horizon=1.0, gamma=1.0)


@pytest.fixture
def graph():
    return make_chart("graph_oscillation", horizon=3.0, epsilon=0.05, omega=1.0)


@pytest.fixture
def const_kappa():
    return make_diffusion("constant", value=1.0)


@pytest.fixture
def eigenmode():
    def build(grid):
        X1, X2 = grid.interior_mesh()
        return (np.sin(np.pi * X1) * np.sin(np.pi * X2)).ravel()
    return build


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) -> list that collects the positional arguments
    of every call to that function, at every binding site in the package."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("evolvesurf"):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counting)
        return calls

    return install


def _ndof_allocations(call, ndof):
    """(call(), the number of ndof-sized float64 blocks tracemalloc sees it allocate).

    Every bytecode step of ``call`` and of the Python functions it calls is
    traced.  A step whose traced memory peaks r bytes above where it began
    allocated r // (8 ndof) blocks, kept or freed within the step: a binary
    operation on rows counts one, an (n1+2) x (n2+2) padded field one, an
    8 x ndof array eight.  The count repeats exactly from run to run.
    """
    block = 8 * ndof
    count = 0
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        current, peak = tracemalloc.get_traced_memory()
        count += (peak - base[0]) // block
        tracemalloc.reset_peak()
        base[0] = current
        return trace

    base = [tracemalloc.get_traced_memory()[0]]
    tracemalloc.reset_peak()
    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(outer)
        current, peak = tracemalloc.get_traced_memory()
        count += (peak - base[0]) // block
        if started:
            tracemalloc.stop()
    return result, count


@pytest.fixture
def ndof_allocations():
    """ndof_allocations(call, ndof) -> (call(), ndof-sized blocks it allocates); see
    ``_ndof_allocations``."""
    return _ndof_allocations


def count_matmul_madds(patch):
    """List that records, through the MonkeyPatch ``patch``, the multiply-adds
    of every ``np.matmul`` call, counted from its operand shapes: a product
    (..., a, b) @ (..., b, c) counts a b c for each matrix of its broadcast
    batch.  The sine products of ``operator.SineBasis`` are such calls."""
    madds = []
    matmul = np.matmul

    def counting(x1, x2, *args, **kwargs):
        s1, s2 = np.shape(x1), np.shape(x2)
        batch = math.prod(np.broadcast_shapes(s1[:-2], s2[:-2]))
        madds.append(batch * s1[-2] * s1[-1] * s2[-1])
        return matmul(x1, x2, *args, **kwargs)

    patch.setattr(np, "matmul", counting)
    return madds


def count_sparse_products(patch):
    """Lists that record, through the MonkeyPatch ``patch``, the matrix of
    every DIA and every CSR matrix-vector product: {"dia": [...], "csr": [...]}."""
    products = {}
    for fmt, cls in (("dia", sp.dia_matrix), ("csr", sp.csr_matrix)):
        def counting(self, other, matvec=cls._matmul_vector, seen=products.setdefault(fmt, [])):
            seen.append(self)
            return matvec(self, other)

        patch.setattr(cls, "_matmul_vector", counting)
    return products


# A process's ru_maxrss keeps the peak of the process it was forked from
# across exec, so a CLI forked from the test process would report the test
# process's own peak; a small launcher forks the CLI and reports the CLI's
# ru_maxrss (KiB on Linux) as its only child.
_PEAK_RSS_LAUNCHER = """
import resource, subprocess, sys
status = subprocess.call([sys.executable, "-m", "evolvesurf.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(status)
"""


@pytest.fixture
def cli_peak_rss_mib():
    """cli_peak_rss_mib(argv, timeout) -> peak RSS in MiB of ``evolve-surf *argv``
    run in a fresh interpreter with BLAS pinned to one thread; the run must
    exit 0 within ``timeout`` seconds."""
    src = str(Path(evolvesurf.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(argv, timeout):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) / 1024.0

    return run
