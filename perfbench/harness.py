"""Timing, tracing and reporting shared by the benchmark runner and the scaling report.

Nothing here imports numpy at module level, so ``run.py`` can pin the BLAS
thread count before numpy loads.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10


def pin_blas() -> None:
    """Pin every BLAS backend to one thread; call before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4


def keep_heap() -> bool:
    """Make glibc malloc serve every block from its heap and never give
    freed memory back, so that jobs after the warm-up reuse pages that are
    already mapped instead of faulting fresh ones in.

    By default each array over 32 MB gets its own mapping, and a job of
    engine-wide faults in about 160 MB: 0.1 to 0.8 s of kernel time per job
    on a virtual machine, which was most of the job-to-job noise.  Returns
    whether both settings took; False where the C library is not glibc.
    Call before the inputs are built.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, 2**31 - 1))


class Tracer:
    """Spans kept in memory until the run ends.

    Each span records its name, start and end (``perf_counter`` seconds),
    the index of its parent span, the job id current when it opened, size
    counts attached with :meth:`note`, and with ``peak=True`` the
    ``tracemalloc`` peak of the allocations made during the call.  A
    disabled tracer records nothing, so traced and untraced jobs run the
    same code.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job = None
        self._open: list[int] = []
        self._last: dict | None = None

    @contextmanager
    def span(self, name: str, peak: bool = False):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "job": self.job,
               "parent": self._open[-1] if self._open else None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        track = peak and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            if track:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()
            self._last = rec

    def note(self, **lazy_counts) -> None:
        """Attach counts to the span that closed last; values are callables
        evaluated only when tracing, so untraced jobs pay nothing."""
        if self.enabled and self._last is not None:
            self._last["counts"].update({k: fn() for k, fn in lazy_counts.items()})


def call(tracer: Tracer, name: str, fn, *args, peak: bool = False, **kwargs):
    """``fn(*args, **kwargs)`` inside a span named after the layer function."""
    with tracer.span(name, peak=peak):
        return fn(*args, **kwargs)


_PROBE_INPUTS: list = []


def speed_probe() -> float:
    """Seconds taken by a fixed mix of work that uses no factorrisk code:
    a sort and elementwise passes over 2**20 floats, a 256 x 256 matrix
    product, and an interpreted loop."""
    import numpy as np

    if not _PROBE_INPUTS:
        rng = np.random.default_rng(0)
        _PROBE_INPUTS.extend((rng.random(1 << 20), rng.random((256, 256))))
    x, a = _PROBE_INPUTS
    t0 = time.perf_counter()
    np.sort(x)
    (x * 2.0 + 1.0).sum()
    a @ a
    total = 0
    for i in range(200_000):
        total += i
    return time.perf_counter() - t0


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it.

    Returns (value, percentile, count beyond).  With ten or fewer values no
    percentile qualifies and the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, heap_kept=False) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "malloc_heap_kept": heap_kept,
        "git_commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fmt(value: float) -> str:
    if value == 0 or not math.isfinite(value):
        return str(value)
    return f"{value:.4g}"


def eprint(*args) -> None:
    print(*args, file=sys.stderr)
