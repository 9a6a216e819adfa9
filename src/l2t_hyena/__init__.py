"""Adaptive-loss training engine for a gated long-convolution language model.

Subpackages: ``corpus`` (data), ``hyena`` (student model), ``dln`` (dynamic
loss network), ``teacher`` (memory-augmented loss predictor), ``trainer``
(optimizers and the training loop), ``cli`` (commands and metrics export).

Importing the package pins glibc's heap thresholds for the whole process, an
importing application included: ``mmap`` from 32 MiB, trim only above 64 MiB
free. The memory one step frees then stays mapped for the next instead of
being faulted back in page by page: under glibc's defaults an L=1024 training
step takes 9k-14k minor faults, with these none. Peak RSS is unchanged;
between steps the heap may keep up to 64 MiB free. On any other C library
this does nothing.
"""

import ctypes
import os

__version__ = "0.1.0"


def _pin_heap_thresholds() -> None:
    # M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), at the ceilings glibc's
    # own dynamic thresholds reach on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX, twice it).
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, name or value: not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


_pin_heap_thresholds()
