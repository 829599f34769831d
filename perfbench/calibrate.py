"""Fixed CPU work that measures how fast the machine is running right now.

On a shared machine the speed available to one process drifts by half or
more over minutes as other tenants load it, and every op of a run slows
with it. The benchmark times this loop between ops, in its own process
while no op runs, and scales its time metrics by REFERENCE_S over the
run's median loop time, so runs made in slow and fast phases compare.

The loop mixes the kinds of work the program does: hashing short strings
in Python (the hash embedder), small numpy reductions in a Python loop
(per-row diversity metrics) and a float32-to-float64 cast with a
matrix-vector product over a few MB (retrieval). Changing this file
changes the scale of every time metric, so it must stay fixed.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Median loop time on the machine where the benchmark was defined (2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.164

_TEXT = "gut microbiome Alzheimer's disease Faecalibacterium prausnitzii " * 20
_GRAMS = [_TEXT[i:i + 3].encode() for i in range(len(_TEXT) - 2)]
_rng = np.random.default_rng(0)
_ROWS = _rng.random((150, 64))
_ROW = _rng.random(64)
_MATRIX = _rng.random((800, 1536)).astype(np.float32)
_QUERY = _rng.random(1536)


def calibrate() -> float:
    """Seconds taken by one pass of the fixed work."""
    start = time.perf_counter()
    acc = 0
    for _ in range(100):
        for gram in _GRAMS:
            digest = hashlib.blake2b(gram, digest_size=8).digest()
            acc ^= int.from_bytes(digest, "little") % 1536
    total = 0.0
    for _ in range(24):
        for row in _ROWS:
            total += float(np.abs(row - _ROW).sum() / (row + _ROW).sum())
    for _ in range(48):
        total += float((_MATRIX.astype(np.float64) @ _QUERY)[0])
    return time.perf_counter() - start
