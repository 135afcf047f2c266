#!/usr/bin/env python3
"""Time the two sparse SpMM kernels of ``autodiff._spmm_data`` side by side.

Prints one row per (nnz, d): the best time of ``_spmm_data`` with the
row-major gather + 2-D ``reduceat`` kernel, with the column-major segmented
sum, and their ratio. Each kernel is chosen by setting
``autodiff._SEGMENT_SUM_MIN_NNZ`` past or below the matrix's nnz, so the
timed code is the shipped function. The threshold is read off this table: the
first nnz from which the column-major kernel is faster at every d.

Matrices are random ``sym_normalize``d square patterns with mean degree 8,
sparse enough (fill <= 3.2%) that the dense dispatch never takes them. BLAS is
pinned to one thread, like the benchmark. numpy and the stdlib only.

    python scripts/spmm_crossover.py [--repeats 7]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scalegraph import autodiff  # noqa: E402
from scalegraph.sparse import SparseMatrix, sym_normalize  # noqa: E402

NNZ = (2_000, 4_000, 6_000, 8_000, 12_000, 16_000, 64_000, 250_000, 1_000_000)
WIDTHS = (16, 32, 64)
DEGREE = 8


def random_normalized(rng, nnz):
    n = max(2, nnz // DEGREE)
    src = rng.integers(0, n, size=nnz)
    dst = rng.integers(0, n, size=nnz)
    return sym_normalize(SparseMatrix.from_edges(n, src, dst))


def best_time(s, x, min_nnz, repeats):
    """Best of ``repeats`` calls of ``_spmm_data`` under the given threshold."""
    saved = autodiff._SEGMENT_SUM_MIN_NNZ
    autodiff._SEGMENT_SUM_MIN_NNZ = min_nnz
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            autodiff._spmm_data(s, x)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        autodiff._SEGMENT_SUM_MIN_NNZ = saved


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7, help="best of this many calls")
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'nnz':>9} {'d':>3} {'row-major ms':>13} {'col-major ms':>13} {'speed-up':>9}")
    for target in NNZ:
        s = random_normalized(rng, target)
        for d in WIDTHS:
            x = rng.normal(size=(s.n_cols, d))
            old = best_time(s, x, s.nnz + 1, args.repeats)
            new = best_time(s, x, 0, args.repeats)
            print(f"{s.nnz:>9} {d:>3} {old * 1e3:>13.3f} {new * 1e3:>13.3f} {old / new:>8.2f}x")


if __name__ == "__main__":
    main()
