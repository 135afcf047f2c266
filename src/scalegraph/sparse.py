"""CSR sparse-matrix kernels for directed-graph adjacency algebra.

Everything here is exact and deterministic: matrices are immutable CSR with
sorted, deduplicated column indices, so structural equality and the pattern
set-algebra (union / intersection / difference) are well defined. Values are
float64; a "pattern" matrix stores 1.0 for every structural entry.
"""

import weakref

import numpy as np

__all__ = [
    "SparseMatrix",
    "transpose",
    "link_transposes",
    "spgemm",
    "pattern_union",
    "pattern_intersection",
    "pattern_difference",
    "add_self_loops",
    "remove_self_loops",
    "degrees",
    "sym_normalize",
    "parse_edge_list",
    "format_edge_list",
    "parse_coordinate_text",
    "format_coordinate_text",
]


class SparseMatrix:
    """Immutable CSR matrix.

    Invariants (checked at construction):
      * ``row_offsets`` is non-decreasing, starts at 0, ends at nnz;
      * column indices are strictly increasing within each row;
      * all column indices are < ``n_cols`` and all values are finite.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values", "_t_cache",
                 "__weakref__")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._t_cache = None
        self._check()
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.flags.writeable = False

    def _check(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative matrix dimension")
        off = self.row_offsets
        if off.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if off[0] != 0 or off[-1] != len(self.col_indices):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(self.values) != len(self.col_indices):
            raise ValueError("values and col_indices length mismatch")
        if len(self.col_indices):
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row <=> no duplicates, sorted
            inner = np.diff(self.col_indices)
            row_starts = off[1:-1]
            check = np.ones(len(inner), dtype=bool)
            boundary = row_starts[(row_starts > 0) & (row_starts < len(self.col_indices))] - 1
            check[boundary] = False  # diffs that straddle a row boundary are unconstrained
            if not np.all(inner[check] > 0):
                raise ValueError("column indices must be strictly increasing within rows")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_coo(n_rows, n_cols, rows, cols, values=None):
        """Build from coordinate data; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if values is None:
            values = np.ones(len(rows))
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols, values must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        keys = rows * np.int64(n_cols) + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        uniq, start = np.unique(keys, return_index=True)
        summed = np.add.reduceat(values, start) if len(values) else values
        return _from_sorted_keys(n_rows, n_cols, uniq, summed)

    @staticmethod
    def from_edges(n, src, dst):
        """Pattern adjacency from directed edge endpoints; duplicates collapse to 1."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError("edge endpoint out of range")
        keys = _sorted_unique(src * np.int64(n) + dst)
        return _from_sorted_keys(n, n, keys, np.ones(len(keys)))

    @staticmethod
    def from_dense(arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(arr)
        return SparseMatrix.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @staticmethod
    def identity(n):
        idx = np.arange(n, dtype=np.int64)
        return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @staticmethod
    def empty(n_rows, n_cols):
        return SparseMatrix(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64), [], [])

    # -- views -------------------------------------------------------------

    @property
    def nnz(self):
        return len(self.col_indices)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def is_square(self):
        return self.n_rows == self.n_cols

    def row(self, i):
        """Column indices of row ``i``."""
        return self.col_indices[self.row_offsets[i]:self.row_offsets[i + 1]]

    def pattern(self):
        """Same support with all values set to 1."""
        return SparseMatrix(self.n_rows, self.n_cols, self.row_offsets,
                            self.col_indices, np.ones(self.nnz))

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out

    def diagonal(self):
        """Main diagonal in O(nnz); None for a non-square matrix."""
        if not self.is_square():
            return None
        out = np.zeros(self.n_rows)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        on_diag = rows == self.col_indices
        out[rows[on_diag]] = self.values[on_diag]
        return out

    def _keys(self):
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))
        return rows * np.int64(self.n_cols) + self.col_indices

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.row_offsets, other.row_offsets)
                and np.array_equal(self.col_indices, other.col_indices)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.nnz))

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def _sorted_unique(keys):
    """Sorted distinct values of an integer array.

    Not ``np.unique``: numpy 2.4's hashes, then sorts, and took 0.8 s on
    1M int64 keys where this takes 15 ms.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _from_sorted_keys(n_rows, n_cols, keys, values):
    """CSR from flat keys ``row * n_cols + col`` that are sorted and unique."""
    keys = np.asarray(keys, dtype=np.int64)
    rows = keys // n_cols
    cols = keys % n_cols
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return SparseMatrix(n_rows, n_cols, offsets, cols, values)


# -- kernels ---------------------------------------------------------------


# ``_t_cache`` marker of a matrix that is its own transpose; storing the matrix
# itself there would make a reference cycle that only the cyclic collector frees
_SYMMETRIC = object()


def transpose(s: SparseMatrix) -> SparseMatrix:
    """Exact CSR transpose, memoized.

    A matrix marked symmetric, or found equal to its transpose, is returned
    itself, so it keeps one CSR copy. A matrix linked by ``link_transposes``
    returns its partner while the partner lives. Otherwise the transpose is
    sorted (``_sorted_transpose``) and kept.
    """
    cached = s._t_cache
    if cached is _SYMMETRIC:
        return s
    if isinstance(cached, weakref.ref):
        cached = cached()
    if cached is not None:
        return cached
    out = _sorted_transpose(s)
    if out == s:
        s._t_cache = _SYMMETRIC
        return s
    s._t_cache = out
    return out


def _sorted_transpose(s):
    """A sort of the unique keys ``col * n_rows + row``."""
    rows = np.repeat(np.arange(s.n_rows, dtype=np.int64), np.diff(s.row_offsets))
    # the keys are unique, so every sort kind gives this one permutation
    order = np.argsort(s.col_indices * np.int64(s.n_rows) + rows)
    offsets = np.zeros(s.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(s.col_indices, minlength=s.n_cols), out=offsets[1:])
    return SparseMatrix(s.n_cols, s.n_rows, offsets, rows[order], s.values[order])


def link_transposes(s: SparseMatrix, t: SparseMatrix) -> None:
    """Record ``t`` as the exact transpose of ``s`` and ``s`` as that of ``t``; nothing is
    checked but the shapes, so the caller vouches for every bit.

    ``link_transposes(s, s)`` marks ``s`` symmetric. Otherwise each matrix holds the
    other through a weak reference, which forms no reference cycle: when one is
    freed, ``transpose`` of the other sorts again.
    """
    if s.shape != t.shape[::-1]:
        raise ValueError(f"shapes {s.shape} and {t.shape} are not transposes")
    if s is t:
        s._t_cache = _SYMMETRIC
    else:
        s._t_cache, t._t_cache = weakref.ref(t), weakref.ref(s)


# A row block of ``spgemm`` expands at most this many products (8 MB per int64
# array), unless one row alone has more and gets a block to itself.
_SPGEMM_MAX_PRODUCTS = 1 << 20


def spgemm(a: SparseMatrix, b: SparseMatrix, semiring: str = "counted") -> SparseMatrix:
    """Sparse-sparse product: Gustavson's row-wise product over blocks of rows.

    Each block expands every product ``a_ik * b_kj`` of its rows at once and
    finds its sorted output keys ``row * n_cols + col`` by sorting the
    products' keys and dropping repeats. A block is bounded by a product
    budget and holds at least one row.

    ``counted`` gives the exact real product; each entry sums its terms in the
    order of ``a``'s entries, starting from 0.0. ``pattern`` gives its
    structural support with all values 1. Structural zeros that arise from
    numerical cancellation are kept, so both semirings always share the same
    support.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    if semiring not in ("counted", "pattern"):
        raise ValueError(f"unknown semiring: {semiring!r}")
    n_rows, n_cols = a.n_rows, b.n_cols
    counted = semiring == "counted"
    b_len = np.diff(b.row_offsets)
    # products up to the end of each entry of a, and before each row of a
    entry_end = np.cumsum(b_len[a.col_indices])
    row_start = np.concatenate(([0], entry_end))[a.row_offsets]
    out_keys, out_vals = [], []
    r0 = 0
    while r0 < n_rows:
        # rows [r0, r1) fit the product budget; a hub row gets a block alone
        r1 = int(np.searchsorted(row_start, row_start[r0] + _SPGEMM_MAX_PRODUCTS,
                                 side="right")) - 1
        r1 = min(n_rows, max(r0 + 1, r1))
        lo, hi = a.row_offsets[r0], a.row_offsets[r1]
        n_prod = int(row_start[r1] - row_start[r0])
        if n_prod:
            k = a.col_indices[lo:hi]
            lens = b_len[k]
            # position in b of every product, in (entry of a, entry of b) order
            shift = b.row_offsets[k] - (entry_end[lo:hi] - lens - row_start[r0])
            bpos = np.repeat(shift, lens) + np.arange(n_prod, dtype=np.int64)
            rows = np.repeat(np.arange(r1 - r0, dtype=np.int64), np.diff(row_start[r0:r1 + 1]))
            keys = rows * np.int64(n_cols) + b.col_indices[bpos]
            uniq = _sorted_unique(keys)
            if counted:
                terms = np.repeat(a.values[lo:hi], lens) * b.values[bpos]
                # bincount adds each cell's terms in array order, from 0.0
                out_vals.append(np.bincount(np.searchsorted(uniq, keys), weights=terms,
                                            minlength=len(uniq)))
            out_keys.append(uniq + np.int64(r0) * n_cols)
        r0 = r1
    keys = np.concatenate(out_keys) if out_keys else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(out_vals) if counted and out_vals else np.ones(len(keys))
    return _from_sorted_keys(n_rows, n_cols, keys, vals)


def _require_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def pattern_union(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Set-union of supports, values 1."""
    _require_same_shape(a, b)
    keys = _sorted_unique(np.concatenate([a._keys(), b._keys()]))
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, np.ones(len(keys)))


def pattern_intersection(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Set-intersection of supports, values 1."""
    _require_same_shape(a, b)
    keys = np.intersect1d(a._keys(), b._keys(), assume_unique=True)
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, np.ones(len(keys)))


def pattern_difference(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Support of ``a`` minus support of ``b``, values 1."""
    _require_same_shape(a, b)
    keys = np.setdiff1d(a._keys(), b._keys(), assume_unique=True)
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, np.ones(len(keys)))


def add_self_loops(s: SparseMatrix) -> SparseMatrix:
    """Set every diagonal entry to 1 (pattern semantics, existing diagonal overwritten)."""
    if not s.is_square():
        raise ValueError("self-loop ops require a square matrix")
    n = s.n_rows
    keys = s._keys()
    rows = keys // n
    cols = keys % n
    off_diag = rows != cols
    diag_keys = np.arange(n, dtype=np.int64) * n + np.arange(n, dtype=np.int64)
    all_keys = np.concatenate([keys[off_diag], diag_keys])
    all_vals = np.concatenate([s.values[off_diag], np.ones(n)])
    order = np.argsort(all_keys)
    return _from_sorted_keys(n, n, all_keys[order], all_vals[order])


def remove_self_loops(s: SparseMatrix) -> SparseMatrix:
    """Drop all diagonal entries."""
    if not s.is_square():
        raise ValueError("self-loop ops require a square matrix")
    keys = s._keys()
    keep = (keys // s.n_rows) != (keys % s.n_rows)
    return _from_sorted_keys(s.n_rows, s.n_cols, keys[keep], s.values[keep])


def degrees(s: SparseMatrix, axis: str = "row") -> np.ndarray:
    """Structural nonzero counts per row (out-degrees of A) or column (in-degrees)."""
    if axis == "row":
        return np.diff(s.row_offsets)
    if axis == "col":
        return np.bincount(s.col_indices, minlength=s.n_cols)
    raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")


def sym_normalize(s: SparseMatrix, selfloop_mode: str = "keep") -> SparseMatrix:
    """Scale entry (i, j) by 1/sqrt(rowsum_i * colsum_j) after applying the self-loop mode.

    Rows or columns with zero weight stay zero instead of dividing by zero;
    isolated nodes therefore aggregate to the zero vector.
    """
    if not s.is_square():
        raise ValueError("normalization requires a square matrix")
    if np.any(s.values < 0):
        raise ValueError("normalization requires non-negative values")
    s = apply_selfloop_mode(s, selfloop_mode)
    rows = np.repeat(np.arange(s.n_rows, dtype=np.int64), np.diff(s.row_offsets))
    row_sum = np.bincount(rows, weights=s.values, minlength=s.n_rows)
    col_sum = np.bincount(s.col_indices, weights=s.values, minlength=s.n_cols)
    with np.errstate(divide="ignore"):
        r_inv = np.where(row_sum > 0, 1.0 / np.sqrt(row_sum), 0.0)
        c_inv = np.where(col_sum > 0, 1.0 / np.sqrt(col_sum), 0.0)
    vals = s.values * r_inv[rows] * c_inv[s.col_indices]
    return SparseMatrix(s.n_rows, s.n_cols, s.row_offsets, s.col_indices, vals)


def apply_selfloop_mode(s: SparseMatrix, mode: str) -> SparseMatrix:
    if mode == "keep":
        return s
    if mode == "add":
        return add_self_loops(s)
    if mode == "remove":
        return remove_self_loops(s)
    raise ValueError(f"selfloop mode must be 'add', 'remove' or 'keep', got {mode!r}")


# -- text formats ----------------------------------------------------------


def parse_edge_list(text: str, n: int | None = None) -> SparseMatrix:
    """Parse "src<TAB>dst" lines (0-based, '#' comments) into a pattern adjacency.

    ``n`` defaults to 1 + the largest endpoint seen. Raises ValueError with the
    offending 1-based line number on malformed input.
    """
    src, dst = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'src<TAB>dst', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node id in {raw!r}")
        src.append(u)
        dst.append(v)
    if n is None:
        n = 1 + max(max(src), max(dst)) if src else 0
    if src and max(max(src), max(dst)) >= n:
        bad = max(max(src), max(dst))
        raise ValueError(f"edge endpoint {bad} out of range for n={n}")
    return SparseMatrix.from_edges(n, src, dst)


def format_edge_list(s: SparseMatrix) -> str:
    """Canonical edge-list text: one 'src<TAB>dst' per entry, (row, col) sorted."""
    rows = np.repeat(np.arange(s.n_rows), np.diff(s.row_offsets))
    lines = [f"{u}\t{v}" for u, v in zip(rows, s.col_indices)]
    return "\n".join(lines) + ("\n" if lines else "")


def format_coordinate_text(s: SparseMatrix) -> str:
    """Matrix-Market-style coordinate dump (1-based indices)."""
    rows = np.repeat(np.arange(s.n_rows), np.diff(s.row_offsets))
    out = ["%%MatrixMarket matrix coordinate real general",
           f"{s.n_rows} {s.n_cols} {s.nnz}"]
    for u, v, x in zip(rows, s.col_indices, s.values):
        out.append(f"{u + 1} {v + 1} {float(x)!r}")
    return "\n".join(out) + "\n"


def parse_coordinate_text(text: str) -> SparseMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]
    if not lines:
        raise ValueError("empty coordinate text")
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise ValueError(f"bad size header: {lines[0]!r}") from None
    if len(lines) - 1 != nnz:
        raise ValueError(f"expected {nnz} entries, found {len(lines) - 1}")
    rows, cols, vals = [], [], []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise ValueError(f"bad coordinate line: {ln!r}")
        rows.append(int(toks[0]) - 1)
        cols.append(int(toks[1]) - 1)
        vals.append(float(toks[2]))
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
