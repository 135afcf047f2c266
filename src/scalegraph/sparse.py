"""CSR sparse-matrix kernels for directed-graph adjacency algebra.

Everything here is exact and deterministic: matrices are immutable CSR with
sorted, deduplicated column indices, so structural equality and the pattern
set-algebra (union / intersection / difference) are well defined. Values are
float64; a "pattern" matrix stores 1.0 for every structural entry, as a
read-only stride-0 view of one shared 1.0, so its values take no memory.
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
    "weighted_sum",
    "parse_edge_list",
    "format_edge_list",
    "parse_coordinate_text",
    "format_coordinate_text",
]


# entry pairs per chunk of ``SparseMatrix._check``'s in-row order check
_CHECK_CHUNK = 1 << 16

# the one buffer behind every pattern's values
_ONE = np.ones(1)
_ONE.flags.writeable = False


def _ones(n):
    """The values of an ``n``-entry pattern: a read-only stride-0 view of ``_ONE``."""
    return np.broadcast_to(_ONE, (n,))


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
        # not made contiguous: a pattern's values are a stride-0 view (``_ones``)
        self.values = np.asarray(values, dtype=np.float64)
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
        cols = self.col_indices
        if len(cols):
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
        # strictly increasing inside each row <=> no duplicates, sorted; checked for the
        # pairs (k, k + 1), k in [e0, e1), one chunk at a time to bound the temporaries
        for e0 in range(0, len(cols) - 1, _CHECK_CHUNK):
            e1 = min(e0 + _CHECK_CHUNK, len(cols) - 1)
            rising = cols[e0 + 1:e1 + 1] > cols[e0:e1]
            # a pair whose second entry starts a row is unconstrained
            starts = off[np.searchsorted(off, e0 + 1):np.searchsorted(off, e1, side="right")]
            rising[starts - 1 - e0] = True
            if not rising.all():
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
        return _from_sorted_keys(n, n, keys, _ones(len(keys)))

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
        return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, _ones(n))

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
                            self.col_indices, _ones(self.nnz))

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


def _values_at(s, index):
    """``s.values[index]``; for a pattern, a view of ``_ONE`` with that many entries."""
    if s.values.base is _ONE:
        return _ones(np.count_nonzero(index) if index.dtype == bool else len(index))
    return s.values[index]


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
    return SparseMatrix(s.n_cols, s.n_rows, offsets, rows[order], _values_at(s, order))


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
    vals = np.concatenate(out_vals) if counted and out_vals else _ones(len(keys))
    return _from_sorted_keys(n_rows, n_cols, keys, vals)


def _require_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def pattern_union(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Set-union of supports, values 1."""
    _require_same_shape(a, b)
    keys = _sorted_unique(np.concatenate([a._keys(), b._keys()]))
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, _ones(len(keys)))


def pattern_intersection(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Set-intersection of supports, values 1."""
    _require_same_shape(a, b)
    keys = np.intersect1d(a._keys(), b._keys(), assume_unique=True)
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, _ones(len(keys)))


def pattern_difference(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Support of ``a`` minus support of ``b``, values 1."""
    _require_same_shape(a, b)
    keys = np.setdiff1d(a._keys(), b._keys(), assume_unique=True)
    return _from_sorted_keys(a.n_rows, a.n_cols, keys, _ones(len(keys)))


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
    order = np.argsort(all_keys)
    if s.values.base is _ONE:
        return _from_sorted_keys(n, n, all_keys[order], _ones(len(order)))
    all_vals = np.concatenate([s.values[off_diag], np.ones(n)])
    return _from_sorted_keys(n, n, all_keys[order], all_vals[order])


def remove_self_loops(s: SparseMatrix) -> SparseMatrix:
    """Drop all diagonal entries."""
    if not s.is_square():
        raise ValueError("self-loop ops require a square matrix")
    keys = s._keys()
    keep = (keys // s.n_rows) != (keys % s.n_rows)
    return _from_sorted_keys(s.n_rows, s.n_cols, keys[keep], _values_at(s, keep))


def degrees(s: SparseMatrix, axis: str = "row") -> np.ndarray:
    """Structural nonzero counts per row (out-degrees of A) or column (in-degrees)."""
    if axis == "row":
        return np.diff(s.row_offsets)
    if axis == "col":
        return np.bincount(s.col_indices, minlength=s.n_cols)
    raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")


def sym_normalize(s: SparseMatrix) -> SparseMatrix:
    """Scale entry (i, j) by 1/sqrt(rowsum_i * colsum_j).

    Rows or columns with zero weight stay zero instead of dividing by zero;
    isolated nodes therefore aggregate to the zero vector.
    """
    if not s.is_square():
        raise ValueError("normalization requires a square matrix")
    if np.any(s.values < 0):
        raise ValueError("normalization requires non-negative values")
    rows = _row_ids(s)
    r_inv, c_inv = _normalizers(s, rows)
    vals = s.values * r_inv[rows] * c_inv[s.col_indices]
    return SparseMatrix(s.n_rows, s.n_cols, s.row_offsets, s.col_indices, vals)


def _row_ids(s):
    return np.repeat(np.arange(s.n_rows, dtype=np.int64), np.diff(s.row_offsets))


def _normalizers(s, rows):
    """The normalization rule: 1/sqrt of each row sum and each column sum of ``s``, or 0
    where a sum is 0. ``rows`` is the row of each entry."""
    if s.values.base is _ONE:  # a pattern's sums are its counts, the same floats
        row_sum = np.diff(s.row_offsets)
        col_sum = np.bincount(s.col_indices, minlength=s.n_cols)
    else:
        row_sum = np.bincount(rows, weights=s.values, minlength=s.n_rows)
        col_sum = np.bincount(s.col_indices, weights=s.values, minlength=s.n_cols)
    with np.errstate(divide="ignore"):
        return tuple(np.where(t > 0, 1.0 / np.sqrt(t), 0.0) for t in (row_sum, col_sum))


# entries of both operands that one row block of ``weighted_sum`` merges, unless one row
# alone has more and gets a block to itself. A block's temporaries, about 64 bytes per
# entry, stay near 0.5 MB: 2^16-entry blocks raised the peak memory of a grid search on
# a 300-node graph by 1.5 MB, and were no faster on 2M-entry blends
_SUM_BLOCK_ENTRIES = 1 << 13


def weighted_sum(m: SparseMatrix, n: SparseMatrix, c_m: float, c_n: float,
                 normalize: bool = False) -> SparseMatrix:
    """``c_m * m + c_n * n`` over the union of the two supports, or with ``normalize``
    ``c_m * sym_normalize(m) + c_n * sym_normalize(n)``; either bit for bit.

    An entry of both is ``c_m * x + c_n * y``, an entry of one side alone that side's
    term (adding 0.0 is exact). Row blocks are merged one at a time into preallocated
    output arrays, and a normalized side's values are made block by block from its
    normalizers, so neither those values nor a sort of all keys is ever held.
    """
    _require_same_shape(m, n)
    if normalize:
        if not m.is_square():
            raise ValueError("normalization requires a square matrix")
        if np.any(m.values < 0) or np.any(n.values < 0):
            raise ValueError("normalization requires non-negative values")
    n_rows, n_cols = m.shape
    sides = [(s, c, _normalizers(s, _row_ids(s)) if normalize else None)
             for s, c in ((m, c_m), (n, c_n))]
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    cols = np.empty(m.nnz + n.nnz, dtype=np.int64)
    vals = np.empty(m.nnz + n.nnz)
    both = m.row_offsets + n.row_offsets  # entries of both sides before each row
    filled = r0 = 0
    while r0 < n_rows:
        r1 = int(np.searchsorted(both, both[r0] + _SUM_BLOCK_ENTRIES, side="right")) - 1
        r1 = min(n_rows, max(r0 + 1, r1))
        key, col, term = (np.concatenate(parts) for parts in zip(
            *(_block_terms(s, c, scale, r0, r1) for s, c, scale in sides)))
        # m's entries come before n's, so a stable sort puts c_m * x before c_n * y
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        unique = order[first]
        end = filled + len(unique)
        out = vals[filled:end]
        np.take(term, unique, out=out)
        np.take(col, unique, out=cols[filled:end])
        # an entry of both sides is a pair (p - 1, p) in sorted order; p is the k-th such
        # pair, so its sum is the (p - 1 - k)-th entry of ``out``
        second = np.flatnonzero(~first)
        out[second - 1 - np.arange(len(second))] += term[order[second]]
        offsets[r0 + 1:r1 + 1] = (both[r0 + 1:r1 + 1] - both[r0:r1]
                                  - np.bincount(key[second] // n_cols, minlength=r1 - r0))
        filled, r0 = end, r1
    np.cumsum(offsets, out=offsets)
    cols.resize(filled, refcheck=False)  # shrinks in place; no other reference exists
    vals.resize(filled, refcheck=False)
    return SparseMatrix(n_rows, n_cols, offsets, cols, vals)


def _block_terms(s, c, scale, r0, r1):
    """Keys ``row * n_cols + col`` (rows counted from ``r0``), columns and terms ``c * x``
    of the entries of rows [r0, r1); ``x`` is the entry's value, scaled by ``scale``, a
    pair of row and column normalizers, as ``sym_normalize`` scales it."""
    lo, hi = s.row_offsets[r0], s.row_offsets[r1]
    rows = np.repeat(np.arange(r1 - r0, dtype=np.int64), np.diff(s.row_offsets[r0:r1 + 1]))
    col = s.col_indices[lo:hi]
    x = s.values[lo:hi]
    if scale is not None:
        x = x * scale[0][r0:r1][rows] * scale[1][col]
    return rows * np.int64(s.n_cols) + col, col, c * x


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

    Text in the plain form ``format_edge_list`` writes is read by ``_plain_edge_ends``
    in numpy, with no Python object per number; any other text is read line by line,
    which also finds the first bad line.
    """
    ends = _plain_edge_ends(text)
    if ends is None:
        src, dst = _edge_lines(text)
        top = max(max(src), max(dst)) if src else -1
    else:
        src, dst = ends[0::2], ends[1::2]
        top = int(ends.max()) if len(ends) else -1
    if n is None:
        n = 1 + top
    if top >= n:
        raise ValueError(f"edge endpoint {top} out of range for n={n}")
    return SparseMatrix.from_edges(n, src, dst)


def _plain_edge_ends(text):
    """The endpoints, in order, of a text whose every line is two runs of at most 18 ASCII
    digits with one tab or space between them and a newline after them (the last line's
    newline may be missing); None for any other text."""
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    if len(raw) and raw[-1] != ord("\n"):
        raw = np.append(raw, np.uint8(ord("\n")))
    stops = np.flatnonzero((raw < ord("0")) | (raw > ord("9")))  # every byte but a digit
    kinds = raw[stops]
    starts = np.concatenate(([0], stops[:-1] + 1))
    lengths = stops - starts
    if not (len(stops) % 2 == 0 and np.all(kinds[1::2] == ord("\n"))
            and np.all((kinds[::2] == ord("\t")) | (kinds[::2] == ord(" ")))
            and np.all(lengths >= 1) and np.all(lengths <= 18)):  # 18 digits fit an int64
        return None
    ends = np.zeros(len(stops), dtype=np.int64)
    for k in range(int(lengths.max()) if len(lengths) else 0):  # Horner, digit k of each
        more = lengths > k
        ends[more] = ends[more] * 10 + (raw[starts[more] + k] - ord("0"))
    return ends


def _edge_lines(text):
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
    return src, dst


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
