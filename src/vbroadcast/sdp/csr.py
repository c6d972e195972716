"""A compressed sparse row matrix for the constraint rows of a problem.

:class:`Csr` keeps a real m x n matrix in the canonical CSR layout: the
entries of row i are ``data[indptr[i]:indptr[i + 1]]`` at the columns
``indices[indptr[i]:indptr[i + 1]]``, sorted and without duplicates.
Built from (row, column, value) triplets, it holds the arrays and index
dtypes (int32 while the sizes fit) that ``scipy.sparse.csr_matrix``
produces from the same triplets, so a problem's bytes do not depend on
which of the two built it.  (Both sum duplicates in the given order; scipy
keeps that order only in rows of at most 16 entries, past which the sum of
three or more duplicates can differ in its last bit.)  It offers what the builder, the solver and the
certificate checker use: products with vectors and dense matrices, the
transpose, row selection, column slices, the dense Gram matrix A A^T and
``toarray``.
"""

from __future__ import annotations

import functools

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(*sizes: int) -> type:
    return np.int32 if max(sizes, default=0) <= _INT32_MAX else np.int64


class Csr:
    """A real sparse matrix in canonical CSR storage (module docstring)."""

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> Csr:
        """The matrix with entries ``vals`` at (``rows``, ``cols``): entries
        sorted by row, then column, and duplicates summed in the order given,
        explicit zeros kept."""
        m, n = int(shape[0]), int(shape[1])
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size and not (0 <= rows.min() and rows.max() < m
                              and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"triplet index out of range for shape {(m, n)}")
        order = np.lexsort((cols, rows))    # stable: ties keep the given order
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        data = vals[first]
        if not first.all():
            # each duplicate added to its entry in turn, as a running sum
            np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])
        idx = _index_dtype(data.size, m, n)
        indptr = np.zeros(m + 1, dtype=idx)
        np.cumsum(np.bincount(rows[first], minlength=m), out=indptr[1:])
        return cls(data, cols[first].astype(idx), indptr, (m, n))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @functools.cached_property
    def _row_of_entry(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @functools.cached_property
    def T(self) -> Csr:
        """The transpose, in canonical CSR."""
        order = np.argsort(self.indices, kind="stable")
        idx = self.indptr.dtype
        indptr = np.zeros(self.shape[1] + 1, dtype=idx)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
        return Csr(self.data[order], self._row_of_entry[order].astype(idx), indptr,
                   self.shape[::-1])

    def __matmul__(self, other):
        """The product with a dense real vector or matrix (first axis of
        length n): each entry's products summed in one pass over the entries."""
        other = np.asarray(other)
        if other.shape[:1] != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {other.shape}")
        m = self.shape[0]
        if other.ndim == 1:
            return np.bincount(self._row_of_entry, weights=self.data * other[self.indices],
                               minlength=m)
        k = other.shape[1]
        flat = (self._row_of_entry[:, None] * k + np.arange(k)).ravel()
        terms = self.data[:, None] * other[self.indices]
        return np.bincount(flat, weights=terms.ravel(), minlength=m * k).reshape(m, k)

    def __getitem__(self, key) -> Csr:
        """``a[rows]`` for a sequence of row indices, or ``a[:, lo:hi]`` for a
        contiguous column slice."""
        if isinstance(key, tuple):
            everything, cols = key
            if everything != slice(None) or not isinstance(cols, slice):
                raise TypeError("only a[:, lo:hi] column slices are supported")
            return self._columns(cols)
        return self._rows(np.asarray(key, dtype=np.int64).reshape(-1))

    def _rows(self, rows: np.ndarray) -> Csr:
        counts = np.diff(self.indptr)[rows]
        indptr = np.zeros(rows.size + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        pos = np.repeat(self.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
        return Csr(self.data[pos], self.indices[pos], indptr, (rows.size, self.shape[1]))

    def _columns(self, cols: slice) -> Csr:
        lo, hi, step = cols.indices(self.shape[1])
        if step != 1:
            raise TypeError("only contiguous column slices are supported")
        hi = max(hi, lo)
        inside = (self.indices >= lo) & (self.indices < hi)
        indptr = np.concatenate([[0], np.cumsum(inside)])[self.indptr].astype(self.indptr.dtype)
        return Csr(self.data[inside], (self.indices[inside] - lo).astype(self.indices.dtype),
                   indptr, (self.shape[0], hi - lo))

    def gram(self) -> np.ndarray:
        """A A^T as a dense array: the products A_ik A_jk of each column k
        summed in increasing k, the order of a row-by-row sparse product,
        unless those products outnumber the entries of the dense matrix,
        which one matrix product then multiplies instead."""
        m, n = self.shape
        t = self.T
        counts = np.diff(t.indptr).astype(np.int64)
        pairs = counts ** 2
        if pairs.sum() > m * n:
            dense = self.toarray()
            return dense @ dense.T
        start = np.repeat(t.indptr[:-1], pairs)
        width = np.repeat(counts, pairs)
        offset = np.arange(int(pairs.sum())) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        left, right = start + offset // width, start + offset % width
        flat = t.indices[left].astype(np.int64) * m + t.indices[right]
        return np.bincount(flat, weights=t.data[left] * t.data[right],
                           minlength=m * m).reshape(m, m)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_of_entry, self.indices] = self.data
        return out
