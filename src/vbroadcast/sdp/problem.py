"""Standard-form SDP data structures and a symbolic problem builder.

A problem is

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_{i,k}, X_k> = b_i      (i = 1..m)
                X_k >= 0,

where every ``X_k`` is a complex Hermitian PSD block (dimension-1 blocks are
plain nonnegative scalars) and all coefficient operators are Hermitian.
Every coefficient is stored once, as its coordinates vec(A) = Re A + Im A
(flattened row-major) in the orthonormal basis
E_pq = ((1 + i)|p><q| + (1 - i)|q><p|) / 2 of its block's Hermitian space:
block k's constraint coefficients are the rows of a sparse m x dim^2 matrix
``a[k]`` and its objective is the vector ``c[k]``, so
<A_{i,k}, X_k> = a[k][i] . vec(X_k).  The builder writes these, and the
solver and the certificate checker read them.

An operator-valued constraint has one row <E_pq, .> per basis element of
its target space.  The builder writes each of its terms with one sparse
construction and turns inequalities into equalities with slack blocks:

* ``<A, X> <= b``        adds a nonnegative scalar slack,
* ``sum terms >= R``     adds a PSD slack block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ..linalg import as_hermitian

# Largest block dimension accepted without an explicit override; keeps
# accidental huge dense solves from hanging a session.
MAX_BLOCK_DIM = 130


@dataclass(frozen=True)
class BlockSpec:
    """One PSD variable block: complex Hermitian of size ``dim`` (1 = scalar)."""

    name: str
    dim: int


@dataclass(frozen=True)
class Embedding:
    """The terms ``scale * <E_pq, Tr_drop[X_block]>`` of operator-equation rows
    ``start + p * dim + q`` for the basis E_pq of the target; a full term is
    the layout ``(block dim,)`` with nothing dropped.  The solver builds its
    Schur complement from these row ranges; their coefficients are in ``a``."""

    block: str
    start: int
    dim: int
    dims: tuple[int, ...]
    drop: tuple[int, ...]
    scale: float


@dataclass
class SdpProblem:
    """minimize sum_k c[k] . vec(X_k) s.t. sum_k a[k] @ vec(X_k) = b, X_k >= 0,
    with vec(X) = Re X + Im X flattened (see ``_vec``); ``a`` and ``c`` hold one
    entry per block."""

    blocks: list[BlockSpec]
    a: dict[str, sp.csr_matrix]
    b: np.ndarray
    c: dict[str, np.ndarray]
    allow_large_blocks: bool = False
    embeddings: list[Embedding] = field(default_factory=list)
    labels: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.b.size

    def row_label(self, row: int) -> str:
        """The name of the constraint that row ``row`` belongs to, from the
        ``(start, stop, label)`` row ranges in ``labels``."""
        for start, stop, label in self.labels:
            if start <= row < stop:
                return label
        return f"row {row}"

    def block(self, name: str) -> BlockSpec:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no block named {name!r}")

    def validate(self) -> None:
        dims = {b.name: b.dim for b in self.blocks}
        if len(dims) != len(self.blocks):
            raise ValueError("duplicate block names")
        for b in self.blocks:
            if b.dim < 1:
                raise ValueError(f"block {b.name!r} has invalid dimension {b.dim}")
            if b.dim > MAX_BLOCK_DIM and not self.allow_large_blocks:
                raise ValueError(
                    f"block {b.name!r} has dimension {b.dim} > {MAX_BLOCK_DIM}; "
                    "pass allow_large_blocks=True to override")
            if b.dim > MAX_BLOCK_DIM:
                warnings.warn(f"block {b.name!r} exceeds the desk-scale guardrail "
                              f"(dimension {b.dim}); expect long solve times",
                              RuntimeWarning)
        for which, coeffs in (("constraint", self.a), ("objective", self.c)):
            if coeffs.keys() != dims.keys():
                raise ValueError(f"{which} coefficients are for blocks {sorted(coeffs)}, "
                                 f"not the declared {sorted(dims)}")
        m = self.n_rows
        for name, d in dims.items():
            if self.a[name].shape != (m, d * d) or self.c[name].shape != (d * d,):
                raise ValueError(f"coefficients of block {name!r} do not match "
                                 f"its dimension {d} and {m} rows")
        for e in self.embeddings:
            if (int(np.prod(e.dims)) != dims.get(e.block)
                    or not 0 <= e.start <= e.start + e.dim ** 2 <= m):
                raise ValueError(f"embedding of block {e.block!r} does not fit the problem")
        for start, stop, label in self.labels:
            if not 0 <= start < stop <= m:
                raise ValueError(f"rows {start}:{stop} of {label!r} do not fit the problem")

    # -- evaluation helpers used by the certificate checker ------------------

    def constraint_values(self, x_blocks: dict[str, np.ndarray]) -> np.ndarray:
        """Evaluate <A_i, X> for every row."""
        vals = np.zeros(self.n_rows)
        for blk in self.blocks:
            vals += self.a[blk.name] @ _vec(np.asarray(x_blocks[blk.name]))
        return vals

    def objective_value(self, x_blocks: dict[str, np.ndarray]) -> float:
        return float(sum(self.c[blk.name] @ _vec(np.asarray(x_blocks[blk.name]))
                         for blk in self.blocks))

    def adjoint(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Dense Hermitian matrices of A^*(y) = sum_i y_i A_i per block."""
        return {blk.name: _mat(self.a[blk.name].T @ y) for blk in self.blocks}

    def objective_matrices(self) -> dict[str, np.ndarray]:
        return {blk.name: _mat(self.c[blk.name]) for blk in self.blocks}


# ---------------------------------------------------------------------------
# Orthonormal Hermitian coordinates of an n x n space
# ---------------------------------------------------------------------------

def _vec(x: np.ndarray) -> np.ndarray:
    """Coordinates Re X + Im X of Hermitian matrices, flattened row-major.

    Re X is symmetric and Im X antisymmetric, so the map is an isometry onto
    R^(n x n): coordinate (p, q) is <E_pq, X> for the orthonormal basis
    E_pq = ((1 + i)|p><q| + (1 - i)|q><p|) / 2, and E_pp = |p><p|.
    """
    n = x.shape[-1]
    return (x.real + x.imag).reshape(x.shape[:-2] + (n * n,))


def _mat(v: np.ndarray) -> np.ndarray:
    """The Hermitian matrices ((1 + i)V + (1 - i)V^T) / 2 with coordinates
    ``v``, V = v reshaped to n x n; the inverse of :func:`_vec`."""
    n = math.isqrt(v.shape[-1])
    m = v.reshape(v.shape[:-1] + (n, n))
    return 0.5 * ((1 + 1j) * m + (1 - 1j) * m.swapaxes(-1, -2))


def _embedding_columns(dims: tuple[int, ...], drop: tuple[int, ...]) -> np.ndarray:
    """Block coordinates of E_pq (x) I_drop, the adjoint of Tr_drop applied to
    the target's basis element E_pq, on a block with factor layout ``dims``.

    Each copy E_pq (x) |u><u| of the kept part on one dropped index u is the
    block basis element of entry (index[p, u], index[q, u]), so row p * n + q
    of the result lists the block coordinates at which E_pq (x) I_drop has
    coefficient 1.
    """
    keep = [f for f in range(len(dims)) if f not in drop]
    kept_dim = int(np.prod([dims[f] for f in keep]))
    index = np.arange(int(np.prod(dims))).reshape(dims).transpose(keep + list(drop))
    index = index.reshape(kept_dim, -1)
    p, q = np.divmod(np.arange(kept_dim ** 2), kept_dim)
    return index[p] * index.size + index[q]


# ---------------------------------------------------------------------------
# Operator-valued constraint terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpTerm:
    """One linear term of an operator equation.

    kind = "full":    scale * X_block                  (block matches target)
    kind = "ptrace":  scale * Tr_drop[X_block]         (partial trace of the block)
    kind = "scalar":  scale * x_block * matrix         (scalar block times a
                                                        fixed Hermitian matrix)
    """

    block: str
    kind: str = "full"
    scale: float = 1.0
    dims: tuple[int, ...] = ()
    drop: tuple[int, ...] = ()
    matrix: np.ndarray | None = None


def full_term(block: str, scale: float = 1.0) -> OpTerm:
    return OpTerm(block=block, kind="full", scale=scale)


def ptrace_term(block: str, dims: Sequence[int], drop: Iterable[int],
                scale: float = 1.0) -> OpTerm:
    return OpTerm(block=block, kind="ptrace", scale=scale,
                  dims=tuple(int(d) for d in dims),
                  drop=tuple(sorted(int(i) for i in drop)))


def scalar_term(block: str, matrix: np.ndarray, scale: float = 1.0) -> OpTerm:
    return OpTerm(block=block, kind="scalar", scale=scale,
                  matrix=as_hermitian(matrix))


class ProblemBuilder:
    """Incremental construction of an :class:`SdpProblem`.

    Coefficients are written as sparse (row, coordinate, value) entries per
    block.  A nonempty ``label`` names the rows of its constraint; the problem
    keeps the names as row ranges.
    """

    def __init__(self, allow_large_blocks: bool = False):
        self._dims: dict[str, int] = {}
        self._a: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self._b: list[float] = []
        self._c: dict[str, np.ndarray] = {}
        self._embeddings: list[Embedding] = []
        self._labels: list[tuple[int, int, str]] = []
        self.allow_large_blocks = allow_large_blocks

    # -- variables -----------------------------------------------------------

    def add_psd_block(self, name: str, dim: int) -> str:
        if name in self._dims:
            raise ValueError(f"block {name!r} already declared")
        self._dims[name] = int(dim)
        return name

    def add_scalar(self, name: str) -> str:
        return self.add_psd_block(name, 1)

    def _check_scalar(self, name: str) -> None:
        """A number multiplies a dimension-1 block only."""
        if self._dims.get(name, 1) != 1:
            raise ValueError(f"a scalar coefficient on {name!r} needs a dimension-1 "
                             f"block, not dimension {self._dims[name]}")

    def _coords(self, name: str, coeff) -> np.ndarray:
        """Hermitian-basis coordinates of the coefficient ``coeff`` on block
        ``name``; a number applies to a dimension-1 block."""
        if np.isscalar(coeff):
            self._check_scalar(name)
            return np.array([float(coeff)])
        coeff = as_hermitian(np.atleast_2d(coeff))
        n = coeff.shape[0]
        if self._dims.get(name, n) != n:
            raise ValueError(f"coefficient of dimension {n} on block {name!r} "
                             f"of dimension {self._dims[name]}")
        return _vec(coeff)

    # -- objective -----------------------------------------------------------

    def add_objective(self, block: str, coeff) -> None:
        """Add <coeff, X_block> to the minimization objective."""
        self._c[block] = self._c.get(block, 0.0) + self._coords(block, coeff)

    def minimize(self, linear: dict[str, float]) -> None:
        for name, w in linear.items():
            self.add_objective(name, w)

    # -- constraints ----------------------------------------------------------

    def _label(self, start: int, label: str) -> None:
        if label:
            self._labels.append((start, len(self._b), label))

    def add_scalar_eq(self, coeffs: dict[str, float | np.ndarray], rhs: float,
                      label: str = "") -> None:
        row = len(self._b)
        for name, coeff in coeffs.items():
            v = self._coords(name, coeff)
            nz = np.flatnonzero(v)
            self._a.setdefault(name, []).append((np.full(nz.size, row), nz, v[nz]))
        self._b.append(float(rhs))
        self._label(row, label)

    def add_scalar_ineq(self, coeffs: dict[str, float | np.ndarray], rhs: float,
                        label: str = "") -> str:
        """<coeffs, X> <= rhs via a nonnegative slack scalar; returns its name."""
        slack = self.add_scalar(f"_slack{len(self._dims)}")
        self.add_scalar_eq({**coeffs, slack: 1.0}, rhs, label=label)
        return slack

    def add_operator_eq(self, terms: Sequence[OpTerm], rhs: np.ndarray,
                        label: str = "") -> None:
        """sum of terms = rhs, one row per Hermitian basis element of the target."""
        rhs = as_hermitian(rhs)
        d = rhs.shape[0]
        start = len(self._b)
        rows = np.arange(start, start + d * d)
        entries, embeddings = [], []
        for t in terms:
            if t.kind in ("full", "ptrace"):
                if t.block not in self._dims:
                    raise KeyError(f"no block named {t.block!r}")
                bdim = self._dims[t.block]
                dims, drop = ((bdim,), ()) if t.kind == "full" else (t.dims, t.drop)
                if int(np.prod(dims)) != bdim:
                    raise ValueError(f"layout {dims} does not match block "
                                     f"{t.block!r} of dimension {bdim}")
                cols = _embedding_columns(dims, drop)
                if cols.shape[0] != d * d:
                    raise ValueError(f"term on {t.block!r} has dimension "
                                     f"{bdim // cols.shape[1]}, target has {d}")
                entries.append((t.block, np.repeat(rows, cols.shape[1]), cols.ravel(),
                                np.full(cols.size, float(t.scale))))
                embeddings.append(Embedding(t.block, start, d, dims, drop, t.scale))
            elif t.kind == "scalar":
                if t.matrix.shape[0] != d:
                    raise ValueError("scalar term matrix does not match the target")
                self._check_scalar(t.block)
                w = t.scale * _vec(t.matrix)
                nz = np.flatnonzero(w)
                entries.append((t.block, rows[nz], np.zeros(nz.size, np.int64), w[nz]))
            else:
                raise ValueError(f"unknown term kind {t.kind!r}")
        for block, *entry in entries:
            self._a.setdefault(block, []).append(entry)
        self._embeddings += embeddings
        self._b.extend(_vec(rhs))
        self._label(start, label)

    def add_operator_ineq(self, terms: Sequence[OpTerm], rhs: np.ndarray,
                          label: str = "") -> str:
        """sum of terms >= rhs via a PSD slack block; returns the slack name."""
        rhs = as_hermitian(rhs)
        slack = self.add_psd_block(f"_psd_slack{len(self._dims)}", rhs.shape[0])
        self.add_operator_eq(list(terms) + [full_term(slack, -1.0)], rhs, label=label)
        return slack

    def build(self) -> SdpProblem:
        for name in (self._a.keys() | self._c.keys()) - self._dims.keys():
            raise ValueError(f"coefficient references unknown block {name!r}")
        m = len(self._b)
        a, c = {}, {}
        for name, d in self._dims.items():
            entries = self._a.get(name)
            if entries:
                rows, cols, vals = (np.concatenate(x) for x in zip(*entries))
                a[name] = sp.csr_matrix((vals, (rows, cols)), shape=(m, d * d))
            else:
                a[name] = sp.csr_matrix((m, d * d))
            c[name] = self._c.get(name, np.zeros(d * d))
        p = SdpProblem(blocks=[BlockSpec(n, d) for n, d in self._dims.items()],
                       a=a, b=np.array(self._b), c=c,
                       allow_large_blocks=self.allow_large_blocks,
                       embeddings=list(self._embeddings), labels=list(self._labels))
        p.validate()
        return p


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def dump_problem(problem: SdpProblem, path: str) -> None:
    """Write the assembled problem as documented plain-text sparse triplets.

    Format (one record per line, '#' starts a comment):

        # rows <first>-<last> <label>
        block <index> <name> <complex_dim>
        obj   <block_index> <row> <col> <re> <im>
        con   <constraint_index> <block_index> <row> <col> <re> <im>
        rhs   <constraint_index> <value>

    Only the nonzero entries with row <= col are listed; the mirrored
    conjugate entry is implied.  A comment names the constraint rows of each
    labelled range.  Suitable for cross-checking against
    external solvers.

    Row p * n + q of an operator equation is <E_pq, .> with
    E_pq = ((1 + i)|p><q| + (1 - i)|q><p|) / 2, so its ``con`` and ``rhs``
    records differ from dumps written in the earlier sqrt(2) Re / Im basis:
    the rows of each (p, q), (q, p) pair are rotated, and the feasible set is
    the same.
    """
    def upper_entries(coords: sp.spmatrix, n: int) -> sp.coo_matrix:
        # coordinate (p, q) is (1 + i)/2 at entry (p, q) and (1 - i)/2 at
        # (q, p); of these, the entry with row <= col is listed
        p, q = np.divmod(np.arange(n * n), n)
        weight = np.where(p == q, 1.0, 0.5 + 0.5j * np.sign(q - p))
        upper = np.minimum(p, q) * n + np.maximum(p, q)
        to_upper = sp.csr_matrix((weight, (np.arange(n * n), upper)), shape=(n * n, n * n))
        return (coords @ to_upper).tocoo()

    con = []
    with open(path, "w") as fh:
        fh.write("# vbroadcast SDP dump: minimize sum_k <C_k, X_k> "
                 "s.t. <A_i, X> = b_i, X >= 0\n")
        for start, stop, label in problem.labels:
            fh.write(f"# rows {start}-{stop - 1} {label}\n")
        for k, blk in enumerate(problem.blocks):
            fh.write(f"block {k} {blk.name} {blk.dim}\n")
        for k, blk in enumerate(problem.blocks):
            obj = upper_entries(sp.csr_matrix(problem.c[blk.name]), blk.dim)
            for f, v in zip(obj.col, obj.data):
                fh.write(f"obj {k} {f // blk.dim} {f % blk.dim} "
                         f"{v.real:.17g} {v.imag:.17g}\n")
            e = upper_entries(problem.a[blk.name], blk.dim)
            con.append((e.row, np.full(e.nnz, k), e.col // blk.dim, e.col % blk.dim, e.data))
        rows, ks, ii, jj, vals = (np.concatenate(x) for x in zip(*con))
        for n in np.lexsort((jj, ii, ks, rows)):
            fh.write(f"con {rows[n]} {ks[n]} {ii[n]} {jj[n]} "
                     f"{vals[n].real:.17g} {vals[n].imag:.17g}\n")
        for r, value in enumerate(problem.b):
            fh.write(f"rhs {r} {value:.17g}\n")
