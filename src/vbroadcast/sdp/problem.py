"""Standard-form SDP data structures and a symbolic problem builder.

A problem is

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_{i,k}, X_k> = b_i      (i = 1..m)
                X_k >= 0,

where every ``X_k`` is a complex Hermitian PSD block (dimension-1 blocks are
plain nonnegative scalars) and all coefficient operators are Hermitian.
Every coefficient is stored once, as its coordinates vec(A) = Re A + Im A
(flattened row-major) in the orthonormal basis
E_pq = ((1 + i)|p><q| + (1 - i)|q><p|) / 2 of its block's Hermitian space.
The constraints are one sparse m x N matrix ``a`` and the objective one
length-N vector ``c`` over the concatenated cone, N = sum_k dim_k^2, as in
SeDuMi.  ``a`` is a :class:`~vbroadcast.sdp.csr.Csr`, the package's own
CSR type, built from the builder's (row, column, value) triplets in the
canonical layout that ``scipy.sparse.csr_matrix`` gives them.  The
problem's :class:`Cone`, like SeDuMi's cone description K, is the one
place the column layout is decided: block k owns the columns
``cone.columns[name]``, so <A_{i,k}, X_k> = a[i, cone.columns[name]] . vec(X_k).
The builder places its entries with it, and the solver and the certificate
checker split their vectors with it.

An operator-valued constraint has one row <E_pq, .> per basis element of
its target space.  The builder writes each of its terms with one sparse
construction and turns inequalities into equalities with slack blocks:

* ``<A, X> <= b``        adds a nonnegative scalar slack,
* ``sum terms >= R``     adds a PSD slack block.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..linalg import as_hermitian
from .csr import Csr


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


class Cone:
    """The column layout of the blocks ``blocks``: the dimension-1 blocks
    in declaration order, then the Hermitian blocks by decreasing dimension,
    stable in declaration order.

    The blocks of one dimension n form one stack, listed as ``(n, names)``
    in ``stacks`` and owning the contiguous columns
    ``offsets[i]:offsets[i + 1]``; the ``n_lin`` dimension-1 blocks, if any,
    are the first stack, one nonnegative orthant.  Block ``name`` owns the
    columns ``columns[name]``, and ``degree`` is the sum of the block
    dimensions, the barrier parameter of the cone.
    """

    def __init__(self, blocks: Sequence[BlockSpec]):
        order = sorted(blocks, key=lambda b: (b.dim > 1, -b.dim))
        self.stacks = [(n, [b.name for b in run])
                       for n, run in itertools.groupby(order, key=lambda b: b.dim)]
        self.offsets = np.cumsum([0] + [n * n * len(names) for n, names in self.stacks])
        self.columns, col = {}, 0
        for b in order:
            self.columns[b.name] = slice(col, col + b.dim ** 2)
            col += b.dim ** 2
        self.n_lin = sum(b.dim == 1 for b in blocks)
        self.degree = float(sum(b.dim for b in blocks))
        # (n, k, first column, end column) of each Hermitian stack
        self._mats = [(n, len(names), lo, hi) for (n, names), lo, hi
                      in zip(self.stacks, self.offsets, self.offsets[1:]) if n > 1]

    def split(self, v: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """A vector as ``(lin, stacks)``: the orthant's entries and one
        ``(k, n, n)`` array of Hermitian matrices per Hermitian stack.  Leading
        axes of ``v`` are kept: vectors along its last axis."""
        lead = v.shape[:-1]
        return v[..., :self.n_lin], [_mat(v[..., lo:hi].reshape(lead + (k, n * n)))
                                     for n, k, lo, hi in self._mats]

    def vec(self, lin: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
        """The inverse of :meth:`split`."""
        return np.concatenate([lin] + [_vec(m).reshape(m.shape[:-3] + (-1,)) for m in stacks],
                              axis=-1)

    def blocks(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """The matrix of each block of a vector, by name in cone order; a
        dimension-1 block is a 1 x 1 array."""
        lin, stacks = self.split(v)
        mats = [np.array([[x]]) for x in lin] + [m for st in stacks for m in st]
        return dict(zip((name for _, names in self.stacks for name in names), mats))

    def stacked(self, x_blocks: dict[str, np.ndarray]) -> list[np.ndarray]:
        """The matrices of ``x_blocks`` as one (k, n, n) array per stack."""
        return [np.stack([np.asarray(x_blocks[name]) for name in names])
                for _, names in self.stacks]


class Structure:
    """What is computed from a problem's blocks, constraint matrix and
    embeddings alone, never from ``b``: the ``cone``, and ``solver``, the
    solver's presolve and block rows, which ``sdp.solver`` sets on the first
    solve.  Problems derived by :meth:`SdpProblem.with_b` share their
    origin's holder; every other problem, one made by
    ``dataclasses.replace`` included, starts with an empty one of its own."""

    def __init__(self, blocks: list[BlockSpec]):
        self._blocks = blocks
        self.solver = None

    @functools.cached_property
    def cone(self) -> Cone:
        return Cone(self._blocks)


@dataclass
class SdpProblem:
    """minimize c . x s.t. a @ x = b, X_k >= 0, where x stacks the
    coordinates vec(X_k) = Re X_k + Im X_k (see ``_vec``) of the blocks in
    the column layout ``cone``: ``a`` is one sparse (m, N) matrix, a
    :class:`~vbroadcast.sdp.csr.Csr`, and ``c`` one length-N vector,
    N = sum_k dim_k^2."""

    blocks: list[BlockSpec]
    a: Csr
    b: np.ndarray
    c: np.ndarray
    embeddings: list[Embedding] = field(default_factory=list)
    labels: list[tuple[int, int, str]] = field(default_factory=list)
    structure: Structure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.structure = Structure(self.blocks)

    def with_b(self, b) -> SdpProblem:
        """This problem with the right-hand side ``b`` (copied): the same
        blocks, rows and objective, sharing ``structure``, so that a solve
        of the result reuses what a solve of any problem of the same origin
        computed from the rows.  ``blocks``, ``a`` and ``c`` are shared too:
        the arrays of ``a`` and ``c`` are made read-only, here and in this
        problem, so that no problem can change the rows of another.  Raises
        ``ValueError`` unless ``b`` is 1-D with one entry per row."""
        b = np.array(b, dtype=float)
        if b.shape != (self.n_rows,):
            raise ValueError(f"right-hand side b has shape {b.shape}, not the "
                             f"({self.n_rows},) of the problem's rows")
        for shared in (self.a.data, self.a.indices, self.a.indptr, self.c):
            shared.flags.writeable = False
        p = dataclasses.replace(self, b=b,
                                embeddings=list(self.embeddings), labels=list(self.labels))
        p.structure = self.structure
        return p

    @property
    def n_rows(self) -> int:
        return self.b.size

    @property
    def cone(self) -> Cone:
        """The column layout of ``blocks``."""
        return self.structure.cone

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
        """Raise ``ValueError`` unless the parts fit together and ``a``, ``b``
        and ``c`` are finite.  Any size builds (``solve`` bounds the size)."""
        dims = {b.name: b.dim for b in self.blocks}
        if len(dims) != len(self.blocks):
            raise ValueError("duplicate block names")
        for b in self.blocks:
            if b.dim < 1:
                raise ValueError(f"block {b.name!r} has invalid dimension {b.dim}")
        m, n = self.n_rows, int(self.cone.offsets[-1])
        if self.a.shape != (m, n):
            raise ValueError(f"constraint coefficients have shape {self.a.shape}, "
                             f"not the ({m}, {n}) of {m} rows and the declared blocks")
        if self.c.shape != (n,):
            raise ValueError(f"objective coefficients have shape {self.c.shape}, "
                             f"not the ({n},) of the declared blocks")
        for what, v in (("coefficients a", self.a.data), ("right-hand side b", self.b),
                        ("objective c", self.c)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite entries in {what}")
        for e in self.embeddings:
            if (int(np.prod(e.dims)) != dims.get(e.block)
                    or not 0 <= e.start <= e.start + e.dim ** 2 <= m):
                raise ValueError(f"embedding of block {e.block!r} does not fit the problem")
        for start, stop, label in self.labels:
            if not 0 <= start < stop <= m:
                raise ValueError(f"rows {start}:{stop} of {label!r} do not fit the problem")

    # -- evaluation on per-block matrices --------------------------------------

    def vector(self, x_blocks: dict[str, np.ndarray]) -> np.ndarray:
        """The coordinates x of per-block matrices, in column order."""
        return np.concatenate([_vec(st).ravel() for st in self.cone.stacked(x_blocks)])

    def constraint_values(self, x_blocks: dict[str, np.ndarray]) -> np.ndarray:
        """Evaluate <A_i, X> for every row."""
        return self.a @ self.vector(x_blocks)

    def objective_value(self, x_blocks: dict[str, np.ndarray]) -> float:
        return float(self.c @ self.vector(x_blocks))

    def adjoint(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Dense Hermitian matrices of A^*(y) = sum_i y_i A_i per block."""
        v = self.a.T @ y
        return {name: _mat(v[cols]) for name, cols in self.cone.columns.items()}


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


def _embedding_coordinates(dims: tuple[int, ...], drop: tuple[int, ...]) -> np.ndarray:
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
    block; ``build`` moves each to its block's columns in the :class:`Cone`
    of the declared blocks and constructs the one constraint matrix from
    them, duplicates summed.  A nonempty ``label`` names the rows of its
    constraint; the problem keeps the names as row ranges.
    """

    def __init__(self):
        self._dims: dict[str, int] = {}
        self._a: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        self._b: list[float] = []
        self._c: dict[str, np.ndarray] = {}
        self._embeddings: list[Embedding] = []
        self._labels: list[tuple[int, int, str]] = []

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
            self._a.append((name, np.full(nz.size, row), nz, v[nz]))
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
                cols = _embedding_coordinates(dims, drop)
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
        self._a += entries
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
        for name in ({e[0] for e in self._a} | self._c.keys()) - self._dims.keys():
            raise ValueError(f"coefficient references unknown block {name!r}")
        blocks = [BlockSpec(n, d) for n, d in self._dims.items()]
        cone = Cone(blocks)
        shape = (len(self._b), int(cone.offsets[-1]))
        if self._a:
            names, rows, cols, vals = zip(*self._a)
            cols = [col + cone.columns[name].start for name, col in zip(names, cols)]
            a = Csr.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                  np.concatenate(vals), shape)
        else:
            a = Csr.from_triplets([], [], [], shape)
        c = np.zeros(shape[1])
        for name, coords in self._c.items():
            c[cone.columns[name]] = coords
        p = SdpProblem(blocks=blocks, a=a, b=np.array(self._b), c=c,
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
    E_pq = ((1 + i)|p><q| + (1 - i)|q><p|) / 2.
    """
    def upper_entries(rows, coords, values, n):
        """(row, upper index, value) of the nonzero entries with row <= col
        of the matrices with coordinates ``values`` at (``rows``, ``coords``)."""
        # coordinate (p, q) is (1 + i)/2 at entry (p, q) and (1 - i)/2 at
        # (q, p); of these, the entry with row <= col is listed
        p, q = np.divmod(coords, n)
        weight = np.where(p == q, 1.0, 0.5 + 0.5j * np.sign(q - p))
        keys, where = np.unique(rows * n * n + np.minimum(p, q) * n + np.maximum(p, q),
                                return_inverse=True)
        sums = np.zeros(keys.size, dtype=complex)
        np.add.at(sums, where, weight * values)
        nonzero = sums != 0
        return (*np.divmod(keys[nonzero], n * n), sums[nonzero])

    con = []
    with open(path, "w") as fh:
        fh.write("# vbroadcast SDP dump: minimize sum_k <C_k, X_k> "
                 "s.t. <A_i, X> = b_i, X >= 0\n")
        for start, stop, label in problem.labels:
            fh.write(f"# rows {start}-{stop - 1} {label}\n")
        for k, blk in enumerate(problem.blocks):
            fh.write(f"block {k} {blk.name} {blk.dim}\n")
        for k, blk in enumerate(problem.blocks):
            cols = problem.cone.columns[blk.name]
            coords = np.flatnonzero(problem.c[cols])
            _, obj_col, obj_val = upper_entries(np.zeros_like(coords), coords,
                                                problem.c[cols][coords], blk.dim)
            for f, v in zip(obj_col, obj_val):
                fh.write(f"obj {k} {f // blk.dim} {f % blk.dim} "
                         f"{v.real:.17g} {v.imag:.17g}\n")
            part = problem.a[:, cols]
            rows = np.repeat(np.arange(problem.n_rows), np.diff(part.indptr))
            row, col, val = upper_entries(rows, part.indices.astype(np.int64), part.data,
                                          blk.dim)
            con.append((row, np.full(row.size, k), col // blk.dim, col % blk.dim, val))
        rows, ks, ii, jj, vals = (np.concatenate(x) for x in zip(*con))
        for n in np.lexsort((jj, ii, ks, rows)):
            fh.write(f"con {rows[n]} {ks[n]} {ii[n]} {jj[n]} "
                     f"{vals[n].real:.17g} {vals[n].imag:.17g}\n")
        for r, value in enumerate(problem.b):
            fh.write(f"rhs {r} {value:.17g}\n")
