"""Standard-form SDP data structures and a symbolic problem builder.

A problem is

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_{i,k}, X_k> = b_i      (i = 1..m)
                X_k >= 0,

where every ``X_k`` is a complex Hermitian PSD block (dimension-1 blocks are
plain nonnegative scalars) and all coefficient operators are Hermitian.
Coefficients are stored as canonical sparse triplets ``(i, j, v)`` with
``i <= j``; the mirrored entry ``(j, i, conj(v))`` is implied.

The builder assembles the equality rows of operator-valued constraints by
pairing them against an orthonormal Hermitian basis of the target space, and
turns inequalities into equalities with slack blocks:

* ``<A, X> <= b``        adds a nonnegative scalar slack,
* ``sum terms >= R``     adds a PSD slack block,
* free scalars           are encoded as the difference of two scalar blocks.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..linalg import as_hermitian

# Largest block dimension accepted without an explicit override; keeps
# accidental huge dense solves from hanging a session.
MAX_BLOCK_DIM = 130

Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]  # (ii, jj, vv), ii <= jj
_EMPTY: Triplets = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))


@dataclass(frozen=True)
class BlockSpec:
    """One PSD variable block: complex Hermitian of size ``dim`` (1 = scalar)."""

    name: str
    dim: int


@dataclass
class Row:
    """One scalar equality row: sum_k <coeffs[k], X_k> = rhs."""

    coeffs: dict[str, Triplets]
    rhs: float
    label: str = ""


@dataclass(frozen=True)
class Embedding:
    """The terms ``scale * <E_r, Tr_drop[X_block]>`` of operator-equation rows
    ``start + r``, r < dim**2, for the basis ``hermitian_basis_triplets(dim)``;
    a full term is the layout ``(block dim,)`` with nothing dropped.  The
    solver builds its Schur complement from these, not from the triplets."""

    block: str
    start: int
    dim: int
    dims: tuple[int, ...]
    drop: tuple[int, ...]
    scale: float


@dataclass
class SdpProblem:
    blocks: list[BlockSpec]
    objective: dict[str, Triplets]
    rows: list[Row]
    allow_large_blocks: bool = False
    embeddings: list[Embedding] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

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
                    "pass allow_large_blocks=True (--allow-large-dim) to override")
            if b.dim > MAX_BLOCK_DIM:
                warnings.warn(f"block {b.name!r} exceeds the desk-scale guardrail "
                              f"(dimension {b.dim}); expect long solve times",
                              RuntimeWarning)
        for which, coeffs in [("objective", self.objective)] + [
                (f"row {i}", r.coeffs) for i, r in enumerate(self.rows)]:
            for name, (ii, jj, vv) in coeffs.items():
                if name not in dims:
                    raise ValueError(f"{which} references unknown block {name!r}")
                d = dims[name]
                if ii.size and (ii.min() < 0 or jj.max() >= d):
                    raise ValueError(f"{which} has out-of-range indices for block {name!r}")
                if np.any(ii > jj):
                    raise ValueError(f"{which} has non-canonical triplets for block {name!r}")
                diag = ii == jj
                if np.any(np.abs(vv[diag].imag) > 1e-12):
                    raise ValueError(f"{which} has complex diagonal entries for block {name!r}")
        for e in self.embeddings:
            if (int(np.prod(e.dims)) != dims.get(e.block)
                    or not 0 <= e.start <= e.start + e.dim ** 2 <= len(self.rows)):
                raise ValueError(f"embedding of block {e.block!r} does not fit the problem")

    # -- evaluation helpers used by the certificate checker ------------------

    def constraint_values(self, x_blocks: dict[str, np.ndarray]) -> np.ndarray:
        """Evaluate <A_i, X> for every row."""
        return np.array([_eval_coeffs(row.coeffs, x_blocks) for row in self.rows], dtype=float)

    def objective_value(self, x_blocks: dict[str, np.ndarray]) -> float:
        return _eval_coeffs(self.objective, x_blocks)

    def adjoint(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Dense Hermitian matrices of A^*(y) = sum_i y_i A_i per block."""
        parts: dict[str, list[Triplets]] = {b.name: [_EMPTY] for b in self.blocks}
        for yi, row in zip(y, self.rows):
            if yi != 0.0:
                for name, (ii, jj, vv) in row.coeffs.items():
                    parts[name].append((ii, jj, yi * vv))
        return {b.name: dense_from_triplets(_merge_triplets(parts[b.name]), b.dim)
                for b in self.blocks}

    def objective_matrices(self) -> dict[str, np.ndarray]:
        return {b.name: dense_from_triplets(self.objective.get(b.name, _EMPTY), b.dim)
                for b in self.blocks}


def _eval_coeffs(coeffs: dict[str, Triplets], x_blocks: dict[str, np.ndarray]) -> float:
    return sum(_triplet_inner(t, np.asarray(x_blocks[name])) for name, t in coeffs.items())


def dense_from_triplets(trip: Triplets, dim: int) -> np.ndarray:
    """The dense Hermitian matrix of canonical triplets (duplicates add up)."""
    ii, jj, vv = trip
    m = np.zeros((dim, dim), dtype=complex)
    np.add.at(m, (ii, jj), vv)
    off = ii != jj
    np.add.at(m, (jj[off], ii[off]), vv[off].conj())
    return m


def triplets_from_dense(a: np.ndarray, tol: float = 0.0) -> Triplets:
    """Canonical upper-triangular triplets of a dense Hermitian matrix."""
    a = as_hermitian(np.atleast_2d(np.asarray(a, dtype=complex)))
    ii, jj = np.nonzero(np.abs(np.triu(a)) > tol)
    return ii.astype(np.int64), jj.astype(np.int64), a[ii, jj]


def scalar_triplets(value: float) -> Triplets:
    return (np.array([0]), np.array([0]), np.array([complex(value)]))


def _merge_triplets(parts: list[Triplets]) -> Triplets:
    ii = np.concatenate([p[0] for p in parts])
    jj = np.concatenate([p[1] for p in parts])
    vv = np.concatenate([p[2] for p in parts])
    return ii, jj, vv


# ---------------------------------------------------------------------------
# Hermitian basis of a D-dimensional space, as canonical triplets
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


class _Basis:
    """Coordinates of n x n Hermitian matrices in the orthonormal basis of
    ``hermitian_basis_triplets(n)``: the diagonal, then sqrt(2) Re and
    -sqrt(2) Im of each upper entry.  Coordinate r of X is <E_r, X>, so the
    coefficients of an operator equation's row r are the unit vector r.

    Basis element r has at most two nonzeros: ``c1[r]`` at flat index
    ``i1[r]`` and ``c2[r]`` at ``i2[r]`` (``c2 = 0`` on the diagonal).
    """

    def __init__(self, n: int):
        self.n, self.N = n, n * n
        iu, ju = np.triu_indices(n, 1)
        self.pos = np.diag(np.arange(n))          # coordinate of entry (i, j), i <= j
        self.pos[iu, ju] = n + 2 * np.arange(iu.size)
        diag = np.arange(n) * (n + 1)
        self.i1 = np.concatenate([diag, np.repeat(iu * n + ju, 2)])
        self.i2 = np.concatenate([diag, np.repeat(ju * n + iu, 2)])
        pairs = iu.size
        h = 1.0 / _SQRT2
        self.c1 = np.concatenate([np.ones(n), np.tile([h, -1j * h], pairs)])
        self.c2 = np.concatenate([np.zeros(n), np.tile([h, 1j * h], pairs)])

    def vec(self, m: np.ndarray) -> np.ndarray:
        flat = m.reshape(m.shape[:-2] + (self.N,))
        return (flat[..., self.i1] * self.c1.conj() + flat[..., self.i2] * self.c2.conj()).real

    def mat(self, v: np.ndarray) -> np.ndarray:
        n, out = self.n, np.empty(v.shape[:-1] + (self.N,), dtype=complex)
        u = (v[..., n::2] - 1j * v[..., n + 1::2]) / _SQRT2
        out[..., self.i1[:n]] = v[..., :n]
        out[..., self.i1[n::2]] = u
        out[..., self.i2[n::2]] = u.conj()
        return out.reshape(v.shape[:-1] + (n, n))

    def coords(self, trip: Triplets) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and values of the matrix of canonical triplets."""
        ii, jj, vv = trip
        diag = ii == jj
        oi, oj, ov = ii[~diag], jj[~diag], vv[~diag]
        return (np.concatenate([ii[diag], self.pos[oi, oj], self.pos[oi, oj] + 1]),
                np.concatenate([vv[diag].real, _SQRT2 * ov.real, -_SQRT2 * ov.imag]))

    def pair(self, other: _Basis, k: np.ndarray) -> np.ndarray:
        """M_ab = <E_a, L(F_b)> for the map with k[(p, q), (r, s)] = L(|r><s|)_pq,
        F the basis of ``other``."""
        t = k[:, other.i1] * other.c1 + k[:, other.i2] * other.c2
        return (self.c1.conj()[:, None] * t[self.i1]
                + self.c2.conj()[:, None] * t[self.i2]).real


@functools.lru_cache(maxsize=None)
def _basis(n: int) -> _Basis:
    return _Basis(n)


def hermitian_basis_triplets(d: int) -> list[Triplets]:
    """Orthonormal Hermitian basis: diagonal units, then (real, imaginary)
    off-diagonal pairs scaled by 1/sqrt(2)."""
    basis = _basis(d)
    return [(np.array([i // d]), np.array([i % d]), np.array([c]))
            for i, c in zip(basis.i1, basis.c1)]


def _triplet_inner(e: Triplets, m: np.ndarray) -> float:
    """<E, M> = Tr[E M] for canonical triplets E and dense Hermitian M."""
    ii, jj, vv = e
    diag = ii == jj
    val = float(np.sum(vv[diag].real * m[ii[diag], jj[diag]].real))
    off = ~diag
    val += float(2.0 * np.sum((vv[off] * m[jj[off], ii[off]]).real))
    return val


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


def _ptrace_embedding(dims: tuple[int, ...], drop: tuple[int, ...]):
    """Precompute flat-index arithmetic for the adjoint of a partial trace.

    The adjoint of Tr_drop places the target operator on the kept factors and
    the identity on the dropped ones.  Returns (kept_dim, base, offsets) with
    flat_block_index = base[kept_flat] + offsets[dropped_flat].
    """
    keep = [f for f in range(len(dims)) if f not in drop]
    kept_dim = int(np.prod([dims[f] for f in keep]))
    index = np.arange(int(np.prod(dims))).reshape(dims).transpose(keep + list(drop))
    index = index.reshape(kept_dim, -1)
    return kept_dim, index[:, 0], index[0]


def _embed_triplets(e: Triplets, base: np.ndarray, offsets: np.ndarray,
                    scale: float) -> Triplets:
    """Triplets of scale * (E on kept factors (x) I on dropped factors)."""
    ii_e, jj_e, vv_e = e
    n_off = offsets.size
    ii = np.repeat(base[ii_e], n_off) + np.tile(offsets, ii_e.size)
    jj = np.repeat(base[jj_e], n_off) + np.tile(offsets, jj_e.size)
    vv = np.repeat(vv_e * scale, n_off)
    swap = ii > jj
    ii2 = np.where(swap, jj, ii)
    jj2 = np.where(swap, ii, jj)
    vv2 = np.where(swap, vv.conj(), vv)
    return ii2, jj2, vv2


class ProblemBuilder:
    """Incremental construction of an :class:`SdpProblem`."""

    def __init__(self, allow_large_blocks: bool = False):
        self._blocks: list[BlockSpec] = []
        self._objective: dict[str, list[Triplets]] = {}
        self._rows: list[Row] = []
        self._embeddings: list[Embedding] = []
        self._free: dict[str, tuple[str, str]] = {}
        self.allow_large_blocks = allow_large_blocks

    # -- variables -----------------------------------------------------------

    def add_psd_block(self, name: str, dim: int) -> str:
        if any(b.name == name for b in self._blocks):
            raise ValueError(f"block {name!r} already declared")
        self._blocks.append(BlockSpec(name=name, dim=int(dim)))
        return name

    def add_scalar(self, name: str) -> str:
        return self.add_psd_block(name, 1)

    def add_free_scalar(self, name: str) -> str:
        """A real scalar of either sign, split into two nonnegative parts."""
        pos = self.add_scalar(f"{name}+")
        neg = self.add_scalar(f"{name}-")
        self._free[name] = (pos, neg)
        return name

    def _scalar_parts(self, name: str) -> list[tuple[str, float]]:
        if name in self._free:
            pos, neg = self._free[name]
            return [(pos, 1.0), (neg, -1.0)]
        return [(name, 1.0)]

    # -- objective -----------------------------------------------------------

    def add_objective(self, block: str, coeff) -> None:
        """Add <coeff, X_block> to the minimization objective."""
        if np.isscalar(coeff):
            for part, sign in self._scalar_parts(block):
                self._objective.setdefault(part, []).append(
                    scalar_triplets(sign * float(coeff)))
        else:
            self._objective.setdefault(block, []).append(triplets_from_dense(coeff))

    def minimize(self, linear: dict[str, float]) -> None:
        for name, w in linear.items():
            self.add_objective(name, w)

    # -- constraints ----------------------------------------------------------

    def add_scalar_eq(self, coeffs: dict[str, float | np.ndarray], rhs: float,
                      label: str = "") -> None:
        parts: dict[str, list[Triplets]] = {}
        for name, c in coeffs.items():
            if np.isscalar(c):
                for part, sign in self._scalar_parts(name):
                    parts.setdefault(part, []).append(scalar_triplets(sign * float(c)))
            else:
                parts.setdefault(name, []).append(triplets_from_dense(c))
        self._rows.append(Row(coeffs={k: _merge_triplets(v) for k, v in parts.items()},
                              rhs=float(rhs), label=label))

    def add_scalar_ineq(self, coeffs: dict[str, float | np.ndarray], rhs: float,
                        label: str = "") -> str:
        """<coeffs, X> <= rhs via a nonnegative slack scalar; returns its name."""
        slack = self.add_scalar(f"_slack{len(self._blocks)}")
        coeffs = dict(coeffs)
        coeffs[slack] = 1.0
        self.add_scalar_eq(coeffs, rhs, label=label or f"ineq<{slack}>")
        return slack

    def add_operator_eq(self, terms: Sequence[OpTerm], rhs: np.ndarray,
                        label: str = "") -> None:
        """sum of terms = rhs, expanded over a Hermitian basis of the target."""
        rhs = as_hermitian(rhs)
        d = rhs.shape[0]
        start = len(self._rows)
        prepared, embeddings = [], []
        for t in terms:
            if t.kind in ("full", "ptrace"):
                bdim = self._block_dim(t.block)
                dims, drop = ((bdim,), ()) if t.kind == "full" else (t.dims, t.drop)
                if int(np.prod(dims)) != bdim:
                    raise ValueError(f"layout {dims} does not match block "
                                     f"{t.block!r} of dimension {bdim}")
                kept_dim, base, offsets = _ptrace_embedding(dims, drop)
                if kept_dim != d:
                    raise ValueError(f"term on {t.block!r} has dimension "
                                     f"{kept_dim}, target has {d}")
                prepared.append((t.kind, t.block, t.scale, (base, offsets)))
                embeddings.append(Embedding(t.block, start, d, dims, drop, t.scale))
            elif t.kind == "scalar":
                if t.matrix.shape[0] != d:
                    raise ValueError("scalar term matrix does not match the target")
                if t.block not in self._free and self._block_dim(t.block) != 1:
                    raise ValueError(f"scalar term on {t.block!r} needs a dimension-1 block")
                prepared.append(("scalar", t.block, t.scale, t.matrix))
            else:
                raise ValueError(f"unknown term kind {t.kind!r}")
        self._embeddings += embeddings

        for r, e in enumerate(hermitian_basis_triplets(d)):
            parts: dict[str, list[Triplets]] = {}
            for kind, block, scale, aux in prepared:
                if kind == "full":
                    ii, jj, vv = e
                    parts.setdefault(block, []).append((ii, jj, vv * scale))
                elif kind == "ptrace":
                    base, offsets = aux
                    parts.setdefault(block, []).append(
                        _embed_triplets(e, base, offsets, scale))
                else:
                    w = scale * _triplet_inner(e, aux)
                    if w != 0.0:
                        for part, sign in self._scalar_parts(block):
                            parts.setdefault(part, []).append(scalar_triplets(sign * w))
            self._rows.append(Row(
                coeffs={k: _merge_triplets(v) for k, v in parts.items()},
                rhs=_triplet_inner(e, rhs),
                label=f"{label}[{r}]" if label else ""))

    def add_operator_ineq(self, terms: Sequence[OpTerm], rhs: np.ndarray,
                          label: str = "") -> str:
        """sum of terms >= rhs via a PSD slack block; returns the slack name."""
        rhs = as_hermitian(rhs)
        d = rhs.shape[0]
        slack = self.add_psd_block(f"_psd_slack{len(self._blocks)}", d)
        self.add_operator_eq(list(terms) + [full_term(slack, -1.0)], rhs,
                             label=label or f"opineq<{slack}>")
        return slack

    def _block_dim(self, name: str) -> int:
        for b in self._blocks:
            if b.name == name:
                return b.dim
        raise KeyError(f"no block named {name!r}")

    def build(self) -> SdpProblem:
        objective = {k: _merge_triplets(v) for k, v in self._objective.items()}
        p = SdpProblem(blocks=list(self._blocks), objective=objective,
                       rows=list(self._rows),
                       allow_large_blocks=self.allow_large_blocks,
                       embeddings=list(self._embeddings))
        p.validate()
        return p


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def dump_problem(problem: SdpProblem, path: str) -> None:
    """Write the assembled problem as documented plain-text sparse triplets.

    Format (one record per line, '#' starts a comment):

        block <index> <name> <complex_dim>
        obj   <block_index> <row> <col> <re> <im>
        con   <constraint_index> <block_index> <row> <col> <re> <im>
        rhs   <constraint_index> <value>

    Only canonical entries with row <= col are listed; the mirrored conjugate
    entry is implied.  Suitable for cross-checking against external solvers.
    """
    index = {b.name: k for k, b in enumerate(problem.blocks)}
    with open(path, "w") as fh:
        fh.write("# vbroadcast SDP dump: minimize sum_k <C_k, X_k> "
                 "s.t. <A_i, X> = b_i, X >= 0\n")
        for k, b in enumerate(problem.blocks):
            fh.write(f"block {k} {b.name} {b.dim}\n")
        for name, (ii, jj, vv) in problem.objective.items():
            for i, j, v in zip(ii, jj, vv):
                fh.write(f"obj {index[name]} {i} {j} {v.real:.17g} {v.imag:.17g}\n")
        for r, row in enumerate(problem.rows):
            for name, (ii, jj, vv) in row.coeffs.items():
                for i, j, v in zip(ii, jj, vv):
                    fh.write(f"con {r} {index[name]} {i} {j} "
                             f"{v.real:.17g} {v.imag:.17g}\n")
        for r, row in enumerate(problem.rows):
            fh.write(f"rhs {r} {row.rhs:.17g}\n")
