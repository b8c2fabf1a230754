"""Exact diagonalization of the critical RSOS height chain.

Basis states are height strings (a_1 ... a_L), a_i in 1..m, with
|a_i - a_{i+1}| = 1 cyclically.  The Hamiltonian H = -sum_i e_i is built from
Temperley-Lieb generators whose weights involve sin(pi k a / (m+1)).

Both lattice models solve the zero-momentum sector split into classes of
rotation orbits under involutions (``symmetry_classes``: the chain's mirror;
the reflection and the height flip a -> m + 1 - a here), one block per
character, filled from the entries at the class representatives
(``class_blocks``).  ``sector_pairs`` solves each block once for right
vectors R, covectors the rows of R^-1, and expands the levels it keeps
(``select_state``: one level, the solve kept on the basis).  ``sector_matrix``,
the whole sector of a dense H as one block, is the reference.  scipy.sparse is
imported only inside the functions that return a sparse matrix.

A run of heights (a_0 ... a_{n-1}) has the path code (``_path_code``)
a_0 2^(n-1) + sum_t [a_{t+1} > a_t] 2^(n-2-t); codes order like the rows
do lexicographically, so rows are looked up by ``np.searchsorted`` on codes.

Reduced density matrices are formed from bi-orthonormal eigenpairs
rho = r w (non-Hermitian chains have distinct left/right vectors) and kept
as per-block factors, one block per pair of boundary heights of the
subsystem; each block pairs every subsystem path with every environment
path, so one permutation of the states lays the factors of each block shape
out as one stack.  The first n sites are laid out once per basis and n, and
an interval from site i by that layout translated i sites.  The replica
traces Tr(D rho_A^N) carry diagonal twist insertions on those two heights,
so they are sums of per-block traces, one batched call per shape, bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

SECTOR_LIMIT = 4_000    # largest matrix handed to the dense eigensolver
MAX_SITES = 31          # path codes a_0 2^(L-1) + step bits fit one int64 (m < 2^32)


class BasisError(ValueError):
    pass


class SingularWeightError(ValueError):
    pass


class SizeError(ValueError):
    """Too large for the dense eigensolve (or the chain's dense build)."""


class DefectivePairError(RuntimeError):
    """w . r ~ 0: the eigenpair sits in a nontrivial Jordan block."""


@dataclass(frozen=True)
class HeightBasis:
    m: int
    L: int
    states: np.ndarray          # (dim, L) int8, lexicographic
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _solved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def dump(self) -> str:
        """One state per line, heights as digits."""
        return "\n".join("".join(str(int(a)) for a in row) for row in self.states) + "\n"

    @cached_property
    def _path_codes(self) -> np.ndarray:
        """Sorted codes of every open path of L heights; the n-height paths
        are their distinct n-height prefixes, ``codes >> (L - n)``.
        ``enumerate_heights`` seeds it with the codes it filters the rows from."""
        return _open_codes(self.m, self.L)

    @cached_property
    def _path_heights(self) -> np.ndarray:
        """Heights of the paths of ``_path_codes``, one int8 row each; the
        n-height paths are the first n columns of the rows where the prefix
        code ``codes >> (L - n)`` steps.  ``enumerate_heights`` seeds it with
        the rows it filters the states from."""
        return _path_rows(self._path_codes, self.L)

    @cached_property
    def _row_codes(self) -> np.ndarray:
        """The path code of each whole row, sorted; ``enumerate_heights`` seeds it."""
        return _path_code(self.states)

    @cached_property
    def _shift(self) -> np.ndarray:
        """Row of each state translated by one site."""
        return np.searchsorted(self._row_codes, _path_code(np.roll(self.states, 1, axis=1)))

    @cached_property
    def _classes(self) -> "SymmetryClasses":
        """Zero-momentum classes under the reflection a_j -> a_{L-1-j} and the
        height flip a -> m + 1 - a, which both commute with H."""
        orbit, size, reps = _orbits(self._shift)
        rows = self.states[reps]
        images = [orbit[np.searchsorted(self._row_codes, _path_code(image))]
                  for image in (rows[:, ::-1], self.m + 1 - rows)]
        return symmetry_classes(orbit, size, reps, images)


def adjacency_matrix(m: int) -> np.ndarray:
    A = np.zeros((m, m), dtype=np.int64)
    for a in range(1, m):
        A[a - 1, a] = A[a, a - 1] = 1
    return A


def basis_count(m: int, L: int) -> int:
    """Number of closed height paths: Tr(A^L) for the path-graph adjacency."""
    return int(np.trace(np.linalg.matrix_power(adjacency_matrix(m), L)))


def enumerate_heights(m: int, L: int) -> HeightBasis:
    """All cyclically admissible height strings, lexicographically ordered."""
    if m < 2 or L < 2:
        raise BasisError("need m >= 2 and L >= 2")
    if L % 2 == 1:
        raise BasisError(
            f"odd L = {L}: the height constraint is bipartite, the cyclic basis is empty"
        )
    if L > MAX_SITES:
        raise BasisError(f"L = {L}: height codes hold at most {MAX_SITES} sites")
    codes = _open_codes(m, L)
    paths = _path_rows(codes, L)
    closed = np.abs(paths[:, -1] - paths[:, 0]) == 1
    basis = HeightBasis(m=m, L=L, states=paths[closed])
    basis.__dict__.update(_path_codes=codes, _path_heights=paths,   # seeds: built once per basis
                          _row_codes=codes[closed])
    return basis


def _open_codes(m: int, n_sites: int) -> np.ndarray:
    """Sorted codes of the open paths of n_sites >= 1 heights (|a_i - a_{i+1}| = 1,
    no wrap-around), built one site at a time, each path followed by its
    down-step, then its up-step child; ``_path_rows`` gives their heights in
    lexicographic order."""
    codes = last = np.arange(1, m + 1, dtype=np.int64)
    for _ in range(n_sites - 1):
        codes = (2 * codes[:, None] + (0, 1)).ravel()
        last = (last[:, None] + (-1, 1)).ravel()
        keep = (last >= 1) & (last <= m)
        codes, last = codes[keep], last[keep]
    return codes


def _path_rows(codes: np.ndarray, n_sites: int) -> np.ndarray:
    """The height rows of path codes of n_sites >= 1 heights."""
    steps = 2 * ((codes[:, None] >> np.arange(n_sites - 2, -1, -1)) & 1) - 1
    return np.cumsum(np.column_stack([codes >> (n_sites - 1), steps]), axis=1).astype(np.int8)


def _path_code(rows: np.ndarray) -> np.ndarray:
    """The path codes of height rows of n >= 1 sites, the inverse of ``_path_rows``."""
    up = (np.diff(rows, axis=1) > 0) @ (1 << np.arange(rows.shape[1] - 2, -1, -1))
    return (rows[:, 0].astype(np.int64) << (rows.shape[1] - 1)) | up


def _weights(m: int, k: int) -> np.ndarray:
    lam = math.pi * k / (m + 1)
    w = np.array([math.sin(lam * a) for a in range(0, m + 2)])
    if np.any(np.abs(w[1 : m + 1]) < 1e-12):
        raise SingularWeightError(f"sin(lambda a) vanishes for (m, k) = ({m}, {k})")
    return w


def _tl_entries(basis: HeightBasis, w: np.ndarray, i: int):
    """(rows, cols, vals) of the nonzero elements of e_i, w = ``_weights(m, k)``."""
    m, L = basis.m, basis.L
    i %= L
    symmetric = np.all(w[1 : m + 1] > 0) or np.all(w[1 : m + 1] < 0)
    states = basis.states
    b = states[:, (i - 1) % L].astype(np.int64)
    src = np.flatnonzero(b == states[:, (i + 1) % L])
    b, a = b[src], states[src, i].astype(np.int64)
    codes = basis._row_codes
    # a_i -> a_i + 2 turns step i-1 up (or adds 2 to a_0) and step i down;
    # step L-1 is not part of a whole row's code
    raise_code = ((2 << (L - 1)) if i == 0 else (1 << (L - 1 - i))) \
        - ((1 << (L - 2 - i)) if i < L - 1 else 0)
    rows, cols, vals = [], [], []
    for step in (-1, 1):
        ap = b + step
        ok = (ap >= 1) & (ap <= m)
        rows.append(np.searchsorted(codes, codes[src[ok]] + (ap[ok] - a[ok]) // 2 * raise_code))
        cols.append(src[ok])
        num = np.sqrt(w[ap[ok]] * w[a[ok]]) if symmetric else w[ap[ok]]
        vals.append(num / w[b[ok]])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def temperley_lieb_generator(basis: HeightBasis, k: int, i: int):
    """e_i acting on height i (0-based site), periodic indexing.

    Matrix elements: for a_{i-1} = a_{i+1} = b,

        <.. a'_i ..| e_i |.. a_i ..> = f(a'_i, a_i) / sin(lambda b),

    with f = sqrt(sin(lambda a') sin(lambda a)) when all weights share one
    sign (symmetric gauge, k = 1), else f = sin(lambda a') (real gauge).
    Both choices represent the same algebra; traces are gauge invariant.
    Returns a scipy.sparse CSR matrix.
    """
    import scipy.sparse as sp
    rows, cols, vals = _tl_entries(basis, _weights(basis.m, k), i)
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))


def build_rsos_hamiltonian(m: int, k: int, L: int):
    """H = -sum_i e_i on the periodic chain; returns (H, basis), H a
    scipy.sparse CSR matrix."""
    if not 1 <= k <= m:
        raise ValueError("require 1 <= k <= m")
    # a class holds at most 4 orbits of at most L states, and the trivial block every class
    if (dim := basis_count(m, L)) > 4 * L * SECTOR_LIMIT:
        raise SizeError(f"{dim} states at L = {L}: more than {SECTOR_LIMIT} classes to solve")
    import scipy.sparse as sp
    basis, w = enumerate_heights(m, L), _weights(m, k)
    rows, cols, vals = (np.concatenate(parts)
                        for parts in zip(*(_tl_entries(basis, w, i) for i in range(L))))
    return sp.csr_matrix((-vals, (rows, cols)), shape=(basis.dim, basis.dim)), basis


def _orbits(shift: np.ndarray):
    """(orbit of each row, orbit sizes, orbit representatives) under the
    translation ``shift``; orbits are numbered in the order of their
    representatives, the smallest row of each."""
    rows = np.arange(len(shift))
    label, image = rows.copy(), shift
    while not np.array_equal(image, rows):
        np.minimum(label, image, out=label)
        image = shift[image]
    reps, orbit, size = np.unique(label, return_inverse=True, return_counts=True)
    return orbit, size, reps


def check_sector_size(dim: int) -> None:
    if dim > SECTOR_LIMIT:
        raise SizeError(f"solved dimension {dim} exceeds {SECTOR_LIMIT}")


class SymmetryClasses(NamedTuple):
    orbit: np.ndarray            # rotation orbit of each state
    reps: np.ndarray             # state representing each class: its head orbit's smallest
    n_states: np.ndarray         # N_c, the states of each class
    cls: np.ndarray              # class of each orbit
    chars: list                  # (keep, sign) per character, see ``symmetry_classes``


def symmetry_classes(orbit, size, reps, images) -> SymmetryClasses:
    """Zero-momentum classes (Sandvik, AIP Conf. Proc. 1297, 2010) under
    involutions g_i that commute with each other and the translation:
    ``images[i][a]`` is the orbit of g_i on orbit a.  A class is an orbit
    with its images, headed by the smallest.  Character x (chi_i = -1 where
    bit i of x is set) spans sum_{s in c} chi(g_s) |s> / sqrt(N_c), g_s taking
    the head to the orbit of s, where chi is trivial on the head's stabiliser
    (``keep``); ``sign`` is chi(g_a) on each orbit a."""
    group = [np.arange(len(size))]           # element g has g_i as a factor where bit i is set
    for img in images:
        group += [img[g] for g in group]
    group = np.array(group)
    head = group.min(axis=0)
    heads, cls, n_orbits = np.unique(head, return_inverse=True, return_counts=True)
    to_head, fixes = np.argmax(group == head, axis=0), group[:, heads] == heads
    chis = (np.array([(-1.0) ** bin(g & x).count("1") for g in range(len(group))])
            for x in range(len(group)))
    return SymmetryClasses(orbit, reps[heads], size[heads] * n_orbits, cls, [
        (np.all(fixes <= (chi[:, None] == 1), axis=0), chi[to_head]) for chi in chis])


def class_blocks(sc: SymmetryClasses, src, tgt, coefs) -> list:
    """(keep, [block per coefs row], index, p) per non-empty character of
    ``sc``, for operators that commute with the translation and the
    involutions: ``coefs[o][e]`` is operator o's entry from class
    representative ``sc.reps[src[e]]`` to state ``tgt[e]``.  An entry adds
    sqrt(N_src / N_tgt) chi(tgt) coef, one ``np.bincount`` per block, after
    ``check_sector_size`` has passed every block.  P[s, index[s]] = p[s]."""
    check_sector_size(max(int(keep.sum()) for keep, _ in sc.chars))
    row, state_cls = sc.cls[sc.orbit[tgt]], sc.cls[sc.orbit]
    scale = np.sqrt(sc.n_states[src] / sc.n_states[row])
    out = []
    for keep, sign in sc.chars:
        n, pos = int(keep.sum()), np.cumsum(keep) - 1
        ok = keep[row] & keep[src]
        flat = (pos[row] * n + pos[src])[ok]
        if n:
            out.append((keep, [np.bincount(flat, (scale * sign[sc.orbit[tgt]] * c)[ok], n * n)
                               .reshape(n, n) for c in coefs], pos[state_cls],
                        sign[sc.orbit] * keep[state_cls] / np.sqrt(sc.n_states[state_cls])))
    return out


def sector_matrix(H: np.ndarray, shift: np.ndarray):
    """(P^T H P as a dense array, orbit, p): the zero-momentum block of the
    dense H, with P[s, orbit[s]] = p[s] the only nonzero of row s of P.

    H must commute with the translation ``shift``.  The block is read off
    the orbit representatives t_b (momentum states, as in Sandvik, AIP Conf.
    Proc. 1297, 2010): (P^T H P)[a, b] = sqrt(|b| / |a|) sum_{s in a} H[s, t_b].
    A sector above SECTOR_LIMIT raises ``SizeError`` before H is read.
    """
    orbit, size, reps = _orbits(shift)
    check_sector_size(len(size))
    # rows sorted by orbit, so each orbit's rows are one run for reduceat
    sums = np.add.reduceat(H[np.ix_(np.argsort(orbit, kind="stable"), reps)],
                           np.cumsum(size) - size, axis=0)
    return sums * np.sqrt(size / size[:, None]), orbit, (1.0 / np.sqrt(size))[orbit]


@dataclass
class EigenPair:
    energy: complex
    right: np.ndarray
    left: np.ndarray            # covector: left @ right == 1

    def check(self, H, tol=1e-10) -> bool:
        """Bi-orthonormality, and each residual relative to its own vector."""
        wr = self.left * self.right    # w r cancels 1e4-fold at (4,3), L = 16: fsum
        r = abs(complex(math.fsum(wr.real), math.fsum(wr.imag)) - 1.0) < 1e-12
        hr = np.linalg.norm(H @ self.right - self.energy * self.right)
        hl = np.linalg.norm(self.left @ H - self.energy * self.left)
        e = max(1.0, abs(self.energy))
        return (r and hr <= tol * np.linalg.norm(self.right) * e
                and hl <= tol * np.linalg.norm(self.left) * e)


def eigensystem(H: np.ndarray, shift: np.ndarray, n_states: int = 6) -> list[EigenPair]:
    """Lowest-(real part) zero-momentum eigenpairs of the dense H: ``sector_pairs``
    on the one block of ``sector_matrix``, ``shift[s]`` the row of s translated by one site."""
    return sector_pairs([sector_matrix(H, shift)], n_states)


def sector_pairs(blocks: list, n_states: int) -> list:
    """The n_states pairs of lowest real part over ``blocks`` (Hs, index, p), in
    that order: every level of ``_solve_levels`` expanded by ``_expand_level``."""
    return [_expand_level(level, blocks) for level in _solve_levels(blocks, n_states)]


def _solve_levels(blocks: list, n_states: int) -> list:
    """The n_states levels (energy, block number, r, w) of lowest real part over
    ``blocks`` (Hs, index, p), ties in block order: Hs = P^H H P, P (orthonormal
    columns) with one nonzero per row, P[s, index[s]] = p[s].  Each Hs is solved once
    for right vectors R, covectors the rows of W = R^-1, so W R = I also in degenerate
    and conjugate clusters; its n_states lowest levels are kept as copies of their
    columns of R and rows of W.  The n_states lowest of those are selected, then
    checked: a level's condition |w||r|/|w r| > 1e10 or residual > 1e-10 |v| max(1, |E|)
    raises DefectivePairError."""
    levels = []
    for b, (Hs, *_) in enumerate(blocks):
        evals, R = np.linalg.eig(Hs)
        try:
            W = np.linalg.inv(R)
        except np.linalg.LinAlgError as exc:
            raise DefectivePairError("singular eigenvector matrix (Jordan block?)") from exc
        levels += [(evals[i], b, R[:, i].copy(), W[i].copy())
                   for i in np.argsort(evals.real)[:n_states]]
    levels = sorted(levels, key=lambda level: level[0].real)[:n_states]     # stable
    for energy, b, r, w in levels:
        Hs = blocks[b][0]
        kappa = np.linalg.norm(w) * np.linalg.norm(r) / np.abs(np.sum(w * r))
        res_r = np.linalg.norm(Hs @ r - energy * r) / np.linalg.norm(r)
        res_l = np.linalg.norm(w @ Hs - energy * w) / np.linalg.norm(w)
        tol = 1e-10 * max(1.0, abs(energy))
        if not (kappa <= 1e10 and res_r <= tol and res_l <= tol):
            raise DefectivePairError(
                f"pair at E = {energy:.6g}: condition {kappa:.3g}, residuals "
                f"{res_r:.1e} (right), {res_l:.1e} (left); Jordan block?")
    return levels


def _expand_level(level: tuple, blocks: list) -> EigenPair:
    """A level of ``_solve_levels`` as a pair in fresh arrays, r = P r_b,
    w = w_b P^H, phased so that the largest entry of r is real and positive;
    ``blocks[b]`` ends in the (index, p) of P."""
    energy, b, r, w = level
    index, p = blocks[b][-2:]
    right, left = (r[index] * p).astype(complex), (w[index] * p.conj()).astype(complex)
    ph = right[[np.argmax(np.abs(right))]]
    ph = ph / np.abs(ph)
    right, left = right / ph, left * ph
    if abs(energy.imag) < 1e-9 and abs(right.imag).max() < 1e-9 * max(abs(right.real).max(), 1e-300):
        right.imag[:] = left.imag[:] = 0.0
    # last, on the expanded r: w r cancels 1e4-fold, and a plain dot left
    # |w r - 1| = 1.1e-12 at (4,3), L = 16; np.sum is pairwise
    left /= np.sum(left * right)
    return EigenPair(complex(energy), right, left)


def sector_blocks(H, basis: HeightBasis) -> list:
    """The (reflection, flip) blocks (Hs, index, p) of the zero-momentum sector of
    the sparse H, read off its columns at the ``basis._classes`` representatives."""
    sc = basis._classes
    cols = H.tocsc()[:, sc.reps]
    src = np.repeat(np.arange(len(sc.reps)), np.diff(cols.indptr))
    return [(Hs, index, p) for _, (Hs,), index, p
            in class_blocks(sc, src, cols.indices, [cols.data])]


def select_state(H, basis: HeightBasis, which: str) -> EigenPair:
    """"ground": lowest energy; "vacuum": next real level, of the 12 lowest
    zero-momentum levels of all four ``sector_blocks``.  No parity is
    assumed: those of the two states vary with the model and with L.  The
    checked solve of the last H stays on the basis with each block's index
    and p, keyed by a kept copy of H's CSR indptr, indices and data bytes (the
    shape is the basis's): an equal H, in any sparse format, builds no blocks.
    Only the returned pair is expanded, into fresh arrays."""
    if which not in ("ground", "vacuum"):
        raise ValueError("state must be 'ground' or 'vacuum'")
    if H.shape != (basis.dim, basis.dim):
        raise ValueError(f"H of shape {H.shape} on a basis of {basis.dim} states")
    csr = H.tocsr()
    key = (csr.indptr, csr.indices, csr.data.view(np.uint8))
    memo = basis._solved        # the last H solved here: key, dtype, levels, (index, p) per block
    if not (memo and memo["dtype"] == csr.dtype and all(map(np.array_equal, memo["key"], key))):
        blocks = sector_blocks(H, basis)
        memo.clear()
        memo.update(key=tuple(a.copy() for a in key), dtype=csr.dtype,
                    levels=_solve_levels(blocks, 12), maps=[(index, p) for _, index, p in blocks])
    real = [level for level in memo["levels"] if abs(level[0].imag) < 1e-8]
    i = 0 if which == "ground" else 1
    if i >= len(real):
        raise ValueError(f"no {which} state: {len(real)} real level(s) in the sector")
    return _expand_level(real[i], memo["maps"])


# ---------------------------------------------------------------------------
# reduced density matrices and twisted replica traces


class DensityBlock(NamedTuple):
    """One boundary-height block of rho_A, stored by its factors:
    rho_b = right @ left.T, rows and columns indexed by ``rows``."""
    label: tuple                 # (a_i, a_j)
    rows: np.ndarray             # indices into ReducedDensity.sub_states
    right: np.ndarray            # R_b: r over (subsystem path, environment path)
    left: np.ndarray             # W_b: w over the same pairs


@dataclass
class ReducedDensity:
    """rho_A by its blocks in label order; ``groups`` holds them as stacks for the traces."""
    sites: tuple                 # (i, j) inclusive, branch heights at i and j
    sub_states: np.ndarray       # (nsub, j-i+1) int8
    block_labels: np.ndarray     # (nsub, 2): boundary heights (a_i, a_j)
    blocks: list                 # DensityBlock per (a_i, a_j) that occurs

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense rho_A (trace 1), assembled from the blocks on first use."""
        n = len(self.sub_states)
        rho = np.zeros((n, n), dtype=complex)
        for blk in self.blocks:
            rho[np.ix_(blk.rows, blk.rows)] = blk.right @ blk.left.T
        return rho

    @cached_property
    def groups(self) -> list:
        """(numbers, R, W): R[t], W[t] factor block numbers[t]; ``reduced_density`` seeds one
        stack per block shape, and a density built from its blocks alone has one per block."""
        return [(np.r_[b], blk.right[None], blk.left[None]) for b, blk in enumerate(self.blocks)]


def reduced_density(basis: HeightBasis, pair: EigenPair, i: int, j: int) -> ReducedDensity:
    """rho_A for the interval of sites [i..j] from rho = r w.

    The branch-point heights a_i and a_j are shared between the bra and ket
    sheets of the replicated surface, so matrix elements between blocks with
    differing boundary heights are identically zero; the projection is
    enforced here (it also makes the sweep exactly symmetric under
    exchanging the interval with its complement).

    Each state is a (subsystem path, environment path) pair, so within a
    block rho_b = R_b W_b^T, where R_b and W_b hold r and w on those pairs.
    An environment path only has to fit a_i and a_j, so every block is the
    full product of its subsystem and environment paths: sorted by (a_i,
    a_j, subsystem code, environment code), its states are R_b row by row.
    Each shape's blocks are views of one stack of r, one of w: ``ReducedDensity.groups``.
    """
    n_sub = (j - i) % basis.L + 1
    if n_sub not in basis._layouts:
        basis._layouts[n_sub] = _interval_layout(basis, n_sub)
    sub, labels, order, blocks, groups = basis._layouts[n_sub]
    for _ in range(i % basis.L):    # from i: the first n_sub sites of the states rotated by i
        order = basis._shift.take(order)
    right, left = pair.right.take(order), pair.left.take(order)
    stacks = [(numbers, right[cut].reshape(shape), left[cut].reshape(shape))
              for numbers, cut, shape in groups]
    factors = [f for _, R, W in stacks for f in zip(R, W)]     # the groups' blocks in turn
    rd = ReducedDensity((i, j), sub, labels, [
        DensityBlock(lab, rows, *factors[t]) for lab, rows, t in blocks])
    rd.groups = stacks      # seeds the cached property
    return rd


def _interval_layout(basis: HeightBasis, n_sub: int):
    """(sub_states, block_labels, order, blocks, groups) of the first n_sub sites, memoised
    in ``basis._layouts``: group (numbers, cut, shape) is r[order][cut] block by block, each
    row by row; block (label, rows, t) is the groups' t-th block."""
    m, n_env = basis.m, basis.L - n_sub
    prefixes = np.concatenate(([-1], basis._path_codes >> n_env))   # sorted, distinct at steps
    sub = basis._path_heights.compress(prefixes[1:] != prefixes[:-1], axis=0)[:, :n_sub]
    sub_label = sub[:, 0].astype(np.int64) * (m + 1) + sub[:, -1]
    label = basis.states[:, 0].astype(np.int64) * (m + 1) + basis.states[:, n_sub - 1]
    n_states, n_rows = (np.bincount(x, minlength=(m + 1) ** 2) for x in (label, sub_label))
    labs = np.flatnonzero(n_states)                 # label a_i (m + 1) + a_j of each block
    n_envs = np.zeros_like(n_states)                # paths a_i -> a_j: A^(n_env + 1) is symmetric
    n_envs.reshape(m + 1, m + 1)[1:, 1:] = np.linalg.matrix_power(adjacency_matrix(m), n_env + 1)
    by_shape = {}                                   # (s, e) -> block numbers, label order
    for b, (s, e, n) in enumerate(np.column_stack([n_rows, n_envs, n_states])[labs].tolist()):
        if s * e != n:
            raise BasisError("block is not a product of paths")
        by_shape.setdefault((s, e), []).append(b)
    numbers = [np.array(bs) for bs in by_shape.values()]
    rank = np.zeros(len(n_states), np.min_scalar_type(len(labs)))   # t of each label's block
    rank[labs[np.concatenate(numbers)]] = np.arange(len(labs))
    # the rows are sorted by (sub, env) code, so a stable sort keeps each block in that order
    order = np.argsort(rank.take(label), kind="stable").astype(np.int32)
    groups, stop = [], 0
    for bs, (s, e) in zip(numbers, by_shape):
        groups.append((bs, slice(stop, stop := stop + len(bs) * s * e), (len(bs), s, e)))
    rows, labels = np.argsort(sub_label, kind="stable"), sub[:, [0, -1]]   # rows by label
    for shared in (sub, labels, order, rows, *numbers):
        shared.flags.writeable = False      # every call on the basis returns them
    blocks = [(divmod(lab, m + 1), rows[end - n:end], t) for lab, n, end, t in zip(
        *(x.tolist() for x in (labs, n_rows[labs], np.cumsum(n_rows)[labs], rank[labs])))]
    return sub, labels, order, blocks, groups


def twist_weights(m: int, k: int, q: int, n: int) -> np.ndarray:
    """w[a] = sin(pi q a / (m+1)) / sin(lambda a)^n on a = 1..m (index 0 unused)."""
    if not 1 <= q <= m:
        raise ValueError("1 <= q <= m required")
    w = _weights(m, k).tolist()
    return np.array([0.0] + [math.sin(math.pi * q * a / (m + 1)) / w[a] ** n
                             for a in range(1, m + 1)])


def bare_weights(m: int, k: int, n: int) -> np.ndarray:
    """Mixing amplitudes x_q of the bare twist over the dressed family.

    Discrete sine transform of sin(lambda a)^n; with the 2/(m+1)
    normalization the round trip sum_q x_q w_q(a) = 1 is exact.
    """
    w = _weights(m, k).tolist()
    out = np.zeros(m + 1)
    for q in range(1, m + 1):
        acc = 0.0
        for a in range(1, m + 1):
            acc += w[a] ** n * math.sin(math.pi * q * a / (m + 1))
        out[q] = 2.0 / (m + 1) * acc
    return out


def renyi_twisted(rd: ReducedDensity, N: int, m: int, k: int,
                  insertion) -> tuple[complex, complex]:
    """(trace, entropy) of Tr(D rho_A^N) with the diagonal twist insertion.

    ``insertion``: integer q for the dressed twist t_q, or "bare" for the
    physical twist sum_q x_q t_q.  D acts once on the common boundary
    heights (a_i, a_j), not per replica; each shape of ``rd.groups`` is traced by one
    call.  A trace that is not finite, as at large N, raises ValueError.
    """
    if N < 2:
        raise ValueError("N >= 2 required")
    ai, aj = np.array([blk.label for blk in rd.blocks]).T
    if insertion == "bare":
        # the bare branch point carries unit weight: sum_q x_q w_q(a) = 1
        d = np.ones(len(ai))
    else:
        qi, qj = insertion if isinstance(insertion, tuple) else (int(insertion),) * 2
        w = {q: twist_weights(m, k, q, N) for q in {qi, qj}}
        d = w[qi][ai] * w[qj][aj]
    traces = np.empty(len(rd.blocks), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):     # a non-finite trace raises below
        for numbers, R, W in rd.groups:
            traces[numbers] = _power_traces(R, W, N)
        value = complex(np.sum(d * traces))
    if not np.isfinite(value):
        raise ValueError(f"Tr(D rho_A^N) = {value} at N = {N}: the power is not finite")
    return value, np.log(value + 0j) / (1 - N)


def _power_traces(R: np.ndarray, W: np.ndarray, N: int) -> np.ndarray:
    """Tr((R_t W_t^T)^N) per t of the (k, s, e) stacks, on the smaller Gram side, the last
    product only traced: sum(M^(N-1) * M^T).  Each is bitwise the 2-d calls' on its block."""
    M = W.swapaxes(1, 2) @ R if R.shape[2] < R.shape[1] else R @ W.swapaxes(1, 2)
    return (np.linalg.matrix_power(M, N - 1) * M.swapaxes(1, 2)).reshape(len(M), -1).sum(axis=1)


def entropy_curve(m: int, k: int, L: int, N: int, state: str, insertion,
                  h_twist: float, pair: Optional[EigenPair] = None,
                  basis: Optional[HeightBasis] = None) -> dict:
    """Sweep ell = 1..L-1 (branch points at sites 0 and ell).

    Returns columns (ell, trace, entropy, rescaled) where rescaled is
    trace * L^(4 h_twist), with h_twist the continuum dimension of the
    inserted twist operator.  H, the basis and the pair are built here
    unless ``pair`` and ``basis`` are given, together and fitting (m, L).
    """
    if state not in ("ground", "vacuum"):
        raise ValueError("state must be 'ground' or 'vacuum'")
    if (pair is None) != (basis is None):
        raise ValueError("give both pair and basis, or neither")
    if basis is None:
        H, basis = build_rsos_hamiltonian(m, k, L)
        pair = select_state(H, basis, state)
    elif (basis.m, basis.L) != (m, L) or len(pair.right) != basis.dim:
        raise ValueError(f"(m, L) = ({m}, {L}): a pair of {len(pair.right)} entries on "
                         f"the ({basis.m}, {basis.L}) basis of {basis.dim} states")
    ell = np.arange(1, L)
    trace, entropy = (np.array(col) for col in zip(*(
        renyi_twisted(reduced_density(basis, pair, 0, e), N, m, k, insertion) for e in ell)))
    return {"ell": ell, "trace": trace, "entropy": entropy,
            "rescaled": trace * L ** (4 * h_twist), "L": L, "N": N, "insertion": insertion}


def fit_twist_dimension(curve: dict) -> float:
    """Least-squares slope of log|trace| vs log((L/pi) sin(pi ell / L)).

    For a conformal two-point function of twists the slope is -4 h_twist.
    The fit keeps the middle third of the chain, where lattice corrections
    (decaying with the chord length) are smallest; under 2 points there raise ValueError.
    """
    L, ell = curve["L"], curve["ell"]
    lo = max(int(np.ceil(L / 3)), 2)
    window = (ell >= lo) & (ell <= L - lo)
    if np.count_nonzero(window) < 2:
        raise ValueError(f"L = {L}: the middle third holds fewer than 2 points to fit")
    xs = np.log((L / np.pi) * np.sin(np.pi * ell[window] / L))
    return float(-np.polyfit(xs, np.log(np.abs(curve["trace"][window])), 1)[0] / 4.0)


def overlay_fit(lattice_trace: np.ndarray, prediction: np.ndarray) -> tuple[float, float]:
    """One multiplicative constant between lattice data and a prediction.

    Returns (constant, rms_relative_deviation).
    """
    t = np.asarray(lattice_trace, dtype=float)
    p = np.asarray(prediction, dtype=float)
    const = float(np.dot(t, p) / np.dot(p, p))
    rel = (t - const * p) / (const * p)
    return const, float(np.sqrt(np.mean(rel ** 2)))


def curve_csv(curve: dict, q_or_bare) -> str:
    lines = ["L,ell,N,q_or_bare,trace_re,trace_im,entropy_re,entropy_im,rescaled"]
    for ell, tr, en, rs in zip(curve["ell"], curve["trace"], curve["entropy"], curve["rescaled"]):
        vals = (tr.real, tr.imag, en.real, en.imag, rs.real)
        lines.append(f"{curve['L']},{ell},{curve['N']},{q_or_bare},"
                     + ",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"
