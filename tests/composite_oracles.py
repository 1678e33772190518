"""Slow reference routines on composite states, kept as the tests' differential oracles.

They are the earlier, separate routines that ``core._reduce`` and the polar
factor in ``witnesses._unitary_connecting`` replaced: one permutation per
array rank, one contraction per array rank, and a connection of
purifications that inverts W1 on its numerical support and completes the
kernel with two null-space SVDs.
"""

from math import prod
from typing import Sequence

import numpy as np


def permute_matrix(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    k = len(dims)
    tens = mat.reshape(*dims, *dims)
    axes = list(perm) + [k + i for i in perm]
    new = tens.transpose(axes)
    n = prod(dims)
    return new.reshape(n, n)


def permute_vector(vec: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    return vec.reshape(*dims).transpose(perm).reshape(-1)


def contract_matrix(mat: np.ndarray, dims: Sequence[int], effect: np.ndarray, on: Sequence[int]) -> np.ndarray:
    """Tr_on[(I (x) effect) mat] after permuting the contracted factors last."""
    keep = [i for i in range(len(dims)) if i not in on]
    perm = keep + list(on)
    mat = permute_matrix(mat, dims, perm)
    dk = prod(dims[i] for i in keep)
    dd = prod(dims[i] for i in on)
    m4 = mat.reshape(dk, dd, dk, dd)
    return np.einsum("xy,aybx->ab", effect, m4)


def contract_vector(vec: np.ndarray, dims: Sequence[int], effect: np.ndarray, on: Sequence[int]) -> np.ndarray:
    keep = [i for i in range(len(dims)) if i not in on]
    perm = keep + list(on)
    vec = permute_vector(vec, dims, perm)
    dk = prod(dims[i] for i in keep)
    dd = prod(dims[i] for i in on)
    return vec.reshape(dk, dd) @ effect


def null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis as columns: right singular vectors past 1e-12 relative."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    num = int(np.sum(s > 1e-12 * np.amax(s, initial=0.0)))
    return vh[num:].conj().T


def unitary_connecting(w1: np.ndarray, w2: np.ndarray, *, tol: float = 1e-9) -> np.ndarray:
    """X with W1 X = W2 and X X^dag = I, given W1 W1^dag = W2 W2^dag.

    On the row space of W1 it is W1^+ W2, the rank of W1 decided on the
    eigenvalue scale of W1 W1^dag (s^2 > tol s_max^2); the kernel rows are
    completed with orthonormal rows orthogonal to that image.
    """
    if np.abs(w1 @ w1.conj().T - w2 @ w2.conj().T).max() > np.sqrt(tol):
        raise ValueError("no connecting symmetry: the marginals differ")
    real = bool(np.isrealobj(w1) and np.isrealobj(w2))
    p1, s1, q1h = np.linalg.svd(w1, full_matrices=False)
    r = int(np.sum(s1**2 > tol * max(s1[0], 1.0) ** 2)) if s1.size else 0
    p1, s1, q1h = p1[:, :r], s1[:r], q1h[:r, :]
    y = (np.diag(1.0 / s1) @ p1.conj().T @ w2) if r else np.zeros((0, w2.shape[1]))
    q1 = q1h.conj().T
    q1c = null_space(q1.conj().T)
    x = q1 @ y
    if q1c.shape[1]:
        x = x + q1c @ null_space(y).conj().T[: q1c.shape[1]]
    if real:
        x = x.real
    return x
