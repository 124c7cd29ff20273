"""Seeded generators for random states, unitaries, and channels."""

from __future__ import annotations

import numpy as np

from .qcore import DensityOperator, KetVector, Unitary


def random_ket(dim: int, rng: np.random.Generator) -> KetVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return KetVector(v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> Unitary:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return Unitary(q)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_cptp_kraus(dim: int, rng: np.random.Generator) -> tuple:
    """Kraus operators of a random channel: random unitary on system+qubit
    ancilla followed by tracing the ancilla."""
    u = random_unitary(dim * 2, rng).matrix
    # Ancilla starts in |0>; Kraus_k = <k_env| U |0_env>.
    blocks = u.reshape(dim, 2, dim, 2)
    return blocks[:, 0, :, 0], blocks[:, 1, :, 0]
