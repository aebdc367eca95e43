"""Symplectic bit-vector representation of multi-qubit Pauli operators.

An operator is stored as ``i**phase * prod_q X^x[q] Z^z[q]`` where the
per-qubit factor means "apply Z first, then X".  With this convention
``Y = i * X Z``.  Two operators commute iff the symplectic inner product
of their bit vectors is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}
_PHASE_VALUES = (1, 1j, -1, -1j)


def parity(v) -> np.ndarray:
    """Bit parity (popcount mod 2) of each entry of an integer array."""
    v = np.array(v, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _as_bits(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.uint8) % 2
    if arr.ndim != 1:
        raise InvalidArgumentError("bit vector must be one-dimensional")
    return arr


@dataclass
class PauliOperator:
    """A Pauli on ``len(x)`` qubits with phase ``i**phase``."""

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        self.x = _as_bits(self.x)
        self.z = _as_bits(self.z)
        if self.x.shape != self.z.shape:
            raise InvalidArgumentError("x and z bit vectors must have equal length")
        self.phase = int(self.phase) % 4

    @classmethod
    def from_string(cls, s: str, phase: int = 0) -> "PauliOperator":
        try:
            pairs = [_CHAR_TO_BITS[c] for c in s.upper()]
        except KeyError as exc:
            raise InvalidArgumentError(f"unknown Pauli letter in {s!r}") from exc
        x = np.array([p[0] for p in pairs], dtype=np.uint8)
        z = np.array([p[1] for p in pairs], dtype=np.uint8)
        # letters denote the Hermitian matrices, so each Y carries an i
        herm_phase = int(np.sum(x & z)) % 4
        return cls(x, z, (phase + herm_phase) % 4)

    @classmethod
    def from_bits_hermitian(cls, x, z) -> "PauliOperator":
        """Hermitian Pauli with the given bit pattern (phase ``i**(x.z)``)."""
        x = _as_bits(x)
        z = _as_bits(z)
        return cls(x, z, int(np.sum(x & z)) % 4)

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def phase_value(self) -> complex:
        return _PHASE_VALUES[self.phase]

    def symplectic(self) -> np.ndarray:
        """Concatenated (x | z) bit vector."""
        return np.concatenate([self.x, self.z])

    def commutes_with(self, other: "PauliOperator") -> bool:
        if other.num_qubits != self.num_qubits:
            raise InvalidArgumentError("qubit-count mismatch")
        ip = (int(self.x @ other.z) + int(self.z @ other.x)) % 2
        return ip == 0

    def to_string(self) -> str:
        return "".join(_BITS_TO_CHAR[(int(a), int(b))]
                       for a, b in zip(self.x, self.z))

    def to_matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
        z_mat = np.array([[1, 0], [0, -1]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        for a, b in zip(self.x, self.z):
            f = eye
            if a and b:
                f = x_mat @ z_mat
            elif a:
                f = x_mat
            elif b:
                f = z_mat
            m = np.kron(m, f)
        return self.phase_value * m

    def hermitian(self) -> "PauliOperator":
        """Same bit pattern, phase reset so the operator is Hermitian."""
        return PauliOperator.from_bits_hermitian(self.x, self.z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.phase == other.phase
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __repr__(self) -> str:
        # letters denote Hermitian matrices, so factor their i's out of the prefix
        herm = int(np.sum(self.x & self.z)) % 4
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[(self.phase - herm) % 4]
        return f"{pre}{self.to_string()}"


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product ``a @ b`` with exact phase tracking.

    (X^p Z^q)(X^r Z^s) = (-1)^(q.r) X^(p+r) Z^(q+s)
    """
    if a.num_qubits != b.num_qubits:
        raise InvalidArgumentError("qubit-count mismatch")
    sign = int(a.z @ b.x) % 2
    return PauliOperator((a.x ^ b.x), (a.z ^ b.z),
                         (a.phase + b.phase + 2 * sign) % 4)


def symplectic_product(u: np.ndarray, v: np.ndarray) -> int:
    """Binary symplectic form on (x | z) vectors of equal even length."""
    n = len(u) // 2
    return (int(u[:n] @ v[n:]) + int(u[n:] @ v[:n])) % 2
