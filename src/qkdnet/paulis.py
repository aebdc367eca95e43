"""Packed bit-mask representation of multi-qubit Pauli operators.

An operator on ``n`` qubits is stored as ``i**phase * prod_q X^x_q Z^z_q``
where the per-qubit factor means "apply Z first, then X".  With this
convention ``Y = i * X Z``.  The bits ``x_q`` and ``z_q`` of qubit q sit at
bit ``n - 1 - q`` of the integer masks ``x`` and ``z``, so a mask reads left
to right like ``to_string()``.  Two operators commute iff the symplectic
product ``popcount(x1 & z2 ^ z1 & x2)`` is even.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTERS = "IXZY"  # indexed by x_bit + 2 * z_bit
_PHASE_VALUES = (1, 1j, -1, -1j)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
_FACTORS = (np.eye(2, dtype=complex), _X_MAT, _Z_MAT, _X_MAT @ _Z_MAT)


def parity(v) -> np.ndarray:
    """Bit parity (popcount mod 2) of each entry of an integer array."""
    v = np.array(v, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


@dataclass(frozen=True)
class PauliOperator:
    """A Pauli on ``n`` qubits: masks ``x``, ``z`` and phase ``i**phase``."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if min(self.n, self.x, self.z) < 0 or (self.x | self.z) >> self.n:
            raise InvalidArgumentError(
                f"x and z masks must fit in n = {self.n} bits")
        object.__setattr__(self, "phase", int(self.phase) % 4)

    @classmethod
    def from_string(cls, s: str, phase: int = 0) -> "PauliOperator":
        x = z = 0
        for c in s.upper():
            try:
                xb, zb = _CHAR_TO_BITS[c]
            except KeyError as exc:
                raise InvalidArgumentError(
                    f"unknown Pauli letter in {s!r}") from exc
            x, z = x << 1 | xb, z << 1 | zb
        # letters denote the Hermitian matrices, so each Y carries an i
        return cls(len(s), x, z, phase + (x & z).bit_count())

    @property
    def phase_value(self) -> complex:
        return _PHASE_VALUES[self.phase]

    def commutes_with(self, other: "PauliOperator") -> bool:
        if other.n != self.n:
            raise InvalidArgumentError("qubit-count mismatch")
        return ((self.x & other.z ^ self.z & other.x).bit_count() & 1) == 0

    def _letter_indices(self):
        """Per-qubit letter index x_bit + 2 * z_bit, qubit 0 first."""
        return [(self.x >> b & 1) | (self.z >> b & 1) << 1
                for b in range(self.n - 1, -1, -1)]

    def to_string(self) -> str:
        return "".join(_LETTERS[c] for c in self._letter_indices())

    def to_matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        for c in self._letter_indices():
            m = np.kron(m, _FACTORS[c])
        return self.phase_value * m

    def __repr__(self) -> str:
        # letters denote Hermitian matrices, so factor their i's out of the prefix
        herm = (self.x & self.z).bit_count()
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[(self.phase - herm) % 4]
        return f"{pre}{self.to_string()}"


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product ``a @ b`` with exact phase tracking.

    (X^p Z^q)(X^r Z^s) = (-1)^(q.r) X^(p+r) Z^(q+s)
    """
    if a.n != b.n:
        raise InvalidArgumentError("qubit-count mismatch")
    return PauliOperator(a.n, a.x ^ b.x, a.z ^ b.z,
                         a.phase + b.phase + 2 * (a.z & b.x).bit_count())
