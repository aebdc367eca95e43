"""Builders that only the tests need."""
from qkdnet import analysis
from qkdnet.errors import InvalidArgumentError
from qkdnet.paulis import PauliOperator


def random_density(dim: int, rng):
    """Partial trace of a Haar-random pure state of squared dimension."""
    return analysis._densities(rng.normal(size=(2, dim * dim)))


def hermitian_pauli(x_bits, z_bits) -> PauliOperator:
    """Hermitian Pauli with per-qubit bits (phase ``i**(x.z)``)."""
    if len(x_bits) != len(z_bits):
        raise InvalidArgumentError(
            "x and z bit vectors must have equal length")
    x = z = 0
    for a, b in zip(x_bits, z_bits):
        x, z = x << 1 | int(a) & 1, z << 1 | int(b) & 1
    return PauliOperator(len(x_bits), x, z, (x & z).bit_count())


class FixedDraw:
    """Stands in for a Generator whose next uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u
