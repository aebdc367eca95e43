"""Quantum-authenticated transmission: pad encryption, coset encoding,
syndrome verification, decode and decrypt.

The "specific unitary operations" of the sending step are the standard
quantum one-time pad: two secret bits per logical qubit selecting
I / X / Z / XZ.  A syndrome mismatch on receive rejects the block and no
logical state is released.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .errors import InvalidArgumentError
from .paulis import PauliOperator
from .stabilizer import PurityFamily, decode_coset_in_place, encoding_isometry

ACCEPT, REJECT = "Accept", "Reject"


@dataclass
class AuthKeys:
    """Per-member secrets: family key k, 2t-bit pad x, (u-t)-bit syndrome y."""

    k: int
    x: np.ndarray
    y: np.ndarray

    def validate(self, family: PurityFamily) -> None:
        if self.k not in family.codes:
            raise InvalidArgumentError(f"key {self.k} not in family")
        if len(self.x) != 2 * family.t:
            raise InvalidArgumentError("pad must have 2t bits")
        if len(self.y) != family.u - family.t:
            raise InvalidArgumentError("syndrome must have u - t bits")


@dataclass
class AuthOutcome:
    verdict: str  # ACCEPT or REJECT
    logical_state: object  # present iff Accept
    measured_syndrome: np.ndarray

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT


def keygen(family: PurityFamily, rng) -> AuthKeys:
    """Uniform secrets for one authenticated block of the family's t
    logical qubits."""
    keys = family.keys
    k = int(keys[rng.integers(0, len(keys))])
    x = rng.integers(0, 2, size=2 * family.t).astype(np.uint8)
    y = rng.integers(0, 2, size=family.u - family.t).astype(np.uint8)
    return AuthKeys(k=k, x=x, y=y)


def _pad_operator(x_bits, t: int) -> PauliOperator:
    """X^a Z^b on qubit j for pad bits (a, b) = (x_bits[2j], x_bits[2j+1])."""
    xs = zs = 0
    for a, b in zip(x_bits[0:2 * t:2], x_bits[1:2 * t:2]):
        xs, zs = xs << 1 | int(a) & 1, zs << 1 | int(b) & 1
    return PauliOperator(t, xs, zs)  # phase untracked


def apply_pad(state, x_bits, labels, inverse: bool = False):
    """Quantum one-time pad X^x1 Z^x2 per qubit on the given labels."""
    p = _pad_operator(x_bits, len(labels))
    if inverse:
        # (X^a Z^b)^-1 = Z^b X^a = (-1)^(a.b) X^a Z^b
        p = PauliOperator(p.n, p.x, p.z, 2 * (p.x & p.z).bit_count())
    return states.apply_pauli(state, p, labels)


def auth_send(keys: AuthKeys, family: PurityFamily, logical,
              out_labels=None):
    """Encrypt with the pad, then encode into the keyed syndrome-y coset."""
    keys.validate(family)
    if logical.num_qubits != family.t:
        raise InvalidArgumentError("logical state must have t qubits")
    return auth_send_in_place(keys, family, logical, logical.labels,
                              out_labels=out_labels)


def auth_send_in_place(keys: AuthKeys, family: PurityFamily, state,
                       block_labels, out_labels=None):
    """Same as auth_send but on a t-qubit block inside a larger state."""
    block_labels = [tuple(l) for l in block_labels]
    if len(block_labels) != family.t:
        raise InvalidArgumentError("block must have t labels")
    code = family.codes[keys.k]
    padded = apply_pad(state, keys.x, block_labels)
    iso = encoding_isometry(code, keys.y)
    if out_labels is None:
        out_labels = [("phys", i) for i in range(family.u)]
    return states.apply_isometry(padded, iso, block_labels, out_labels)


def auth_receive(keys: AuthKeys, family: PurityFamily, physical, rng,
                 out_labels=None) -> AuthOutcome:
    """Syndrome check, decode, decrypt; Reject releases no logical state."""
    keys.validate(family)
    if physical.num_qubits != family.u:
        raise InvalidArgumentError("physical state must have u qubits")
    return auth_receive_in_place(keys, family, physical, physical.labels,
                                 rng, out_labels=out_labels)


def auth_receive_in_place(keys: AuthKeys, family: PurityFamily, state,
                          block_labels, rng, out_labels=None) -> AuthOutcome:
    code = family.codes[keys.k]
    if out_labels is None:
        out_labels = [("log", i) for i in range(family.t)]
    measured, logical = decode_coset_in_place(code, state, block_labels, rng,
                                              out_labels=out_labels)
    if not np.array_equal(measured, keys.y):
        return AuthOutcome(verdict=REJECT, logical_state=None,
                           measured_syndrome=measured)
    decrypted = apply_pad(logical, keys.x, out_labels, inverse=True)
    return AuthOutcome(verdict=ACCEPT, logical_state=decrypted,
                       measured_syndrome=measured)
