"""Quantum-authenticated transmission: pad encryption, coset encoding,
syndrome verification, decode and decrypt.

The "specific unitary operations" of the sending step are the standard
quantum one-time pad: two secret bits per logical qubit selecting
I / X / Z / XZ, whose operators depend only on the bits and are cached by
them in a bounded ``functools.lru_cache``.  A syndrome mismatch on receive
rejects the block and no logical state is released.

A block's secrets depend only on its family's shape (r, s), whose keys
are 0 .. 2^s - 1, so ``keygen`` needs no codes.  A block that nothing
touches between send and receive is accepted with certainty and returned
exactly, so after ``keygen`` it takes only the receive's draws
(``untouched_receive``) and needs neither the block nor the codes.
"""
from __future__ import annotations

import functools
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


def keygen(r: int, s: int, rng) -> AuthKeys:
    """Uniform secrets for one authenticated block of an (r, s) family: a
    key of its 2^s, then 2t pad bits and u - t syndrome bits."""
    k = int(rng.integers(0, 2 ** s))
    t = (r - 1) * s
    # the pad and syndrome bits in one draw: each bit takes the bit
    # generator's next 32-bit word, so two draws gave the same bits
    bits = rng.integers(0, 2, size=r * s + t)
    return AuthKeys(k=k, x=bits[:2 * t], y=bits[2 * t:])


def untouched_receive(s: int, rng) -> None:
    """Take the draws that ``auth_receive_in_place`` makes on a block of
    an (r, s) family when nothing acted on it since ``auth_send_in_place``:
    one per syndrome generator.  Such a block reads its syndrome y with
    certainty and decodes to exactly the block that was sent, so the
    caller keeps that block as it was."""
    rng.random(s)  # the same doubles, and generator state, as s scalar draws


@functools.lru_cache(maxsize=2 ** 10)
def _pad_operators(pad: bytes) -> tuple:
    """X^a Z^b on qubit j for pad bits (a, b) = (pad[2j], pad[2j+1]),
    and its inverse Z^b X^a = (-1)^(a.b) X^a Z^b; cached by the bits."""
    xs = zs = 0
    for a, b in zip(pad[0::2], pad[1::2]):
        xs, zs = xs << 1 | a & 1, zs << 1 | b & 1
    t = len(pad) // 2
    return (PauliOperator(t, xs, zs),  # phase untracked
            PauliOperator(t, xs, zs, 2 * (xs & zs).bit_count()))


def apply_pad(state, x_bits, labels, inverse: bool = False):
    """Quantum one-time pad X^x1 Z^x2 per qubit on the given labels."""
    if len(x_bits) != 2 * len(labels):
        raise InvalidArgumentError("pad must have 2 bits per label")
    pad, unpad = _pad_operators(np.asarray(x_bits, dtype=np.uint8).tobytes())
    return states.apply_pauli(state, unpad if inverse else pad, labels)


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
