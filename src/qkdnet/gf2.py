"""GF(2^s) arithmetic on integer bit representations plus F2 linear algebra
on integer bit rows."""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# irreducible polynomials over GF(2), index = degree, value includes the x^s term
IRREDUCIBLE = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


class BinaryField:
    """GF(2^s) with elements as ints 0 .. 2^s - 1 (polynomial basis)."""

    def __init__(self, s: int):
        if s not in IRREDUCIBLE:
            raise InvalidArgumentError(f"unsupported field degree {s}")
        self.s = s
        self.size = 1 << s
        self.modulus = IRREDUCIBLE[s]

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.size:
                a ^= self.modulus
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def trace(self, a: int) -> int:
        t = 0
        x = a
        for _ in range(self.s):
            t ^= x
            x = self.mul(x, x)
        # t lies in GF(2)
        return t & 1

    def self_dual_basis(self) -> list:
        """A basis b_1..b_s with tr(b_i b_j) = delta_ij (found by backtracking)."""
        elems = list(range(1, self.size))
        chosen: list[int] = []

        def ok(c: int) -> bool:
            if self.trace(self.mul(c, c)) != 1:
                return False
            return all(self.trace(self.mul(c, b)) == 0 for b in chosen)

        def independent(c: int) -> bool:
            span = {0}
            for b in chosen:
                span |= {v ^ b for v in span}
            return c not in span

        def search() -> bool:
            if len(chosen) == self.s:
                return True
            for c in elems:
                if ok(c) and independent(c):
                    chosen.append(c)
                    if search():
                        return True
                    chosen.pop()
            return False

        if not search():
            raise RuntimeError(f"no self-dual basis found for GF(2^{self.s})")
        return list(chosen)


def row_reduce(rows) -> list:
    """Echelon basis of the F2 span of integer bit rows: nonzero rows with
    distinct leading bits, in decreasing order."""
    basis: list[int] = []
    for v in rows:
        v = int(v)
        for b in basis:
            v = min(v, v ^ b)  # clears b's leading bit when v has it
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def kernel(rows, width: int) -> list:
    """Basis of the ``width``-bit rows v with an even ``v & row`` for every
    row in ``rows``: the null space of ``rows`` as a matrix over F2."""
    basis = row_reduce(rows)
    # reduced echelon form: no row keeps another row's leading bit
    for i in range(len(basis)):
        basis = [a if j == i else min(a, a ^ basis[i])
                 for j, a in enumerate(basis)]
    pivots = {b.bit_length() - 1: b for b in basis}
    # one vector per free bit f: f itself plus each pivot whose row has f
    return [(1 << f) | sum(1 << p for p, b in pivots.items() if b >> f & 1)
            for f in range(width) if f not in pivots]


def in_row_space(rows, vecs) -> np.ndarray:
    """Boolean array: which integer bit rows in ``vecs`` lie in the F2 span
    of the integer bit rows ``rows``.

    An integer array ``vecs`` is reduced in a copy of its own dtype, which
    must hold every row of ``rows``; anything else is read as int64.
    """
    v = np.array(vecs, ndmin=1, dtype=getattr(vecs, "dtype", np.int64))
    for b in row_reduce(rows):
        v ^= (v >> (b.bit_length() - 1) & 1) * b
    return v == 0
