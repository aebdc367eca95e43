"""GF(2^s) tables plus F2 linear algebra on integer bit rows, batched over
leading array axes."""
from __future__ import annotations

import functools

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


@functools.cache
def field_tables(s: int) -> tuple:
    """(product table, trace form, self-dual basis) of GF(2^s), elements as
    ints 0 .. 2^s - 1 in the polynomial basis; read-only, built once per s.

    ``form[a, b]`` is tr(a b); the basis b_1..b_s has tr(b_i b_j) = delta_ij
    and is the first one a depth-first search over the elements finds.
    """
    if s not in IRREDUCIBLE:
        raise InvalidArgumentError(f"unsupported field degree {s}")
    size = 1 << s
    elems = np.arange(size)
    mul = np.zeros((size, size), dtype=np.int64)
    a = elems  # a * x^k, reduced
    for k in range(s):
        mul ^= np.where(elems >> k & 1, a[:, None], 0)
        a = a << 1
        a ^= np.where(a & size, IRREDUCIBLE[s], 0)
    trace, sq = elems.copy(), elems
    for _ in range(s - 1):
        sq = mul[sq, sq]
        trace ^= sq  # lies in GF(2)
    form = trace[mul]
    # tr(c^2) = 1 rules out every c in the span of the chosen elements
    odd = [c for c in range(1, size) if form[c, c]]

    def search(chosen: list):
        if len(chosen) == s:
            return chosen
        for c in odd:
            if not form[c, chosen].any():
                found = search(chosen + [c])
                if found:
                    return found
        return None

    basis = np.array(search([]))
    for table in (mul, form, basis):
        table.flags.writeable = False
    return mul, form, basis


def _reduced(rows) -> np.ndarray:
    """Reduced echelon form along the last axis, rows kept in place: a
    nonzero row's leading bit is set in no other row; dependent rows
    become 0."""
    red = np.array(rows, ndmin=1)
    for i in range(red.shape[-1]):
        pivot = red[..., i:i + 1].copy()
        # min(r, r ^ p) clears p's leading bit from each row r that has it
        np.minimum(red, red ^ pivot, out=red)
        red[..., i:i + 1] = pivot
    return red


def row_reduce(rows) -> list:
    """Echelon basis of the F2 span of integer bit rows: nonzero rows with
    distinct leading bits, in decreasing order."""
    return sorted((int(v) for v in _reduced(rows) if v), reverse=True)


def kernel(rows, width: int) -> np.ndarray:
    """Basis of the ``width``-bit rows v with an even ``v & row`` for every
    row in ``rows``: the null space of ``rows`` as a matrix over F2.

    Rows of shape (..., m) give bases of shape (..., width - rank); every
    matrix of a batch must have the same rank.  ``width`` is at most 63.
    """
    red = _reduced(rows).astype(np.int64)
    bit = np.left_shift(1, np.arange(width), dtype=np.int64)
    has = red[..., None] & bit != 0  # [..., i, f]: row i has bit f
    lead = np.where(red != 0, bit[width - 1 - has[..., ::-1].argmax(-1)], 0)
    # one vector per free bit f: f itself plus each leading bit whose row
    # has f
    vecs = bit | (has * lead[..., None]).sum(-2)
    free = (lead[..., None] & bit == 0).all(-2)
    nullity = free.sum(-1)
    if nullity.size and nullity.min() != nullity.max():
        raise InvalidArgumentError("the matrices of a batch differ in rank")
    return vecs[free].reshape(*free.shape[:-1], -1)


def in_row_space(rows, vecs) -> np.ndarray:
    """Boolean array: which integer bit rows in ``vecs`` lie in the F2 span
    of the integer bit rows ``rows``.

    Rows of shape (..., m) test vectors of shape (..., n), batch by batch.
    An integer array ``vecs`` is reduced in a copy of its own dtype, which
    must hold every row of ``rows``; anything else is read as int64.
    """
    v = np.array(vecs, ndmin=1, dtype=getattr(vecs, "dtype", np.int64))
    basis = _reduced(rows).astype(v.dtype)
    for i in range(basis.shape[-1]):
        np.minimum(v, v ^ basis[..., i:i + 1], out=v)
    return v == 0
