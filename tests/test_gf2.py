import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import gf2
from qkdnet.errors import InvalidArgumentError

rows_and_vecs = st.integers(1, 12).flatmap(lambda w: st.tuples(
    st.lists(st.integers(0, 2 ** w - 1), max_size=5),
    st.lists(st.integers(0, 2 ** w - 1), min_size=1, max_size=10)))


@settings(deadline=None)
@given(rows_and_vecs)
def test_in_row_space_matches_span_enumeration(case):
    rows, vecs = case
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    assert gf2.in_row_space(rows, vecs).tolist() == [v in span for v in vecs]
    basis = gf2.row_reduce(rows)
    assert 2 ** len(basis) == len(span)
    leads = [b.bit_length() for b in basis]
    assert leads == sorted(set(leads), reverse=True) and 0 not in leads


@settings(deadline=None)
@given(rows_and_vecs, st.sampled_from([np.uint8, np.uint16, np.uint32]))
def test_in_row_space_of_an_unsigned_array(case, dtype):
    # vectors held in a narrow unsigned type give the int64 answer, and the
    # caller's array is left as it was
    rows, vecs = (
        [v % (np.iinfo(dtype).max + 1) for v in part] for part in case)
    held = np.array(vecs, dtype=dtype)
    got = gf2.in_row_space(rows, held)
    assert got.tolist() == gf2.in_row_space(rows, vecs).tolist()
    assert held.tolist() == vecs


@settings(deadline=None)
@given(st.integers(1, 10).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, 2 ** w - 1), max_size=8))))
def test_kernel_matches_brute_force(case):
    width, rows = case
    null = {v for v in range(2 ** width)
            if all((v & r).bit_count() % 2 == 0 for r in rows)}
    basis = gf2.kernel(rows, width)
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    assert span == null
    assert len(basis) == width - len(gf2.row_reduce(rows))


def _clmul_mod(a, b, s):
    """GF(2^s) product by shift-and-add, one bit of b at a time."""
    r = 0
    for k in range(s):
        if b >> k & 1:
            r ^= a << k
    for k in range(2 * s - 2, s - 1, -1):
        if r >> k & 1:
            r ^= gf2.IRREDUCIBLE[s] << k - s
    return r


def test_field_tables_multiply_and_give_a_self_dual_basis():
    for s in range(1, 9):
        mul, form, basis = gf2.field_tables(s)
        size = 1 << s
        rng = np.random.default_rng(s)
        for a, b in rng.integers(0, size, size=(50, 2)):
            assert mul[a, b] == _clmul_mod(int(a), int(b), s)
        assert np.array_equal(form, form.T) and set(form.ravel()) <= {0, 1}
        assert np.array_equal(form[basis[:, None], basis], np.eye(s))
        assert not mul.flags.writeable and gf2.field_tables(s)[0] is mul


@settings(deadline=None)
@given(st.integers(1, 10).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, w), st.integers(1, 4),
    st.randoms(use_true_random=False))))
def test_batched_kernel_and_in_row_space_match_each_matrix(case):
    # a batch of full-rank matrices, each against its own single call
    width, rank, batch, rnd = case
    mats = []
    while len(mats) < batch:
        rows = [rnd.randrange(2 ** width) for _ in range(rank)]
        if len(gf2.row_reduce(rows)) == rank:
            mats.append(rows)
    vecs = [[rnd.randrange(2 ** width) for _ in range(6)] for _ in mats]
    for got, rows in zip(gf2.kernel(mats, width), mats):
        assert got.tolist() == gf2.kernel(rows, width).tolist()
    for got, rows, v in zip(gf2.in_row_space(mats, vecs), mats, vecs):
        assert got.tolist() == gf2.in_row_space(rows, v).tolist()
    if rank:  # one dependent matrix gives the batch two ranks
        with pytest.raises(InvalidArgumentError):
            gf2.kernel(mats + [[0] * rank], width)
