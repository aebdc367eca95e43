import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import gf2

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
