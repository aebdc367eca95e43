import itertools
import math
import sys
import threading

import numpy as np
import pytest

from helpers import FixedDraw
from qkdnet import states
from qkdnet.adversary import ChannelSpec, depolarizing
from qkdnet.errors import CapacityError, InvalidArgumentError
from qkdnet.paulis import PauliOperator
from qkdnet.states import (CAT_KINDS, PHI_MINUS, PHI_PLUS, PSI_MINUS,
                           PSI_PLUS, DensityMatrix, PureStateVector,
                           basis_state, bures_distance, fidelity, make_cat,
                           measure_qubit, measurement_probabilities,
                           permute_labels, tensor, to_density, trace_distance)

_COEF = {PHI_PLUS: 1, PHI_MINUS: -1, PSI_PLUS: 1j, PSI_MINUS: -1j}


def reference_cat(j, kind):
    amps = np.zeros(2 ** j, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = _COEF[kind] / np.sqrt(2)
    return amps


def test_make_cat_amplitudes():
    for kind in CAT_KINDS:
        for j in (1, 2, 5):
            cat = make_cat(j, kind)
            assert np.allclose(cat.amplitudes, reference_cat(j, kind))


# The four decomposition identities splitting an n-qubit cat into an
# m-qubit and (n-m)-qubit pair.  Spelled with reference amplitudes only.
_FLIP = {PHI_PLUS: PHI_MINUS, PHI_MINUS: PHI_PLUS,
         PSI_PLUS: PSI_MINUS, PSI_MINUS: PSI_PLUS}


def _phi_decomposition(kind, m, k, via):
    """RHS amplitudes of the split identity through phi or psi pairs."""
    if via == "phi":
        first = [(PHI_PLUS, kind), (PHI_MINUS, _FLIP[kind])]
    else:
        pair = {PHI_PLUS: PSI_MINUS, PHI_MINUS: PSI_PLUS,
                PSI_PLUS: PHI_PLUS, PSI_MINUS: PHI_MINUS}
        if kind in (PHI_PLUS, PHI_MINUS):
            first = [(PSI_PLUS, pair[kind]), (PSI_MINUS, _FLIP[pair[kind]])]
        else:
            first = [(PSI_PLUS, pair[kind]), (PSI_MINUS, _FLIP[pair[kind]])]
    out = np.zeros(2 ** (m + k), dtype=complex)
    for ka, kb in first:
        out += np.kron(reference_cat(m, ka), reference_cat(k, kb))
    return out / np.sqrt(2)


@pytest.mark.parametrize("kind", CAT_KINDS)
def test_cat_decomposition_identities(kind):
    for n in range(2, 7):
        target = reference_cat(n, kind)
        for m in range(1, n):
            k = n - m
            for via in ("phi", "psi"):
                assert np.max(np.abs(
                    _phi_decomposition(kind, m, k, via) - target)) <= 1e-12, \
                    (kind, n, m, via)


def test_qubit_capacity_enforced():
    with pytest.raises(CapacityError):
        make_cat(states.MAX_QUBITS + 1, PHI_PLUS)


def test_check_capacity_admits_the_cap_and_names_what_is_refused():
    states.check_capacity(states.MAX_QUBITS, "a run")
    with pytest.raises(CapacityError,
                       match=r"^a run needs 15 qubits, above the cap of 14$"):
        states.check_capacity(states.MAX_QUBITS + 1, "a run")


def test_cat_copies_are_copy_major_plus_cats():
    owners = ["a", "b", "C"]
    state = states.cat_copies(owners, 2)
    assert state.labels == tuple((mu, c) for c in range(2) for mu in owners)
    # copy c is (|000> + |111>)/sqrt(2) on its three qubits
    want = np.zeros((8, 8))
    want[np.ix_([0, 7], [0, 7])] = 0.5
    assert np.abs(state.amplitudes - want.ravel()).max() <= 1e-15


def test_pauli_frame_densifies_copies_and_refuses_bad_input():
    initial = states.cat_copies(["a", "b"], 2)
    frame = states.PauliFrame(initial)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgumentError, match="X or Y"):
        frame.measure(("a", 0), "Z", rng)
    with pytest.raises(InvalidArgumentError, match="unknown label"):
        frame.measure(("c", 0), "X", rng)
    with pytest.raises(InvalidArgumentError, match="unknown label"):
        frame.apply_pauli(PauliOperator.from_string("X"), [("c", 0)])
    with pytest.raises(InvalidArgumentError, match="Pauli width"):
        frame.apply_pauli(PauliOperator.from_string("XX"), [("a", 0)])
    state = rng.bit_generator.state
    assert frame.densify() is initial  # nothing drawn, nothing applied
    frame.apply_pauli(PauliOperator.from_string("YZ"), [("a", 0), ("b", 1)])
    want = states.apply_pauli(initial, PauliOperator.from_string("YZ"),
                              [("a", 0), ("b", 1)])
    got = frame.densify()
    assert abs(abs(np.vdot(got.amplitudes, want.amplitudes)) - 1) <= 1e-12
    copy = frame.copy()
    frame.measure(("a", 0), "X", rng)
    assert rng.bit_generator.state != state  # one draw, as measure_qubit
    with pytest.raises(InvalidArgumentError, match="unknown label"):
        frame.measure(("a", 0), "X", rng)  # measured already
    with pytest.raises(InvalidArgumentError, match="measured frame"):
        frame.densify()
    assert copy.densify().labels == initial.labels  # the copy is untouched


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        st = PureStateVector(tuple(states.default_labels(n)), amps)
        s = "".join(rng.choice(list("IXYZ"), size=n))
        op = PauliOperator.from_string(s)
        out = states.apply_pauli(st, op)
        assert np.allclose(out.amplitudes, op.to_matrix() @ amps)


def test_apply_pauli_on_sub_block():
    st = basis_state([0, 1, 0], states.default_labels(3))
    out = states.apply_pauli(st, PauliOperator.from_string("X"),
                             [("q", 2)])
    assert np.allclose(out.amplitudes,
                       basis_state([0, 1, 1], states.default_labels(3)).amplitudes)


def test_permute_labels_moves_amplitudes():
    st = basis_state([0, 1], [("a", 0), ("b", 0)])
    sw = permute_labels(st, [("b", 0), ("a", 0)])
    assert np.allclose(sw.amplitudes,
                       basis_state([1, 0], [("b", 0), ("a", 0)]).amplitudes)


def test_measurement_probabilities_bell_correlations():
    bell = make_cat(2, PHI_PLUS)
    labels = bell.labels
    xx = measurement_probabilities(bell, {labels[0]: "X", labels[1]: "X"})
    assert np.allclose(xx, [0.5, 0, 0, 0.5])       # X outcomes agree
    yy = measurement_probabilities(bell, {labels[0]: "Y", labels[1]: "Y"})
    assert np.allclose(yy, [0, 0.5, 0.5, 0])       # Y outcomes anti-agree
    xy = measurement_probabilities(bell, {labels[0]: "X", labels[1]: "Y"})
    assert np.allclose(xy, [0.25] * 4)             # mixed bases uncorrelated


def test_measure_qubit_collapses_partner():
    rng = np.random.default_rng(0)
    for _ in range(10):
        bell = make_cat(2, PHI_PLUS)
        b0, rest = measure_qubit(bell, bell.labels[0], "Z", rng)
        b1, _ = measure_qubit(rest, rest.labels[0], "Z", rng)
        assert b0 == b1


def test_fidelity_and_trace_distance_basics():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert fidelity(z0, z0) == pytest.approx(1.0)
    assert fidelity(z0, z1) == pytest.approx(0.0)
    assert fidelity(z0, plus) == pytest.approx(0.5)
    assert trace_distance(z0, z1) == pytest.approx(1.0)
    assert trace_distance(z0, plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert bures_distance(z0, z0) == pytest.approx(0.0)
    assert bures_distance(z0, z1) == pytest.approx(np.sqrt(2))


def test_fidelity_symmetry_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a @ a.conj().T
        b = b @ b.conj().T
        a /= np.trace(a).real
        b /= np.trace(b).real
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


def test_apply_kraus_is_trace_preserving():
    # the bit flip's Kraus terms sqrt(0.7) I and sqrt(0.3) X, via apply_channel
    dm = to_density(make_cat(2, PSI_PLUS))
    bit_flip = ChannelSpec("pauli", (("I", 0.7), ("X", 0.3)))
    out = states.apply_channel(dm, bit_flip, [dm.labels[0]])
    assert np.trace(out.matrix).real == pytest.approx(1.0)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidArgumentError):
        make_cat(0, PHI_PLUS)
    with pytest.raises(InvalidArgumentError):
        make_cat(2, "ghz")
    with pytest.raises(InvalidArgumentError):
        PureStateVector((("q", 0),), np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(InvalidArgumentError):
        tensor(make_cat(2, PHI_PLUS), make_cat(2, PHI_PLUS))
    with pytest.raises(InvalidArgumentError):
        measure_qubit(make_cat(2, PHI_PLUS), ("q", 0), "Q",
                      np.random.default_rng(0))


# --------------------------------------------------------------------------
# differential tests: the vector kernels against dense matrices
# --------------------------------------------------------------------------

def _random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return PureStateVector(tuple(states.default_labels(n)),
                           amps / np.linalg.norm(amps))


def _embedded_matrix(pauli, positions, n):
    """Dense 2^n matrix of ``pauli`` acting on index bits ``positions``."""
    letters = ["I"] * n
    for c, pos in zip(pauli.to_string(), positions):  # bit b is qubit n-1-b
        letters[n - 1 - pos] = c
    # the embedding keeps every Y, so the phase beyond the Hermitian letters
    extra = pauli.phase - letters.count("Y")
    return PauliOperator.from_string("".join(letters), extra).to_matrix()


def _qubit_projector_row(evec, ax, n):
    """(2^(n-1), 2^n) map <evec| on qubit ``ax``, identity elsewhere."""
    return np.kron(np.kron(np.eye(2 ** ax), evec.conj()[None, :]),
                   np.eye(2 ** (n - 1 - ax)))


def test_pauli_on_vector_matches_dense_matrix():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        positions = [int(p) for p in rng.permutation(n)[:k]]
        letters = "".join(rng.choice(list("IXYZ"), size=k))
        pauli = PauliOperator.from_string(letters, int(rng.integers(0, 4)))
        vec = _random_state(rng, n).amplitudes
        want = _embedded_matrix(pauli, positions, n) @ vec
        got = states.pauli_on_vector(vec, pauli, positions)
        assert np.allclose(got, want, atol=1e-12), (letters, positions)


def test_pauli_on_vector_acts_on_each_column_of_a_block():
    rng = np.random.default_rng(24)
    # x-only, z-only, identity and mixed letters, at every phase
    for alphabet in ("XI", "ZI", "I", "IXYZ"):
        for phase in range(4):
            for _ in range(10):
                n = int(rng.integers(1, 6))
                k = int(rng.integers(1, n + 1))
                positions = [int(p) for p in rng.permutation(n)[:k]]
                letters = "".join(rng.choice(list(alphabet), size=k))
                pauli = PauliOperator.from_string(letters, phase)
                block = (rng.normal(size=(2 ** n, 3))
                         + 1j * rng.normal(size=(2 ** n, 3)))
                got = states.pauli_on_vector(block, pauli, positions)
                want = _embedded_matrix(pauli, positions, n) @ block
                assert np.allclose(got, want, atol=1e-12), (letters, phase)
                for c in range(3):
                    assert np.array_equal(got[:, c], states.pauli_on_vector(
                        block[:, c], pauli, positions))


def test_measure_qubit_matches_marginals_and_projectors():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        st = _random_state(rng, n)
        ax = int(rng.integers(0, n))
        label = st.labels[ax]
        basis = str(rng.choice(["X", "Y", "Z"]))
        bases = {lab: "Z" for lab in st.labels}
        bases[label] = basis
        joint = measurement_probabilities(st, bases).reshape((2,) * n)
        p0 = joint.sum(axis=tuple(a for a in range(n) if a != ax))[0]
        # outcome 0 iff the uniform draw falls below the branch probability
        for u, want_bit in ((p0 - 1e-9, 0), (p0 + 1e-9, 1)):
            bit, post = measure_qubit(st, label, basis, FixedDraw(u))
            assert bit == want_bit
            evec = states.eigenvectors(basis)[bit]
            ref = _qubit_projector_row(evec, ax, n) @ st.amplitudes
            assert np.allclose(post.amplitudes, ref / np.linalg.norm(ref),
                               atol=1e-12)
            assert post.labels == st.labels[:ax] + st.labels[ax + 1:]


def _unmemoized_measurement(st, label, basis, u):
    """The measurement kernel without the memo: project, draw ``u``,
    normalize the drawn row in place; returns (bit, row, p(0))."""
    ax = st.axis(label)
    t = st.amplitudes.reshape(2 ** ax, 2, -1).transpose(1, 0, 2)
    proj = states.eigenvectors(basis).conj() @ t.reshape(2, -1)
    rest = proj[0]
    prob = p0 = np.vdot(rest, rest).real
    bit = 0 if u < prob else 1
    if bit:
        rest = proj[1]
        prob = np.vdot(rest, rest).real
    rest /= math.sqrt(prob)
    return bit, rest, p0


def test_memoized_measurement_equals_a_fresh_one_bit_for_bit():
    rng = np.random.default_rng(41)
    # n >= 5 is above the memo's width cap and takes the same kernel
    for n in (1, 2, 3, 4, 5, 8, 9):
        first = _random_state(rng, n)
        # the same amplitudes under other labels follow
        twin = PureStateVector(tuple(("r", i) for i in range(n)),
                               first.amplitudes)
        for st in (first, twin):
            for ax, label in enumerate(st.labels):
                basis = "XYZ"[ax % 3]
                p0 = _unmemoized_measurement(st, label, basis, 0.0)[2]
                draws = [p0 - 1e-9, p0 + 1e-9]
                # a miss, then hits, drawing branch 0 or branch 1 first
                for u in (draws if ax % 2 else draws[::-1]) * 2:
                    bit, post = measure_qubit(st, label, basis, FixedDraw(u))
                    want_bit, want, _ = _unmemoized_measurement(
                        st, label, basis, u)
                    assert bit == want_bit
                    assert np.array_equal(post.amplitudes, want)
                    assert post.labels == st.labels[:ax] + st.labels[ax + 1:]


def test_measure_qubit_checks_its_arguments_before_the_memo():
    st = make_cat(3, PHI_PLUS)
    measure_qubit(st, ("q", 1), "X", FixedDraw(0.5))  # now in the memo
    for label, basis in ((("q", 7), "X"), (("q", [1]), "X"), (("q", 1), "Q"),
                         (("q", 1), "x"), (("q", 1), ["X"])):
        with pytest.raises(InvalidArgumentError):
            measure_qubit(st, label, basis, FixedDraw(0.5))


def test_measured_post_states_are_read_only():
    rng = np.random.default_rng(42)
    for n in (3, 9):  # inside and above the memo's width cap
        st = _random_state(rng, n)
        for u in (0.0, 1.0):
            _, post = measure_qubit(st, st.labels[0], "Y", FixedDraw(u))
            with pytest.raises(ValueError):
                post.amplitudes[0] = 0.0


def test_measure_memo_stays_within_its_budget():
    rng = np.random.default_rng(43)
    memo = states._measured
    memo.cache_clear()
    width = states._MEMO_MAX_AMPLITUDES.bit_length() - 1
    seen = []
    for _ in range(2000):  # at the width cap, several memos' worth in all
        st = _random_state(rng, width)
        measure_qubit(st, st.labels[3], "X", rng)
        seen.append(st)
        assert memo.cache_info().currsize <= memo.cache_info().maxsize
    assert memo.cache_info().currsize == states._MEMO_ENTRIES
    # the newest entry is kept and the oldest went first
    for st, hit in ((seen[-1], 1), (seen[0], 0)):
        before = memo.cache_info()
        measure_qubit(st, st.labels[3], "X", rng)
        assert memo.cache_info().hits == before.hits + hit


def test_states_above_the_width_cap_skip_the_memo():
    rng = np.random.default_rng(44)
    memo = states._measured
    width = states._MEMO_MAX_AMPLITUDES.bit_length() - 1
    wide = _random_state(rng, width + 1)
    before = memo.cache_info()
    measure_qubit(wide, wide.labels[0], "X", rng)
    assert memo.cache_info() == before
    at_cap = _random_state(rng, width)
    measure_qubit(at_cap, at_cap.labels[0], "X", rng)
    assert memo.cache_info().misses == before.misses + 1


def test_threads_share_the_measure_memo():
    rng = np.random.default_rng(45)
    draws = []  # (state, label, basis, u, expected bit and amplitudes)
    for n in (1, 2, 3, 4):
        st = _random_state(rng, n)
        for ax, label in enumerate(st.labels):
            basis = "XYZ"[ax % 3]
            p0 = _unmemoized_measurement(st, label, basis, 0.0)[2]
            for u in (p0 - 1e-9, p0 + 1e-9):
                bit, want, _ = _unmemoized_measurement(st, label, basis, u)
                draws.append((st, label, basis, u, bit, want))
    states._measured.cache_clear()
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def worker(out):
        start.wait(timeout=30)
        for _ in range(3):
            for st, label, basis, u, want_bit, want in draws:
                bit, post = measure_qubit(st, label, basis, FixedDraw(u))
                out.append(bit == want_bit
                           and np.array_equal(post.amplitudes, want))

    threads = [threading.Thread(target=worker, args=(out,))
               for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == [True] * 3 * len(draws) for out in results)
    # one entry per measurement (two draws each), whichever thread built it
    assert states._measured.cache_info().currsize == len(draws) // 2


def test_measure_pauli_matches_dense_projectors():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        st = _random_state(rng, n)
        k = int(rng.integers(1, n + 1))
        axes = [int(a) for a in rng.permutation(n)[:k]]
        letters = "".join(rng.choice(list("XYZ"), size=k))
        pauli = PauliOperator.from_string(letters)  # Hermitian
        dense = _embedded_matrix(pauli, [n - 1 - a for a in axes], n)
        labels = [st.labels[a] for a in axes]
        eye = np.eye(2 ** n)
        plus = (eye + dense) / 2 @ st.amplitudes
        pplus = np.vdot(plus, plus).real
        for u, want_bit in ((pplus - 1e-9, 0), (pplus + 1e-9, 1)):
            bit, post = states.measure_pauli(st, pauli, labels,
                                             FixedDraw(u))
            assert bit == want_bit
            sign = 1 if bit == 0 else -1
            ref = (eye + sign * dense) / 2 @ st.amplitudes
            assert np.allclose(post.amplitudes, ref / np.linalg.norm(ref),
                               atol=1e-12)
            assert post.labels == st.labels


def test_measure_pauli_rejects_a_non_hermitian_pauli():
    st = make_cat(2, PHI_PLUS)
    rng = np.random.default_rng(0)
    # XZ = -iY, iX and -X(XZ) = iXY: a measurement needs real eigenvalues
    for pauli in (PauliOperator(1, 1, 1, 0), PauliOperator(1, 1, 0, 1),
                  PauliOperator(2, 0b11, 0b01, 2)):
        labels = st.labels[:pauli.n]
        with pytest.raises(InvalidArgumentError, match="not Hermitian"):
            states.measure_pauli(st, pauli, labels, rng)
    # i XZ = Y and -X are Hermitian
    for pauli in (PauliOperator(1, 1, 1, 1), PauliOperator(1, 1, 0, 2)):
        bit, post = states.measure_pauli(st, pauli, [st.labels[0]], rng)
        assert bit in (0, 1) and post.labels == st.labels


def test_apply_isometry_checks_labels_and_norm():
    st = make_cat(2, PHI_PLUS, [("a", 0), ("b", 0)])
    iso = np.eye(4, 2, dtype=complex)  # |x> -> |0 x>
    out = states.apply_isometry(st, iso, [("a", 0)], [("p", 0), ("p", 1)])
    assert out.labels == (("p", 0), ("p", 1), ("b", 0))
    assert np.isclose(np.vdot(out.amplitudes, out.amplitudes).real, 1.0)
    bad = [
        (InvalidArgumentError, [("a", 0)], [("p", 0), ("p", 0)]),
        (InvalidArgumentError, [("a", 0)], [("p", 0), ("b", 0)]),
        (InvalidArgumentError, [("c", 0)], [("p", 0), ("p", 1)]),
    ]
    for error, ins, outs in bad:
        with pytest.raises(error):
            states.apply_isometry(st, iso, ins, outs)
    with pytest.raises(InvalidArgumentError, match="unique"):
        states.apply_isometry(st, np.eye(16, 4, dtype=complex),
                              [("a", 0), ("a", 0)],
                              [("p", i) for i in range(4)])
    with pytest.raises(CapacityError):
        states.apply_isometry(st, np.eye(2 ** states.MAX_QUBITS, 2),
                              [("a", 0)],
                              [("p", i) for i in range(states.MAX_QUBITS)])
    # the result's norm is still checked: 2x is no isometry
    with pytest.raises(InvalidArgumentError, match="norm"):
        states.apply_isometry(st, 2 * iso, [("a", 0)], [("p", 0), ("p", 1)])


def test_state_with_nan_amplitude_rejected():
    with pytest.raises(InvalidArgumentError):
        PureStateVector((("q", 0),), np.array([np.nan, 0.0], dtype=complex))


# --------------------------------------------------------------------------
# differential tests: the fidelity and Kraus fast paths against the
# explicit formulas
# --------------------------------------------------------------------------

def _uhlmann(a, b):
    """tr(sqrt(sqrt(A) B sqrt(A)))^2 with both square roots taken."""
    sa = states.sqrtm_psd(a)
    return float(np.trace(states.sqrtm_psd(sa @ b @ sa)).real) ** 2


def _random_mixed(rng, n, rank):
    """Density matrix of the given rank on n qubits."""
    g = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_pure_side_fidelity_matches_uhlmann():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        psi = _random_state(rng, n)
        phi = _random_state(rng, n)
        rho = _random_mixed(rng, n, int(rng.integers(1, 2 ** n + 1)))
        others = [(rho, rho), (DensityMatrix(psi.labels, rho), rho),
                  (phi, to_density(phi).matrix)]
        for other, dense in others:
            want = _uhlmann(to_density(psi).matrix, dense)
            assert fidelity(psi, other) == pytest.approx(want, abs=1e-12)
            assert fidelity(other, psi) == pytest.approx(want, abs=1e-12)


def test_pure_side_fidelity_rejects_dimension_mismatch():
    psi = make_cat(2, PHI_PLUS)
    for other in (to_density(make_cat(3, PHI_PLUS)), np.eye(8) / 8,
                  make_cat(1, PHI_PLUS), np.full(4, 0.5), np.eye(4)[:, :2]):
        with pytest.raises(InvalidArgumentError):
            fidelity(psi, other)
        with pytest.raises(InvalidArgumentError):
            fidelity(other, psi)


def test_mixed_fidelity_eigenvalue_trace_matches_uhlmann():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3):
        d = 2 ** n
        for _ in range(5):
            a = _random_mixed(rng, n, d)
            b = _random_mixed(rng, n, d)
            assert fidelity(a, b) == pytest.approx(_uhlmann(a, b), abs=1e-12)
        # rank-deficient on either side and on both: M = sqrt(A) B sqrt(A)
        # has exact zero eigenvalues whose round-off the explicit formula's
        # cut, relative to M's largest eigenvalue, can let through; the
        # nuclear norm |sqrt(A) sqrt(B)|_1 has only O(eps) round-off
        for rank_a, rank_b in ((1, d), (d, d // 2), (d // 2, 1), (1, 1)):
            for _ in range(5):
                a = _random_mixed(rng, n, rank_a)
                b = _random_mixed(rng, n, rank_b)
                sv = np.linalg.svd(states.sqrtm_psd(a) @ states.sqrtm_psd(b),
                                   compute_uv=False)
                assert fidelity(a, b) == pytest.approx(sv.sum() ** 2,
                                                       abs=1e-12)


def _random_pauli_table(rng, k):
    """A channel of random weights over every k-letter Pauli string."""
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=k)]
    w = rng.dirichlet(np.full(len(strings), 0.3))
    return ChannelSpec("pauli", zip(strings, w / w.sum()))


def _embedded_operator(kmat, axes, n):
    """Dense 2^n matrix of ``kmat`` acting on the qubits ``axes``, in order."""
    order = list(axes) + [a for a in range(n) if a not in axes]
    full = np.kron(kmat, np.eye(2 ** (n - len(axes)))).reshape((2,) * (2 * n))
    inv = [int(i) for i in np.argsort(order)]
    return full.transpose(inv + [n + i for i in inv]).reshape(2 ** n, 2 ** n)


@pytest.mark.parametrize("axes", [[3], [4, 1], [0, 2], [3, 0, 2], [4, 2, 0]])
def test_apply_kraus_matches_explicit_sum(axes):
    # apply_channel with a block-wide table on targets out of label order,
    # against the explicit sum over its Kraus terms, sum p P rho P^dagger
    rng = np.random.default_rng(26)
    n = 5
    labels = tuple(states.default_labels(n))
    rho = DensityMatrix(labels, _random_mixed(rng, n, 2 ** n))
    ch = _random_pauli_table(rng, len(axes))
    out = states.apply_channel(rho, ch, [labels[a] for a in axes])
    want = np.zeros_like(rho.matrix)
    for s, p in ch.mixture:
        e = _embedded_operator(PauliOperator.from_string(s).to_matrix(),
                               axes, n)
        want += p * e @ rho.matrix @ e.conj().T
    assert out.labels == labels
    assert np.allclose(out.matrix, want, atol=1e-12)


_CHANNELS = {
    "depolarizing": ChannelSpec("depolarizing", depolarizing(0.3)),
    "intercept-XYZ": ChannelSpec("intercept_resend", (
        ("I", 0.5), ("X", 1 / 6), ("Y", 1 / 6), ("Z", 1 / 6))),
    "pauli-table": ChannelSpec("pauli", (
        ("I", 0.5), ("X", 0.1), ("Y", 0.15), ("Z", 0.25))),
}


@pytest.mark.parametrize("axes", [[3, 1], [0, 2], [4, 0, 2]])
@pytest.mark.parametrize("name", sorted(_CHANNELS))
def test_apply_channel_per_qubit_matches_explicit_sum(axes, name):
    # non-adjacent targets, some in descending order: sum K rho K^dagger
    # over every product of the one-qubit terms, on the full space; the
    # input matrix is Fortran-ordered, so no step may rely on its layout
    ch = _CHANNELS[name]
    rng = np.random.default_rng(30)
    n = 5
    labels = tuple(states.default_labels(n))
    rho = DensityMatrix(labels,
                        np.asfortranarray(_random_mixed(rng, n, 2 ** n)))
    singles = [np.sqrt(p) * PauliOperator.from_string(s).to_matrix()
               for s, p in ch.mixture]
    want = np.zeros_like(rho.matrix)
    for combo in np.ndindex(*(len(singles),) * len(axes)):
        k = np.eye(1)
        for i in combo:
            k = np.kron(k, singles[i])
        e = _embedded_operator(k, axes, n)
        want += e @ rho.matrix @ e.conj().T
    out = states.apply_channel(rho, ch, [labels[a] for a in axes])
    assert out.labels == labels
    assert np.abs(out.matrix - want).max() <= 1e-12


def test_channels_in_parallel_threads_give_the_serial_bits():
    # each thread contracts and checks Hermiticity in its own work array
    rng = np.random.default_rng(31)
    n = 7
    labels = tuple(states.default_labels(n))
    inputs = [DensityMatrix(labels, _random_mixed(rng, n, 2 ** n))
              for _ in range(4)]

    def chain(rho):
        for label in labels:
            rho = states.apply_channel(rho, _CHANNELS["pauli-table"],
                                       [label])
        return rho.matrix

    want = [chain(rho) for rho in inputs]
    got = [[] for _ in inputs]

    def worker(i):
        for _ in range(5):
            got[i].append(chain(inputs[i]))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results, serial in zip(got, want):
        assert len(results) == 5
        for m in results:
            np.testing.assert_array_equal(m, serial)


def test_apply_channel_validates_one_matrix(monkeypatch):
    built = []
    check = DensityMatrix.__post_init__

    def counted(self):
        built.append(self.matrix.shape)
        check(self)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    labels = tuple(states.default_labels(6))
    rho = to_density(tensor(make_cat(3, PHI_PLUS, labels[:3]),
                            make_cat(3, PSI_MINUS, labels[3:])))
    built.clear()
    states.apply_channel(rho, _CHANNELS["depolarizing"], labels[::2])
    assert built == [(64, 64)]


def test_density_matrix_rejects_nan():
    labels = (("a", 0),)
    diagonal_nan = np.eye(2, dtype=complex) / 2
    diagonal_nan[0, 0] = np.nan
    off_diagonal_nan = np.eye(2, dtype=complex) / 2
    off_diagonal_nan[0, 1] = off_diagonal_nan[1, 0] = np.nan
    for m in (np.full((2, 2), np.nan), diagonal_nan, off_diagonal_nan):
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(labels, m)


class _NanChannel:
    """A per-qubit channel whose superoperator is all NaN."""

    def is_per_qubit(self):
        return True

    def superoperator(self, num_qubits):
        return np.full((4 ** num_qubits,) * 2, np.nan, dtype=complex)


def test_apply_channel_trace_check_rejects_nan():
    rho = to_density(make_cat(2, PHI_PLUS))
    with pytest.raises(InvalidArgumentError, match="trace preserving"):
        states.apply_channel(rho, _NanChannel(), [rho.labels[0]])


def test_metrics_keep_nan():
    nan_matrix = np.full((2, 2), np.nan, dtype=complex)
    mixed = np.eye(2) / 2
    for x, y in ((mixed, nan_matrix), (nan_matrix, mixed)):
        assert np.isnan(fidelity(x, y))
        assert np.isnan(bures_distance(x, y))
        assert np.isnan(trace_distance(x, y))
    got = states._clamp_psd(np.array([[np.nan, -1e-17, 0.5]]),
                            np.array([1.0]))
    np.testing.assert_array_equal(got, [[np.nan, 0.0, 0.5]])


# --------------------------------------------------------------------------
# stacked metrics: each element of a (..., d, d) call against the 2-D call
# --------------------------------------------------------------------------

def _stack_pairs(rng, n):
    """Pairs (2, 4, d, d): full-rank, rank-deficient and pure states, and a
    state paired with itself."""
    d = 2 ** n
    ranks = [(d, d), (max(d // 2, 1), d), (1, 1), (1, d)]
    a = [_random_mixed(rng, n, ra) for ra, _ in ranks]
    b = [_random_mixed(rng, n, rb) for _, rb in ranks]
    b[-1] = a[-1]
    first = np.stack([a, b])
    second = np.stack([b, [_random_mixed(rng, n, 1) for _ in ranks]])
    return first, second


@pytest.mark.parametrize("metric", [fidelity, trace_distance, bures_distance])
def test_stacked_metrics_match_single_matrix_calls(metric):
    rng = np.random.default_rng(27)
    # the last norms differ by 1e8 between the two halves of the stack, so a
    # round-off cut shared by the stack would zero true eigenvalues
    for n, norm in ((1, 1.0), (2, 1.0), (3, 1.0), (2, [[[[1e-4]]], [[[1e4]]]])):
        a, b = _stack_pairs(rng, n)
        a, b = a * norm, b * norm
        got = metric(a, b)
        assert isinstance(got, np.ndarray) and got.shape == a.shape[:-2]
        for idx in np.ndindex(*a.shape[:-2]):
            want = metric(a[idx], b[idx])
            assert isinstance(want, float)
            assert abs(got[idx] - want) <= 1e-14


def test_stacked_sqrtm_psd_matches_single_matrix_calls():
    rng = np.random.default_rng(28)
    a, _ = _stack_pairs(rng, 2)
    # a small true eigenvalue beside a matrix of a much larger norm: a cut
    # shared by the stack would zero it
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    small = (u * [1.0, 1e-9, 0.0, 0.0]) @ u.conj().T
    a = np.concatenate([a, [[small, 1e8 * a[0, 0], small, 1e8 * a[0, 1]]]])
    got = states.sqrtm_psd(a)
    for idx in np.ndindex(*a.shape[:-2]):
        want = states.sqrtm_psd(a[idx])
        assert np.abs(got[idx] - want).max() <= 1e-14 * np.abs(want).max()
    assert np.linalg.eigvalsh(got[-1, 0])[-2] == pytest.approx(np.sqrt(1e-9))


def test_clamp_psd_cuts_each_matrix_at_its_own_scale():
    w = np.array([[1e-9, 1.0], [1e-9, 1e8], [-1e-17, 1.0]])
    got = states._clamp_psd(w, np.array([1.0, 1e8, 1.0]))
    np.testing.assert_array_equal(got, [[1e-9, 1.0], [0.0, 1e8], [0.0, 1.0]])


@pytest.mark.parametrize("metric", [fidelity, trace_distance, bures_distance])
def test_stacked_metrics_reject_mismatched_shapes(metric):
    rng = np.random.default_rng(29)
    a, b = _stack_pairs(rng, 2)
    for x, y in ((a, b[:1]), (a[0], b), (a[0, 0], b), (a, b[..., :2, :2]),
                 (a[..., :3], b[..., :3])):
        with pytest.raises(InvalidArgumentError):
            metric(x, y)
        with pytest.raises(InvalidArgumentError):
            metric(y, x)
