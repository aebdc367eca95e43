import numpy as np
import pytest

from qkdnet import states
from qkdnet.errors import CapacityError, InvalidArgumentError
from qkdnet.paulis import PauliOperator
from qkdnet.states import (CAT_KINDS, PHI_MINUS, PHI_PLUS, PSI_MINUS,
                           PSI_PLUS, DensityMatrix, PureStateVector,
                           basis_state, bures_distance, fidelity, make_cat,
                           measure_qubit, measurement_probabilities,
                           partial_trace, permute_labels, tensor, to_density,
                           trace_distance)

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


def test_partial_trace_of_cat_is_maximally_mixed_on_ends():
    cat = make_cat(3, PHI_PLUS)
    red = partial_trace(to_density(cat), [cat.labels[0]])
    assert np.allclose(red.matrix, np.eye(2) / 2)


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
    rng = np.random.default_rng(4)
    dm = to_density(make_cat(2, PSI_PLUS))
    p = 0.3
    kraus = [np.sqrt(1 - p) * np.eye(2),
             np.sqrt(p) * np.array([[0, 1], [1, 0]], dtype=complex)]
    out = states.apply_kraus(dm, kraus, [dm.labels[0]])
    assert np.trace(out.matrix).real == pytest.approx(1.0)


def test_serialization_round_trip():
    for st in (make_cat(3, PSI_MINUS),
               to_density(make_cat(2, PHI_MINUS))):
        back = states.state_from_json(states.state_to_json(st))
        assert back.labels == st.labels
        if isinstance(st, DensityMatrix):
            assert np.allclose(back.matrix, st.matrix)
        else:
            assert np.allclose(back.amplitudes, st.amplitudes)


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
