"""Dense simulation of small labeled multi-qubit systems.

States carry an ordered tuple of qubit labels ``(owner, slot)``; the first
label is the most significant bit of the amplitude index.  Everything is
plain complex128 numpy; joint systems are capped at ``MAX_QUBITS`` qubits.
Pauli actions, measurements and isometries act on pure states; density
matrices serve the Pauli channels and the metrics.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .paulis import PauliOperator, parity

MAX_QUBITS = 14

PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS = "phi+", "phi-", "psi+", "psi-"
CAT_KINDS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)
_CAT_COEF = {PHI_PLUS: 1.0, PHI_MINUS: -1.0, PSI_PLUS: 1j, PSI_MINUS: -1j}


_S = 1 / np.sqrt(2)
# rows: the outcome-0 (+1 eigenvalue) and outcome-1 eigenvectors per axis
_EIGENVECTORS = {
    "X": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "Y": np.array([[_S, 1j * _S], [_S, -1j * _S]], dtype=complex),
    "Z": np.eye(2, dtype=complex),
}
for _evecs in _EIGENVECTORS.values():
    _evecs.setflags(write=False)


def eigenvectors(axis: str) -> np.ndarray:
    """Read-only 2x2 array whose rows are the outcome-0/1 eigenvectors."""
    try:
        return _EIGENVECTORS[axis]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"unknown axis {axis!r}") from exc


def _check_labels(labels) -> tuple:
    labels = tuple(map(tuple, labels))
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError("qubit labels must be unique")
    if len(labels) > MAX_QUBITS:
        raise CapacityError(f"{len(labels)} qubits exceeds cap of {MAX_QUBITS}")
    return labels


@dataclass
class PureStateVector:
    labels: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        self.labels = _check_labels(self.labels)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if len(self.amplitudes) != 2 ** len(self.labels):
            raise InvalidArgumentError("amplitude length must be 2^(#labels)")
        norm = math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN
            raise InvalidArgumentError(f"state norm {norm} is not 1")

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label) -> int:
        label = tuple(label)
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise InvalidArgumentError(f"unknown label {label!r}") from exc


# One complex work array per thread, grown to the largest matrix seen and
# reused by every call: a fresh MB-sized temporary per channel would be
# faulted in from the system again each time.  Each user overwrites what
# it reads, so no data passes from one call to the next.
_scratch = threading.local()


def _work(shape) -> np.ndarray:
    """The calling thread's work array, as a complex array of ``shape``."""
    size = math.prod(shape)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size, dtype=complex)
    return buf[:size].reshape(shape)


def _hermitian_defect(m: np.ndarray) -> float:
    """max |m - m^dagger| over the entries, computed in the work array."""
    d = _work(m.shape)
    np.copyto(d, m.T)  # cheaper than conjugating while transposing
    np.conjugate(d, out=d)
    np.subtract(m, d, out=d)
    sq = d.view(float).reshape(m.shape + (2,))  # real, imaginary parts
    np.square(sq, out=sq)
    re2 = sq[..., 0]
    np.add(re2, sq[..., 1], out=re2)
    return math.sqrt(re2.max())  # a NaN entry gives NaN


def _check_trace(matrix: np.ndarray, message: str) -> None:
    if not abs(np.trace(matrix).real - 1.0) <= 1e-9:  # also rejects NaN
        raise InvalidArgumentError(message)


@dataclass
class DensityMatrix:
    labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        self.labels = _check_labels(self.labels)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.labels)
        if self.matrix.shape != (dim, dim):
            raise InvalidArgumentError("matrix must be 2^q x 2^q")
        # written so that a NaN entry fails both checks
        if not _hermitian_defect(self.matrix) <= 1e-9:
            raise InvalidArgumentError("matrix is not Hermitian")
        _check_trace(self.matrix, "trace is not 1")

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label) -> int:
        label = tuple(label)
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise InvalidArgumentError(f"unknown label {label!r}") from exc


def default_labels(j: int) -> list:
    return [("q", i) for i in range(j)]


def make_cat(j: int, kind: str, labels=None) -> PureStateVector:
    """The j-qubit cat state (|0..0> + c |1..1>)/sqrt(2), c in {±1, ±i}."""
    if j < 1:
        raise InvalidArgumentError("cat size must be >= 1")
    if kind not in CAT_KINDS:
        raise InvalidArgumentError(f"unknown cat kind {kind!r}")
    if labels is None:
        labels = default_labels(j)
    if len(labels) != j:
        raise InvalidArgumentError("label count must equal j")
    amps = np.zeros(2 ** j, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = _CAT_COEF[kind] / np.sqrt(2)
    return PureStateVector(tuple(labels), amps)


def basis_state(bits, labels) -> PureStateVector:
    """Computational basis state with the given bit per label."""
    bits = list(bits)
    amps = np.zeros(2 ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    amps[idx] = 1.0
    return PureStateVector(tuple(labels), amps)


def eigenstate(basis, outcome: int, label) -> PureStateVector:
    vec = eigenvectors(basis)[int(outcome)]
    return PureStateVector((tuple(label),), vec.copy())


def tensor(a: PureStateVector, b: PureStateVector) -> PureStateVector:
    labels = a.labels + b.labels
    return PureStateVector(labels,
                           np.outer(a.amplitudes, b.amplitudes).ravel())


def to_density(state) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    v = state.amplitudes
    return DensityMatrix(state.labels, np.outer(v, v.conj()))


def permute_labels(state: PureStateVector, new_order) -> PureStateVector:
    """Reorder tensor factors; a pure label permutation, amplitudes follow."""
    new_order = tuple(tuple(l) for l in new_order)
    if set(new_order) != set(state.labels) or len(new_order) != len(state.labels):
        raise InvalidArgumentError("new order must be a permutation of the labels")
    q = state.num_qubits
    perm = [state.axis(l) for l in new_order]
    t = state.amplitudes.reshape((2,) * q).transpose(perm)
    return PureStateVector(new_order, t.ravel())


# read-only tables shared by every call of the Pauli kernel: the amplitude
# indices and the sign (-1)^popcount(i) of each index
_INDEX = np.arange(2 ** MAX_QUBITS)
_PARITY_SIGN = (1 - 2 * parity(_INDEX)).astype(np.int8)
_INDEX.setflags(write=False)
_PARITY_SIGN.setflags(write=False)


def pauli_on_vector(vec: np.ndarray, pauli: PauliOperator,
                    positions) -> np.ndarray:
    """``pauli`` applied to an amplitude vector; its qubit i acts on index
    bit ``positions[i]`` (bit 0 is the least significant)."""
    x, z = pauli.x, pauli.z
    xmask = zmask = 0
    bit = 1 << pauli.n
    for pos in positions:  # qubit i is mask bit n-1-i
        bit >>= 1
        if x & bit:
            xmask |= 1 << pos
        if z & bit:
            zmask |= 1 << pos
    idx = _INDEX[:len(vec)]
    out = np.empty_like(vec)
    out[idx ^ xmask] = pauli.phase_value * _PARITY_SIGN[idx & zmask] * vec
    return out


def _positions(state: PureStateVector, labels, pauli: PauliOperator) -> list:
    """Index bit of each label, checked against the Pauli's width."""
    if len(labels) != pauli.n:
        raise InvalidArgumentError("label count must match Pauli width")
    q = state.num_qubits
    return [q - 1 - state.axis(lab) for lab in labels]


def apply_pauli(state: PureStateVector, pauli: PauliOperator,
                labels=None) -> PureStateVector:
    """Apply a Pauli to the given labels (default: all, in label order)."""
    if labels is None:
        labels = state.labels
    positions = _positions(state, labels, pauli)
    return PureStateVector(state.labels,
                           pauli_on_vector(state.amplitudes, pauli, positions))


def measure_pauli(state: PureStateVector, pauli: PauliOperator, labels, rng):
    """Projectively measure a Hermitian Pauli; returns (bit, post_state).

    Bit 0 is the +1 eigenvalue.  Labels are kept (the measurement is a
    stabilizer measurement, not a destructive single-qubit read-out).
    """
    vec = state.amplitudes
    applied = pauli_on_vector(vec, pauli, _positions(state, labels, pauli))
    vplus = (vec + applied) / 2
    pplus = np.vdot(vplus, vplus).real
    if rng.random() < pplus:
        return 0, PureStateVector(state.labels, vplus / math.sqrt(pplus))
    vminus = (vec - applied) / 2
    pminus = np.vdot(vminus, vminus).real
    return 1, PureStateVector(state.labels, vminus / math.sqrt(pminus))


def measure_qubit(state: PureStateVector, label, basis, rng):
    """Destructively measure one qubit; returns (bit, state without label)."""
    evecs = eigenvectors(basis)
    ax = state.axis(label)
    # measured qubit first; one 2-D product beats 2**ax stacked 2x2 ones
    t = state.amplitudes.reshape(2 ** ax, 2, -1).transpose(1, 0, 2)
    proj = evecs.conj() @ t.reshape(2, -1)  # rows: outcome amplitudes
    rest = proj[0]
    prob = np.vdot(rest, rest).real
    bit = 0 if rng.random() < prob else 1
    if bit:
        rest = proj[1]
        prob = np.vdot(rest, rest).real
    return bit, PureStateVector(state.labels[:ax] + state.labels[ax + 1:],
                                rest / math.sqrt(prob))


def measurement_probabilities(state: PureStateVector, bases) -> np.ndarray:
    """Joint outcome distribution for measuring every qubit, in label order.

    ``bases`` maps label -> axis string.  Index bit order matches the label
    order (first label is the most significant outcome bit).
    """
    q = state.num_qubits
    t = state.amplitudes.reshape((2,) * q)
    for ax, lab in enumerate(state.labels):
        u = eigenvectors(bases[lab]).conj()
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [ax])), 0, ax)
    return np.abs(t.ravel()) ** 2


def apply_isometry(state: PureStateVector, matrix, in_labels,
                   out_labels) -> PureStateVector:
    """Apply an isometry mapping the in_labels block to a fresh out_labels block.

    ``matrix`` has shape (2^m, 2^k) with k = len(in_labels), m = len(out_labels).
    Output labels are placed first, remaining labels keep their order.
    """
    in_labels = [tuple(l) for l in in_labels]
    out_labels = [tuple(l) for l in out_labels]
    k = len(in_labels)
    if matrix.shape != (2 ** len(out_labels), 2 ** k):
        raise InvalidArgumentError("isometry shape mismatch")
    q = state.num_qubits
    rest = [l for l in state.labels if l not in in_labels]
    for l in out_labels:
        if l in rest:
            raise InvalidArgumentError(f"output label {l!r} already present")
    if len(rest) + len(out_labels) > MAX_QUBITS:
        raise CapacityError("isometry output exceeds the qubit cap")
    axes = [state.axis(l) for l in in_labels + rest]
    t = state.amplitudes.reshape((2,) * q).transpose(axes).reshape(2 ** k, -1)
    out = matrix @ t
    return PureStateVector(tuple(out_labels) + tuple(rest), out.ravel())


def _contract(matrix: np.ndarray, steps) -> np.ndarray:
    """``matrix`` (2^q x 2^q) with each ``(sup, axes)`` of ``steps``
    contracted in turn, as a new matrix.

    ``sup`` is a k-qubit superoperator, rows (ket out, bra out) and columns
    (ket in, bra in); ``axes`` are its k ket axes, then its k bra axes, of
    the ``(2,)*2q`` tensor.  A step gathers its axes to the front of the
    returned array and multiplies into the thread's work array; the result
    is put back in axis order in the returned array.
    """
    shape = (2,) * (2 * (len(matrix).bit_length() - 1))
    cur, order = matrix.reshape(shape), list(range(len(shape)))
    # C order whatever the input's layout: the reshapes below must be views
    gathered = np.empty(matrix.shape, dtype=complex)
    product = _work(matrix.shape)
    for sup, axes in steps:
        front = [order.index(a) for a in axes]
        rest = [i for i in range(len(shape)) if i not in front]
        np.copyto(gathered.reshape(shape), cur.transpose(front + rest))
        np.matmul(sup, gathered.reshape(len(sup), -1),
                  out=product.reshape(len(sup), -1))
        cur = product.reshape(shape)
        order = list(axes) + [order[i] for i in rest]
    np.copyto(gathered.reshape(shape), cur.transpose(np.argsort(order)))
    return gathered


def apply_channel(state: DensityMatrix, channel, targets) -> DensityMatrix:
    """Apply a ``ChannelSpec`` to the target labels: a mixture of one-letter
    Paulis one target qubit at a time, a block-wide one once on the block.

    Every contraction acts on raw arrays; only the result is validated as
    a ``DensityMatrix``, after the trace-preservation check.
    """
    dm = to_density(state)
    q = dm.num_qubits
    kets = [dm.axis(l) for l in targets]
    if channel.is_per_qubit():
        sup = channel.superoperator(1)
        steps = [(sup, [a, q + a]) for a in kets]
    else:
        steps = [(channel.superoperator(len(kets)),
                  kets + [q + a for a in kets])]
    out = _contract(dm.matrix, steps)
    _check_trace(out, "channel is not trace preserving")
    return DensityMatrix(dm.labels, out)


# --------------------------------------------------------------------------
# fidelity / distance metrics (core versions accept raw square matrices or
# stacks of them, shape (..., d, d); a stack gives one value per matrix, a
# single matrix a float)
# --------------------------------------------------------------------------

def _as_matrix(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, PureStateVector):
        v = x.amplitudes
        return np.outer(v, v.conj())
    return np.asarray(x, dtype=complex)


def _check_same_dim(a, b):
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidArgumentError("dimension mismatch")


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _value(x: np.ndarray):
    """A float for a single matrix's value, the array for a stack's."""
    return float(x) if x.ndim == 0 else x


def _clamp_psd(w: np.ndarray, scale) -> np.ndarray:
    """Zero the eigenvalues within round-off of a matrix of norm ``scale``:
    sqrt(1e-16) would otherwise inject 1e-8.  ``w`` is (..., d) with one
    ``scale`` per leading index, so each matrix gets its own cut."""
    cut = np.maximum(scale, 0.0) * w.shape[-1] * np.finfo(float).eps
    # a NaN eigenvalue stays NaN, so a metric of a broken matrix is NaN
    return np.where(w <= cut[..., None], 0.0, w)


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root via Hermitian eigendecomposition with clamping."""
    w, v = np.linalg.eigh((m + _dagger(m)) / 2)
    root = np.sqrt(_clamp_psd(w, w.max(axis=-1)))
    return (v * root[..., None, :]) @ _dagger(v)


def fidelity(x, y):
    """Uhlmann fidelity tr(sqrt(sqrt(X) Y sqrt(X)))^2, clipped to [0, 1];
    <psi|Y|psi> when either side is a ``PureStateVector`` |psi>."""
    if isinstance(y, PureStateVector):
        x, y = y, x
    b = _as_matrix(y)
    if isinstance(x, PureStateVector):
        v = x.amplitudes
        if b.shape != (len(v), len(v)):
            raise InvalidArgumentError("dimension mismatch")
        val = float(np.vdot(v, b @ v).real)
        return min(max(val, 0.0), 1.0)
    a = _as_matrix(x)
    _check_same_dim(a, b)
    sa = sqrtm_psd(a)
    m = sa @ b @ sa  # tr sqrt(M) from M's clamped eigenvalues
    w = np.linalg.eigvalsh((m + _dagger(m)) / 2)
    # M's round-off scales with |A| |B| <= tr A tr B, not with M's own
    # largest eigenvalue: for pure A, M = F |a><a| plus O(eps) noise
    scale = (np.trace(a, axis1=-2, axis2=-1).real
             * np.trace(b, axis1=-2, axis2=-1).real)
    val = np.square(np.sqrt(_clamp_psd(w, scale)).sum(axis=-1))
    return _value(np.clip(val, 0.0, 1.0))


def trace_distance(x, y):
    """tr|X - Y| / 2."""
    a, b = _as_matrix(x), _as_matrix(y)
    _check_same_dim(a, b)
    w = np.linalg.eigvalsh(a - b)
    return _value(np.abs(w).sum(axis=-1) / 2)


def bures_distance(x, y):
    """sqrt(2 - 2 sqrt(F))."""
    f = fidelity(x, y)
    return _value(np.sqrt(np.maximum(2 - 2 * np.sqrt(f), 0.0)))
