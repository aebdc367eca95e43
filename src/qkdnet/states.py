"""Dense simulation of small labeled multi-qubit systems.

States carry an ordered tuple of qubit labels ``(owner, slot)``; the first
label is the most significant bit of the amplitude index.  Everything is
plain complex128 numpy; ``check_capacity`` caps a state at ``MAX_QUBITS``.
Pauli actions, measurements and isometries act on pure states; density
matrices serve the Pauli channels and the metrics.  ``PauliFrame`` holds
cat copies under Pauli errors as bits; ``apply_pauli`` and
``measure_qubit`` take it as they take amplitudes, and ``densify`` gives
either's amplitudes to a caller that needs them.

Inputs are validated; the results of ``measure_qubit``, ``apply_pauli``,
``measure_pauli`` and ``apply_isometry`` are trusted to have the labels and
length their checked inputs give, and every state has its norm checked.

``measure_qubit`` keeps a memo, one ``functools.lru_cache`` of
``_MEMO_ENTRIES`` entries shared by all threads, keyed by (labels, qubit,
axis, amplitude bytes): the outcome-0 probability and both branches'
read-only post-states, built together and never changed, so sharing them
is safe.  Every call checks its axis and label first and draws one
``rng.random()``, and a hit returns the bits that measuring afresh would,
so transcripts are unchanged.  States above ``_MEMO_MAX_AMPLITUDES``
amplitudes skip it and build only the drawn branch: memoizing up to 2^8
amplitudes made authenticated protocol-2 runs, whose states reach 8
qubits, slower as a whole, though most of their calls hit.
"""
from __future__ import annotations

import functools
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
# rows: the outcome-0 (+1 eigenvalue) and outcome-1 eigenvectors per axis,
# and their conjugates, the bras that a measurement projects onto
_EIGENVECTORS = {
    "X": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "Y": np.array([[_S, 1j * _S], [_S, -1j * _S]], dtype=complex),
    "Z": np.eye(2, dtype=complex),
}
_BRAS = {axis: evecs.conj() for axis, evecs in _EIGENVECTORS.items()}
for _evecs in (*_EIGENVECTORS.values(), *_BRAS.values()):
    _evecs.setflags(write=False)


def eigenvectors(axis: str) -> np.ndarray:
    """Read-only 2x2 array whose rows are the outcome-0/1 eigenvectors."""
    try:
        return _EIGENVECTORS[axis]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"unknown axis {axis!r}") from exc


def check_capacity(num_qubits: int, what: str) -> None:
    """Refuse ``what`` if it needs more than ``MAX_QUBITS`` qubits."""
    if num_qubits > MAX_QUBITS:
        raise CapacityError(f"{what} needs {num_qubits} qubits, above the "
                            f"cap of {MAX_QUBITS}")


def _check_unique(items) -> None:
    """Refuse a repeated qubit label, or the index or mask bit of one."""
    if len(set(items)) != len(items):
        raise InvalidArgumentError("qubit labels must be unique")


@dataclass
class _Labelled:
    """A state on the qubits of its ``labels`` tuple, first label on top."""

    labels: tuple

    def __post_init__(self):
        self.labels = tuple(map(tuple, self.labels))
        _check_unique(self.labels)
        check_capacity(len(self.labels), "a state")

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label) -> int:
        try:
            return self.labels.index(tuple(label))
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"unknown label {label!r}") from None


@dataclass
class PureStateVector(_Labelled):
    amplitudes: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if len(self.amplitudes) != 2 ** len(self.labels):
            raise InvalidArgumentError("amplitude length must be 2^(#labels)")
        _check_norm(self.amplitudes)

    def densify(self) -> "PureStateVector":
        """The state itself, as ``PauliFrame.densify`` gives a frame's."""
        return self


def _check_norm(amplitudes: np.ndarray) -> None:
    norm = math.sqrt(np.vdot(amplitudes, amplitudes).real)
    if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN
        raise InvalidArgumentError(f"state norm {norm} is not 1")


def _derived(labels: tuple, amplitudes: np.ndarray) -> PureStateVector:
    """A kernel's result from checked inputs: only its norm is checked."""
    state = object.__new__(PureStateVector)
    state.labels, state.amplitudes = labels, amplitudes
    _check_norm(amplitudes)
    return state


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
class DensityMatrix(_Labelled):
    matrix: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.labels)
        if self.matrix.shape != (dim, dim):
            raise InvalidArgumentError("matrix must be 2^q x 2^q")
        # written so that a NaN entry fails both checks
        if not _hermitian_defect(self.matrix) <= 1e-9:
            raise InvalidArgumentError("matrix is not Hermitian")
        _check_trace(self.matrix, "trace is not 1")


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


def cat_copies(owners, t: int) -> PureStateVector:
    """``t`` plus-cat copies, copy-major, on labels ``(owner, c)``."""
    return functools.reduce(tensor, [
        make_cat(len(owners), PHI_PLUS, [(mu, c) for mu in owners])
        for c in range(t)])


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
    """``pauli`` on an amplitude vector or each column of a (2^q, c) block;
    its qubit i acts on index bit ``positions[i]`` (bit 0 the lowest)."""
    xmask, zmask = _masks(pauli, positions)
    # P|j> = i^phase (-1)^popcount(j & z) |j ^ x>: row i is row j = i ^ x
    src = _INDEX[:len(vec)] ^ xmask if xmask else _INDEX[:len(vec)]
    out = vec.take(src, axis=0) if xmask else vec.copy()
    if zmask:  # one sign per row
        out *= _PARITY_SIGN.take(src & zmask).reshape(
            (-1,) + (1,) * (out.ndim - 1))
    if pauli.phase:
        out *= pauli.phase_value
    return out


def _masks(pauli: PauliOperator, positions) -> tuple:
    """``pauli``'s x and z masks, its qubit i moved to bit positions[i]."""
    x, z = pauli.x, pauli.z
    xmask = zmask = 0
    bit = 1 << pauli.n
    for pos in positions:  # qubit i is mask bit n-1-i
        bit >>= 1
        if x & bit:
            xmask |= 1 << pos
        if z & bit:
            zmask |= 1 << pos
    return xmask, zmask


def _positions(state, labels, pauli: PauliOperator) -> list:
    """Each label's index bit, checked for the Pauli's width and repeats."""
    if len(labels) != pauli.n:
        raise InvalidArgumentError("label count must match Pauli width")
    q = state.num_qubits
    positions = [q - 1 - state.axis(lab) for lab in labels]
    _check_unique(positions)
    return positions


def apply_pauli(state, pauli: PauliOperator, labels=None):
    """Apply a Pauli to the given labels (default: all, in label order),
    in place on a ``PauliFrame``."""
    if labels is None:
        labels = state.labels
    if isinstance(state, PauliFrame):
        return state.apply_pauli(pauli, labels)
    positions = _positions(state, labels, pauli)
    return _derived(state.labels,
                    pauli_on_vector(state.amplitudes, pauli, positions))


def measure_pauli(state: PureStateVector, pauli: PauliOperator, labels, rng):
    """Projectively measure a Hermitian Pauli; returns (bit, post_state).

    Bit 0 is the +1 eigenvalue.  Labels are kept (the measurement is a
    stabilizer measurement, not a destructive single-qubit read-out).
    """
    if (pauli.phase - (pauli.x & pauli.z).bit_count()) & 1:
        raise InvalidArgumentError(f"{pauli!r} is not Hermitian")
    vec = state.amplitudes
    branch = pauli_on_vector(vec, pauli, _positions(state, labels, pauli))
    # p(+1) = <v|(1 + P)/2|v>; only the drawn branch (1 +- P)|v> is built
    pplus = (1 + np.vdot(vec, branch).real) / 2
    bit = 0 if rng.random() < pplus else 1
    (np.subtract if bit else np.add)(vec, branch, out=branch)
    branch /= math.sqrt(np.vdot(branch, branch).real)
    return bit, _derived(state.labels, branch)


_MEMO_ENTRIES = 256  # measurements the memo keeps, least recently used out
_MEMO_MAX_AMPLITUDES = 2 ** 4  # wider states skip the memo


def measure_qubit(state, label, basis, rng):
    """Destructively measure one qubit; returns (bit, state without label).

    The post-state is read-only and, for a state of at most
    ``_MEMO_MAX_AMPLITUDES`` amplitudes, shared by every call that measures
    the same state, qubit and axis.  A ``PauliFrame`` measures itself.
    """
    if isinstance(state, PauliFrame):
        return state.measure(label, basis, rng)
    eigenvectors(basis)  # rejects an unknown axis
    ax, amps = state.axis(label), state.amplitudes
    if len(amps) <= _MEMO_MAX_AMPLITUDES:
        entry = _measured(state.labels, ax, basis, amps.tobytes())
        bit = 0 if rng.random() < entry[0] else 1
        return bit, entry[1 + bit]
    proj, p0 = _project(amps, ax, basis)
    bit = 0 if rng.random() < p0 else 1
    return bit, _branch(state.labels, ax, proj, p0, bit)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _measured(labels: tuple, ax: int, basis: str, amplitudes: bytes) -> tuple:
    """p(0) and both outcomes' post-states of a memoized measurement."""
    proj, p0 = _project(np.frombuffer(amplitudes, dtype=complex), ax, basis)
    return p0, *(_branch(labels, ax, proj, p0, bit) for bit in (0, 1))


def _project(amps: np.ndarray, ax: int, basis: str) -> tuple:
    """Both rows of outcome amplitudes, and p(0)."""
    # measured qubit first; one 2-D product beats 2**ax stacked 2x2 ones
    t = amps.reshape(2 ** ax, 2, -1).transpose(1, 0, 2)
    proj = _BRAS[basis] @ t.reshape(2, -1)
    return proj, np.vdot(proj[0], proj[0]).real


def _branch(labels: tuple, ax: int, proj: np.ndarray, p0: float, bit: int):
    """The read-only post-state of outcome ``bit``; None if it has
    probability 0, as it would divide by zero."""
    rest = proj[bit]
    prob = np.vdot(rest, rest).real if bit else p0
    if prob == 0:
        return None
    rest = rest / math.sqrt(prob)
    rest.flags.writeable = False
    return _derived(labels[:ax] + labels[ax + 1:], rest)


class PauliFrame:
    """The plus-cat copies of a read-only ``initial`` state under a Pauli
    frame, held as bits instead of amplitudes.

    ``initial`` holds copies on labels ``(owner, copy)``, as ``cat_copies``
    builds them, in any label order.  The frame stands for ``initial``
    under ``PauliOperator(num_qubits, x, z)``, up to a global phase;
    ``densify`` builds that state.  Its ``labels``, ``num_qubits`` and
    ``axis`` are ``initial``'s, except that ``axis`` refuses a measured
    label.  ``measure`` draws as ``measure_qubit`` does, by the parity
    law: a copy's outcome parity is half its Y count, flipped by z per X
    and by x ^ z per Y measurement.  So each outcome is uniform, except a
    copy's last when its Y count is even.  Per copy the frame counts the
    qubits left, the Y count and the parity of the outcomes and flips.
    """

    __slots__ = ("initial", "labels", "num_qubits", "x", "z", "_open",
                 "_copy_of", "_counts")

    def __init__(self, initial: PureStateVector):
        self.initial, self.labels = initial, initial.labels
        self.num_qubits, self.x, self.z = initial.num_qubits, 0, 0
        self._open = (1 << self.num_qubits) - 1  # the unmeasured labels
        copies = list(dict.fromkeys(copy for _, copy in initial.labels))
        # label k -> the index of its copy's three counters
        self._copy_of = [3 * copies.index(copy) for _, copy in initial.labels]
        self._counts = [0, 0, 0] * len(copies)
        for i in self._copy_of:
            self._counts[i] += 1

    def copy(self) -> "PauliFrame":
        """An independent frame in the same state, cheaper than a new one."""
        frame = object.__new__(PauliFrame)
        frame.initial, frame.labels = self.initial, self.labels
        frame.num_qubits = self.num_qubits
        frame.x, frame.z, frame._open = self.x, self.z, self._open
        frame._copy_of, frame._counts = self._copy_of, self._counts[:]
        return frame

    def axis(self, label) -> int:
        """The index of ``label`` in ``initial.labels``, if unmeasured."""
        k = self.initial.axis(label)
        if not self._open >> self.num_qubits - 1 - k & 1:
            raise InvalidArgumentError(f"unknown label {label!r}")
        return k

    def apply_pauli(self, pauli: PauliOperator, labels) -> "PauliFrame":
        """Multiply the frame by ``pauli``, its qubit i on ``labels[i]``;
        returns the frame."""
        x, z = _masks(pauli, _positions(self, labels, pauli))
        self.x ^= x
        self.z ^= z
        return self

    def densify(self) -> PureStateVector:
        """The state the frame stands for: one ``apply_pauli`` on
        ``initial``, or ``initial`` itself under the identity."""
        n = self.num_qubits
        if self._open != (1 << n) - 1:
            raise InvalidArgumentError("a measured frame has no dense form")
        if not (self.x or self.z):
            return self.initial
        return apply_pauli(self.initial, PauliOperator(n, self.x, self.z))

    def measure(self, label, basis: str, rng):
        """Measure ``label`` in X or Y with one ``rng.random()``, as
        ``measure_qubit`` does; returns (bit, this frame without it)."""
        if basis not in ("X", "Y"):
            raise InvalidArgumentError(
                f"a frame measures X or Y, not {basis!r}")
        k = self.axis(label)
        mask, i = 1 << self.num_qubits - 1 - k, self._copy_of[k]
        self._open ^= mask
        y = basis == "Y"
        flip = ((self.x if y else 0) ^ self.z) & mask != 0
        counts = self._counts
        counts[i] -= 1
        counts[i + 1] += y
        ys = counts[i + 1]
        u = rng.random()
        if counts[i] or ys & 1:
            bit = 0 if u < 0.5 else 1
        else:  # the copy's last outcome, fixed by the parity law
            bit = (ys >> 1 ^ counts[i + 2] ^ flip) & 1
        counts[i + 2] ^= bit ^ flip
        return bit, self


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
    out_labels = tuple(tuple(l) for l in out_labels)
    k = len(in_labels)
    if matrix.shape != (2 ** len(out_labels), 2 ** k):
        raise InvalidArgumentError("isometry shape mismatch")
    _check_unique(in_labels)
    _check_unique(out_labels)
    ins = set(in_labels)
    q = state.num_qubits
    keep = [i for i, l in enumerate(state.labels) if l not in ins]
    rest = tuple(state.labels[i] for i in keep)
    for l in out_labels:
        if l in rest:
            raise InvalidArgumentError(f"output label {l!r} already present")
    check_capacity(len(rest) + len(out_labels), "an isometry's output")
    axes = [state.axis(l) for l in in_labels] + keep
    t = state.amplitudes.reshape((2,) * q).transpose(axes).reshape(2 ** k, -1)
    out = matrix @ t
    return _derived(out_labels + rest, out.ravel())


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
