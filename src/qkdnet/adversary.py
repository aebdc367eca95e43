"""Attack and fault models: transit channels, an intercept-resend
eavesdropper, and dishonest behavior at the classical announcement steps.

Spec strings follow the mini-grammar ``kind[:param=value;...]@memberN``,
comma separated, e.g. ``depolarize:p=0.1@m2,intercept@m1,lie-outcome:p=1.0@m3``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import InvalidArgumentError
from .paulis import PauliOperator

IDENTITY = "identity"
DEPOLARIZING = "depolarizing"
PAULI_CHANNEL = "pauli"
INTERCEPT_RESEND = "intercept_resend"
FIXED_PAULI = "fixed_pauli"
_DISHONEST_MODES = ("lie_basis", "lie_outcome", "silent_drop")


# Kraus terms are shared by every spec of the same mixture.  The certify
# workload's lookups fall in a working set of 16 (mixture, width) keys; a
# stack over 64 KiB (a 4-qubit depolarizing one) is built anew on each call.
_CACHED_KEYS, _CACHED_BYTES = 16, 2 ** 16


@functools.lru_cache(maxsize=_CACHED_KEYS)
def _kraus_terms(mixture: tuple, num_qubits: int) -> np.ndarray:
    terms = np.array([
        np.sqrt(prob) * PauliOperator.from_string(pstr).to_matrix()
        for pstr, prob in mixture])
    if terms.shape[-1] == 2:  # one-letter strings: every kron(t, s), t major
        singles, terms = terms, np.ones((1, 1, 1), dtype=complex)
        for _ in range(num_qubits):
            dim = 2 * terms.shape[-1]
            terms = np.einsum("aij,bkl->abikjl", terms,
                              singles).reshape(-1, dim, dim)
    terms.setflags(write=False)
    return terms


def depolarizing(p: float) -> tuple:
    """The mixture of rho -> (1 - p) rho + p I/2, for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError("depolarizing p must be in [0, 1]")
    return tuple(zip("IXYZ", [1 - 3 * p / 4] + [p / 4] * 3))


def _intercept(bases) -> tuple:
    """Measuring in a random basis of B and resending the eigenstate
    dephases the qubit in that basis: rho/2 + sum_b b rho b / (2|B|)."""
    if not bases or not set(bases) <= {"X", "Y", "Z"}:
        raise InvalidArgumentError("intercept bases must be X/Y/Z")
    if len(set(bases)) != len(bases):
        raise InvalidArgumentError(
            f"an intercept basis is given twice in {''.join(bases)!r}")
    w = 1 / (2 * len(bases))
    return (("I", 0.5),) + tuple((b, w) for b in bases)


@dataclass(frozen=True)
class ChannelSpec:
    """A CPTP attack on the qubits of the targeted members, stored as its
    mixture of Pauli errors: ``(Pauli string, probability)`` pairs.

    One-letter strings act on each target qubit alone, longer ones jointly
    on the whole target block.  ``kind`` names the attack.  Intercept-resend
    draws its trajectories by measuring the state; every other kind draws
    its Pauli errors without reading it (``draw_paulis``).  A spec is
    frozen, so what is derived from its mixture is built once.
    """

    kind: str
    mixture: tuple
    targets: tuple = ()

    def __post_init__(self):
        if self.kind not in (IDENTITY, DEPOLARIZING, PAULI_CHANNEL,
                             INTERCEPT_RESEND, FIXED_PAULI):
            raise InvalidArgumentError(f"unknown channel kind {self.kind!r}")
        mixture = tuple((pstr, float(prob)) for pstr, prob in self.mixture)
        probs = [prob for _, prob in mixture]
        # written so that a NaN probability fails both checks
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise InvalidArgumentError("Pauli probabilities must sum to 1")
        if not all(prob >= 0 for prob in probs):
            raise InvalidArgumentError("Pauli probabilities must be >= 0")
        for pstr, _ in mixture:
            if not pstr or pstr.strip("IXYZ"):
                raise InvalidArgumentError(
                    f"{pstr!r} is not a string of Pauli letters IXYZ")
        if self.kind == INTERCEPT_RESEND:
            # its trajectories measure in the bases after the identity
            want = _intercept([pstr for pstr, _ in mixture[1:]])
            if mixture[0][0] != "I" or not np.allclose(
                    probs, [w for _, w in want], rtol=0, atol=1e-12):
                raise InvalidArgumentError(
                    "an intercept mixture is rho/2 + sum_b b rho b / (2|B|)")
        object.__setattr__(self, "mixture", mixture)
        object.__setattr__(self, "targets", tuple(self.targets))

    @functools.cached_property
    def _widths(self) -> set:
        return {len(pstr) for pstr, _ in self.mixture}

    @functools.cached_property
    def _draws(self) -> tuple:
        """The mixture as trajectories draw it: each entry's operator (None
        for an identity) and the cumulative probabilities (None for a single
        entry, which needs no draw)."""
        ops = [PauliOperator.from_string(pstr) if pstr.strip("I") else None
               for pstr, _ in self.mixture]
        probs = np.array([prob for _, prob in self.mixture])
        cdf = (probs / probs.sum()).cumsum()
        return ops, cdf / cdf[-1] if len(ops) > 1 else None

    def _draw(self, rng):
        """Index of a mixture entry drawn as ``rng.choice`` draws it: the
        first whose cumulative probability exceeds one ``rng.random()``."""
        cdf = self._draws[1]
        return 0 if cdf is None else cdf.searchsorted(rng.random(), "right")

    def is_per_qubit(self) -> bool:
        return self._widths == {1}

    def check_arity(self, num_qubits: int) -> None:
        """Reject block-wide Pauli strings that do not act on exactly
        ``num_qubits`` qubits."""
        if self._widths != {1} and self._widths != {num_qubits}:
            raise InvalidArgumentError(
                f"{self.kind} operators act on {sorted(self._widths)} "
                f"qubits, the target block has {num_qubits}")

    def kraus_terms(self, num_qubits: int) -> np.ndarray:
        """Read-only stack of the Kraus matrices sqrt(p) P on 2^num_qubits
        dimensions, kept and shared by every spec of the same mixture up to
        _CACHED_BYTES; a per-qubit mixture is tensored over the qubits."""
        self.check_arity(num_qubits)
        terms = len(self.mixture) ** (num_qubits if self.is_per_qubit()
                                      else 1)
        if terms * 4 ** num_qubits * 16 > _CACHED_BYTES:
            return _kraus_terms.__wrapped__(self.mixture, num_qubits)
        return _kraus_terms(self.mixture, num_qubits)

    def superoperator(self, num_qubits: int) -> np.ndarray:
        """sum_k K (x) conj(K) of the Kraus terms on num_qubits qubits, built
        on each call: rows (ket out, bra out), columns (ket in, bra in)."""
        k = self.kraus_terms(num_qubits)
        dim = 4 ** num_qubits
        return np.einsum("kij,kab->iajb", k, k.conj()).reshape(dim, dim)

    # ---- pathwise (pure-trajectory) form --------------------------------

    def draw_paulis(self, labels, rng) -> list:
        """The non-identity ``(PauliOperator, block)`` pairs of one
        trajectory on the given labels, in order: one Pauli drawn from the
        mixture per qubit or per block, with exactly ``sample_apply``'s
        draws.  The draws do not depend on the state, so a caller can take
        them before it builds the state they act on.  Intercept-resend
        draws by measuring the state, so it has no such list."""
        if self.kind == INTERCEPT_RESEND:
            raise InvalidArgumentError(
                "intercept-resend draws its trajectory by measuring")
        labels = [tuple(l) for l in labels]
        self.check_arity(len(labels))
        ops = self._draws[0]
        blocks = [[lab] for lab in labels] if self.is_per_qubit() else [labels]
        drawn = []
        for block in blocks:
            op = ops[self._draw(rng)]
            if op is not None:
                drawn.append((op, block))
        return drawn

    def sample_apply(self, state, labels, rng):
        """Apply one stochastic trajectory of the channel to a pure state
        or a ``states.PauliFrame``, which an intercept densifies first: one
        Pauli drawn from the mixture per qubit or per block."""
        if self.kind == INTERCEPT_RESEND:
            # measure in a random basis and resend the eigenstate: the
            # channel of its mixture, drawing a basis and an outcome per qubit
            state = state.densify()
            bases = [pstr for pstr, _ in self.mixture[1:]]
            for lab in map(tuple, labels):
                basis = bases[rng.integers(0, len(bases))]
                bit, rest = states.measure_qubit(state, lab, basis, rng)
                state = states.permute_labels(states.tensor(
                    rest, states.eigenstate(basis, bit, lab)), state.labels)
            return state
        for op, block in self.draw_paulis(labels, rng):
            state = states.apply_pauli(state, op, block)
        return state


@dataclass
class DishonestSpec:
    """Classical-step misbehavior of one member (never quantum evolution)."""

    member: str
    mode: str  # lie_basis | lie_outcome | silent_drop
    p: float = 1.0

    def __post_init__(self):
        if self.mode not in _DISHONEST_MODES:
            raise InvalidArgumentError(f"unknown dishonest mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError("flip probability must be in [0, 1]")


@dataclass
class AdversarySpec:
    """A full attack configuration: channels plus dishonest members."""

    channels: list = field(default_factory=list)
    dishonest: list = field(default_factory=list)

    def channels_for(self, member: str) -> list:
        # declaration order defines composition order
        return [c for c in self.channels if member in c.targets]

    def dishonest_for(self, member: str):
        for d in self.dishonest:
            if d.member == member:
                return d
        return None


def apply_attack(state: states.DensityMatrix, spec: ChannelSpec):
    """Exact CPTP application of one channel to a density matrix."""
    targets = [lab for lab in state.labels if lab[0] in spec.targets]
    if not targets:
        raise InvalidArgumentError("no target member qubits present in state")
    return states.apply_channel(state, spec, targets)


def corrupt_announcement(truth, spec: DishonestSpec | None, rng):
    """Possibly falsified announcement of a basis or outcome bit."""
    if spec is None:
        return truth
    if spec.mode == "lie_basis":
        # p = 1, the default, draws nothing, so such runs keep their stream
        if truth in ("X", "Y") and (spec.p >= 1.0 or rng.random() < spec.p):
            return "Y" if truth == "X" else "X"
        return truth
    if spec.mode == "lie_outcome":
        if rng.random() < spec.p:
            return truth ^ 1
        return truth
    return None  # silent_drop: nothing is announced


# --------------------------------------------------------------------------
# spec-string grammar
# --------------------------------------------------------------------------

def _normalize_member(name: str) -> str:
    """Accept ``m3``, ``member3``, or ``center``/``c`` spellings, any case."""
    low = name.lower()
    if low in ("c", "center"):
        return "C"
    if low.startswith("member") and low[6:].isdigit():
        return "m" + low[6:]
    return low


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(
            f"parameter {key!r} is not a number: {text!r}") from None


def _required(params: dict, key: str) -> str:
    if key not in params:
        raise InvalidArgumentError(f"missing parameter {key!r}")
    return params[key]


def _pauli_table(params: dict) -> tuple:
    table = {k.upper(): _number(k, v) for k, v in params.items()}
    if len(table) != len(params):
        raise InvalidArgumentError(
            f"a Pauli string is given twice in {sorted(params)}")
    return tuple(sorted(table.items()))


def _flip_p(params: dict) -> float:
    return _number("p", params.get("p", "1.0"))


# each grammar kind: the kind it parses to, the parameters it reads (a
# pauli table reads its Pauli strings) and what it builds from their text,
# a channel's Pauli mixture or a dishonest member's probability p
_KINDS = {
    "identity": (IDENTITY, (), lambda a: (("I", 1.0),)),
    "depolarize": (DEPOLARIZING, ("p",),
                   lambda a: depolarizing(_number("p", _required(a, "p")))),
    "pauli": (PAULI_CHANNEL, None, _pauli_table),
    "intercept": (INTERCEPT_RESEND, ("bases",),
                  lambda a: _intercept(tuple(a.get("bases", "XY").upper()))),
    "fixed-pauli": (FIXED_PAULI, ("op",),
                    lambda a: ((_required(a, "op").upper(), 1.0),)),
    "lie-basis": ("lie_basis", ("p",), _flip_p),
    "lie-outcome": ("lie_outcome", ("p",), _flip_p),
    "silent-drop": ("silent_drop", (), _flip_p),
}
_KINDS["depolarizing"] = _KINDS["depolarize"]
_KINDS["intercept-resend"] = _KINDS["intercept"]


def parse_adversary(text: str | None) -> AdversarySpec:
    """Parse the comma-separated ``kind[:param=value...]@member`` grammar."""
    spec = AdversarySpec()
    if not text:
        return spec
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise InvalidArgumentError(f"missing @member in {chunk!r}")
        head, member = chunk.rsplit("@", 1)
        if not member:
            raise InvalidArgumentError(f"empty member in {chunk!r}")
        member = _normalize_member(member)
        name, colon, paramstr = head.partition(":")
        if colon and not paramstr:
            raise InvalidArgumentError(f"empty parameter list in {chunk!r}")
        if name not in _KINDS:
            raise InvalidArgumentError(f"unknown attack kind {name!r}")
        kind, reads, build = _KINDS[name]
        params = {}
        if paramstr:
            for pair in paramstr.split(";"):
                if "=" not in pair:
                    raise InvalidArgumentError(f"bad parameter {pair!r}")
                k, v = (x.strip() for x in pair.split("=", 1))
                if k in params:
                    raise InvalidArgumentError(
                        f"parameter {k!r} given twice in {chunk!r}")
                params[k] = v
        if reads is None:
            reads = [k for k in params if k and not k.upper().strip("IXYZ")]
        unread = sorted(set(params) - set(reads))
        if unread:
            raise InvalidArgumentError(
                f"{name} does not take parameters {unread}")
        if kind in _DISHONEST_MODES:
            spec.dishonest.append(DishonestSpec(member, kind, build(params)))
        else:
            spec.channels.append(ChannelSpec(kind, build(params), (member,)))
    return spec
