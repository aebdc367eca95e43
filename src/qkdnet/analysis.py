"""Executable verification of the fidelity/distance inequalities behind the
security argument, plus transcript statistics.

Each checker is pure, reports its worst-case margin (negative margins mean
the inequality held with room to spare) and keeps the witness inputs so a
violation can be replayed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import InvalidArgumentError
from .paulis import parity
from .states import bures_distance, fidelity, trace_distance

DEFAULT_TOL = 1e-9


@dataclass
class InequalityReport:
    inequality_id: str
    trials: int
    max_violation: float        # negative: satisfied with margin
    witness: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witness": self.witness,
        }


# --------------------------------------------------------------------------
# random state generation (reproducible given the rng)
# --------------------------------------------------------------------------

def haar_state(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng) -> np.ndarray:
    """Partial trace of a Haar-random pure state of squared dimension."""
    psi = haar_state(dim * dim, rng).reshape(dim, dim)
    return psi @ psi.conj().T


def _serialize_matrix(m: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(m).ravel()]


# --------------------------------------------------------------------------
# individual inequality checkers
# --------------------------------------------------------------------------

def check_fuchs_van_de_graaf(x, y) -> tuple:
    """Margins of 1 - sqrt(F) <= D and D <= sqrt(1 - F) for one pair.

    Positive margin means the corresponding inequality is violated.
    """
    f = fidelity(x, y)
    d = trace_distance(x, y)
    lower_margin = (1 - np.sqrt(f)) - d
    upper_margin = d - np.sqrt(max(1 - f, 0.0))
    return float(lower_margin), float(upper_margin)


def _worst_trial(trials: int, trial, witness=None) -> tuple:
    """Largest violation over ``trial(0)`` .. ``trial(trials - 1)``.

    ``trial(i)`` returns ``(violation, make_witness)``; ``make_witness()``
    runs only when trial i sets a new worst.  Returns ``(worst, witness)``,
    with the given ``witness`` (default empty) if no trial sets one.
    """
    worst = -np.inf
    witness = {} if witness is None else witness
    for i in range(trials):
        v, make_witness = trial(i)
        if v > worst:
            worst, witness = v, make_witness()
    return float(worst), witness


def _draw_dim(dims, rng) -> int:
    return int(dims[rng.integers(0, len(dims))])


def _output_fidelity(kraus, vec) -> float:
    """<vec| sum_k K rho K^dagger |vec> with rho = |vec><vec|."""
    rho = np.outer(vec, vec.conj())
    out = sum(k @ rho @ k.conj().T for k in kraus)
    return float(np.real(vec.conj() @ out @ vec))


def fuchs_van_de_graaf_suite(trials: int, dims, rng,
                             tol: float = DEFAULT_TOL) -> InequalityReport:
    dims = list(dims)

    def trial(i):
        dim = _draw_dim(dims, rng)
        a = random_density(dim, rng)
        b = random_density(dim, rng)
        return max(check_fuchs_van_de_graaf(a, b)), lambda: {
            "trial": i, "dim": dim,
            "rho": _serialize_matrix(a), "sigma": _serialize_matrix(b)}
    return InequalityReport("fuchs-van-de-graaf", trials,
                            *_worst_trial(trials, trial), tol)


def pure_saturation_suite(trials: int, dims, rng,
                          tol: float = DEFAULT_TOL) -> InequalityReport:
    """On pure-pure pairs the upper bound is tight: D = sqrt(1 - F)."""
    dims = list(dims)

    def trial(i):
        dim = _draw_dim(dims, rng)
        a = haar_state(dim, rng)
        b = haar_state(dim, rng)
        ra = np.outer(a, a.conj())
        rb = np.outer(b, b.conj())
        gap = abs(trace_distance(ra, rb)
                  - np.sqrt(max(1 - fidelity(ra, rb), 0.0)))
        return gap, lambda: {"trial": i, "dim": dim}
    return InequalityReport("pure-pair-saturation", trials,
                            *_worst_trial(trials, trial), tol)


def depolarizing_equality_check(p: float, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The purification bound is tight for the one-qubit depolarizing channel.

    Every pure input has fidelity exactly 1 - p/2, so eps = p/2 and the
    bound reads 1 - (1 + 2/4) eps = 1 - 3p/4, which the maximally
    entangled input attains exactly.
    """
    from .adversary import ChannelSpec, DEPOLARIZING
    ch = ChannelSpec(kind=DEPOLARIZING, p=p, targets=("a",))
    kraus = ch.single_qubit_kraus()
    # eps over pure inputs (covariant channel: any state suffices, check a few)
    eps = max(1 - _output_fidelity(kraus, v) for v in (
        np.array([1, 0], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2)))
    bound = 1 - (1 + 2 / 4) * eps
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    f = _output_fidelity([np.kron(k, np.eye(2)) for k in kraus], bell)
    gap = abs(f - bound)
    witness = {"p": p, "epsilon": eps, "entanglement_fidelity": f,
               "bound": bound}
    return InequalityReport("depolarizing-purification-equality", 1,
                            float(gap), witness, tol)


def check_double_concavity(pairs) -> float:
    """Margin of sum_j w_j sqrt(F_j) - sqrt(F(mixtures)); positive = violated."""
    weights = np.array([w for w, _, _ in pairs], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise InvalidArgumentError("weights must sum to 1")
    mix_a = sum(w * states._as_matrix(a) for w, a, _ in pairs)
    mix_b = sum(w * states._as_matrix(b) for w, _, b in pairs)
    lhs = np.sqrt(fidelity(mix_a, mix_b))
    rhs = sum(w * np.sqrt(fidelity(a, b)) for w, a, b in pairs)
    return float(rhs - lhs)


def double_concavity_suite(trials: int, dims, rng,
                           tol: float = DEFAULT_TOL) -> InequalityReport:
    dims = list(dims)

    def trial(i):
        dim = _draw_dim(dims, rng)
        k = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        pairs = [(w[j], random_density(dim, rng), random_density(dim, rng))
                 for j in range(k)]
        return check_double_concavity(pairs), lambda: {
            "trial": i, "dim": dim, "weights": [float(x) for x in w]}
    return InequalityReport("double-concavity", trials,
                            *_worst_trial(trials, trial), tol)


def check_bures_triangle(a, b, c) -> float:
    """Margin of d_B(a,c) - d_B(a,b) - d_B(b,c); positive = violated."""
    return float(bures_distance(a, c)
                 - bures_distance(a, b) - bures_distance(b, c))


def bures_triangle_suite(trials: int, dims, rng,
                         tol: float = DEFAULT_TOL) -> InequalityReport:
    """Triangle inequality of the Bures metric over random triples."""
    dims = list(dims)

    def trial(i):
        dim = _draw_dim(dims, rng)
        a, b, c = (random_density(dim, rng) for _ in range(3))
        return check_bures_triangle(a, b, c), lambda: {"trial": i, "dim": dim}
    return InequalityReport("bures-triangle", trials,
                            *_worst_trial(trials, trial), tol)


def measure_channel_epsilon(channel, num_qubits: int, rng,
                            samples: int = 200) -> float:
    """Worst sampled pure-state infidelity of a channel (premise constant).

    Samples Haar states plus the computational and Fourier-type basis states.
    """
    dim = 2 ** num_qubits
    kraus = channel.kraus_terms(num_qubits)
    fixed = [*np.eye(dim, dtype=complex), np.ones(dim) / np.sqrt(dim)]
    haar = (haar_state(dim, rng) for _ in range(samples))
    return max(0.0, *(1.0 - _output_fidelity(kraus, v)
                      for v in itertools.chain(fixed, haar)))


def check_entanglement_fidelity_bound(channel, num_qubits: int, rng,
                                      purifications: int = 100,
                                      epsilon_samples: int = 200,
                                      tol: float = DEFAULT_TOL) -> InequalityReport:
    """Purification bound: if every pure input has fidelity >= 1 - eps, then
    any pure state of system + reference keeps fidelity >= 1 - (1 + d/4) eps."""
    dim = 2 ** num_qubits
    eps = measure_channel_epsilon(channel, num_qubits, rng,
                                  samples=epsilon_samples)
    bound = 1 - (1 + dim / 4) * eps
    big = [np.kron(k, np.eye(dim)) for k in channel.kraus_terms(num_qubits)]

    def trial(i):
        f = _output_fidelity(big, haar_state(dim * dim, rng))
        return bound - f, lambda: {"epsilon": eps, "dim": dim, "trial": i,
                                   "fidelity": f}
    return InequalityReport(
        "entanglement-fidelity-bound", purifications,
        *_worst_trial(purifications, trial, {"epsilon": eps, "dim": dim}),
        tol)


def check_composed_channel_bound(per_member_channels, n: int, t: int, rng,
                                 epsilon_samples: int = 100,
                                 tol: float = DEFAULT_TOL) -> InequalityReport:
    """Composed-transit bound on the shared entangled resource.

    With eps1 the worst per-member block infidelity, the fidelity of the
    full (n+1)-party cat-state resource after every member's channel must
    satisfy sqrt(F) >= 1 - n sqrt((1 + 2^(t-2)) eps1); the per-member
    1 - (1 + 2^(t-2)) eps1 form is checked along the way.
    """
    if len(per_member_channels) != n:
        raise InvalidArgumentError("need one channel per member")
    total_qubits = (n + 1) * t
    if total_qubits > states.MAX_QUBITS:
        raise InvalidArgumentError("configuration exceeds the qubit cap")
    members = [f"m{i}" for i in range(n)]
    owners = members + ["C"]
    state = None
    for c in range(t):
        cat = states.make_cat(n + 1, states.PHI_PLUS,
                              [(mu, c) for mu in owners])
        state = cat if state is None else states.tensor(state, cat)
    phi = states.to_density(state)
    eps1 = 0.0
    for ch in per_member_channels:
        eps1 = max(eps1, measure_channel_epsilon(ch, t, rng,
                                                 samples=epsilon_samples))
    factor = 1 + 2.0 ** (t - 2)
    current = phi

    def stage(i):
        # stages 0..n-1: member i's channel alone; stage n: all composed
        nonlocal current
        if i == n:
            f = fidelity(state, current)
            name, v = "composed", (1 - n * np.sqrt(factor * eps1)) - np.sqrt(f)
        else:
            mu, ch = members[i], per_member_channels[i]
            targets = [(mu, c) for c in range(t)]
            current = states.apply_channel(current, ch, targets)
            f = fidelity(state, states.apply_channel(phi, ch, targets))
            name, v = f"single:{mu}", (1 - factor * eps1) - f
        return v, lambda: {"epsilon1": eps1, "stage": name, "fidelity": f}
    return InequalityReport("composed-channel-bound", n + 1,
                            *_worst_trial(n + 1, stage, {"epsilon1": eps1}),
                            tol)


def _random_channel(rng, num_qubits: int):
    from .adversary import ChannelSpec, DEPOLARIZING, PAULI_CHANNEL
    if rng.random() < 0.5:
        return ChannelSpec(kind=DEPOLARIZING, p=float(rng.uniform(0, 0.3)),
                           targets=("a",))
    letters = "IXYZ"
    strings = ["".join(c) for c in itertools.product(letters, repeat=num_qubits)]
    w = rng.dirichlet(np.ones(len(strings)) * 0.2)
    w = w / w.sum()
    return ChannelSpec(kind=PAULI_CHANNEL,
                       pauli_probs={s: float(p) for s, p in zip(strings, w)},
                       targets=("a",))


def entanglement_fidelity_suite(draws: int, rng, num_qubits: int = 1,
                                tol: float = DEFAULT_TOL) -> InequalityReport:
    """Purification bound over random channels, plus the closed-form
    equality case for the one-qubit depolarizing channel at p = 0.1."""
    def trial(i):
        # trials 0..draws-1 draw a channel; the last is the equality case
        if i == draws:
            rep = depolarizing_equality_check(0.1)
        else:
            rep = check_entanglement_fidelity_bound(
                _random_channel(rng, num_qubits), num_qubits, rng,
                purifications=40, epsilon_samples=60)
        return rep.max_violation, lambda: rep.witness
    return InequalityReport("entanglement-fidelity-bound", draws,
                            *_worst_trial(draws + 1, trial), tol)


def composed_bound_suite(draws: int, rng, tol: float = DEFAULT_TOL,
                         max_n: int = 3, t: int = 2) -> InequalityReport:
    """Composed-transit bound over random per-member depolarizing strengths."""
    from .adversary import ChannelSpec, DEPOLARIZING

    def trial(i):
        n = int(rng.integers(2, max_n + 1))
        channels = [ChannelSpec(kind=DEPOLARIZING,
                                p=float(rng.uniform(0, 0.2)),
                                targets=(f"m{j}",)) for j in range(n)]
        rep = check_composed_channel_bound(channels, n, t, rng,
                                           epsilon_samples=20)
        return rep.max_violation, lambda: dict(rep.witness, draw=i, n=n)
    return InequalityReport("composed-channel-bound", draws,
                            *_worst_trial(draws, trial), tol)


# --------------------------------------------------------------------------
# outcome-correlation tables
# --------------------------------------------------------------------------

def cat_parity_distribution(assignment):
    """Exact joint outcome distribution of a measured cat state.

    ``assignment`` is a list of "X"/"Y" basis letters, one per qubit of a
    cat state with a plus sign.  Returns (probs, violating_mask): the mask
    marks joint outcomes whose XOR differs from the determinate value
    ((#Y mod 4) / 2), which requires an even Y count.
    """
    n = len(assignment)
    y_count = sum(1 for b in assignment if b == "Y")
    if y_count % 2:
        raise InvalidArgumentError("Y count must be even for a determinate row")
    labels = [("q", i) for i in range(n)]
    cat = states.make_cat(n, states.PHI_PLUS, labels)
    probs = states.measurement_probabilities(
        cat, {lab: b for lab, b in zip(labels, assignment)})
    expected = (y_count % 4) // 2
    return probs, parity(np.arange(2 ** n)) != expected


def table_correlation_check(group_sizes, shots: int, rng) -> dict:
    """Sampled check of the outcome-parity law over all basis assignments.

    ``group_sizes`` partitions the cat qubits into parties (the last entry
    may be a one-qubit center).  For every per-qubit X/Y assignment with an
    even total Y count, ``shots`` multinomial samples are drawn from the
    exact distribution and violations of the parity law are counted.
    """
    n = sum(group_sizes)
    assignments = 0
    violations = 0
    worst_mass = 0.0
    for code in range(2 ** n):
        bases = ["Y" if (code >> i) & 1 else "X" for i in range(n)]
        if sum(1 for b in bases if b == "Y") % 2:
            continue
        probs, bad = cat_parity_distribution(bases)
        worst_mass = max(worst_mass, float(probs[bad].sum()))
        counts = rng.multinomial(shots, probs / probs.sum())
        violations += int(counts[bad].sum())
        assignments += 1
    return {"qubits": n, "group_sizes": list(group_sizes),
            "assignments": assignments, "shots_per_assignment": shots,
            "violations": violations, "max_violating_mass": worst_mass}


# --------------------------------------------------------------------------
# transcript statistics
# --------------------------------------------------------------------------

def _binomial_ci(k: int, n: int, z: float = 1.96) -> tuple:
    """Wilson score interval for k successes in n trials.

    Unlike the Wald interval it stays honest at k = 0 and k = n, where its
    bounds are exactly 0 and 1.
    """
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (0.0 if k == 0 else centre - half,
            1.0 if k == n else centre + half)


def protocol_statistics(transcript) -> dict:
    """Sift/abort/error-rate summary with a binomial confidence interval."""
    s = transcript.summary()
    records = s["records"]
    sifted = s["sifted"]
    test_bits = s["test_bits"]
    err = transcript.observed_error_rate
    mism = int(round((err or 0.0) * test_bits)) if test_bits else 0
    usable = [r for r in transcript.records
              if r.sifted and not r.undetermined and r.b_a is not None]
    agree = (sum(1 for r in usable if r.b_a == r.b_b) / len(usable)
             if usable else None)
    return {
        "records": records,
        "sift_rate": sifted / records if records else 0.0,
        "abort_causes": s["abort_causes"],
        "aborted_rounds": s["aborted_rounds"],
        "test_bits": test_bits,
        "test_error_rate": err,
        "test_error_ci95": _binomial_ci(mism, test_bits) if test_bits else None,
        "key_agreement_rate": agree,
        "detected": transcript.verdict == "Fail",
        "verdict": transcript.verdict,
        "key_length": s["key_length"],
    }


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True,
                      indent=2)


def reports_to_csv(reports) -> str:
    lines = ["inequality_id,trials,max_violation,tolerance,passed"]
    for r in reports:
        lines.append(f"{r.inequality_id},{r.trials},{r.max_violation!r},"
                     f"{r.tolerance!r},{r.passed}")
    return "\n".join(lines) + "\n"
