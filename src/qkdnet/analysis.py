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
from .adversary import DEPOLARIZING, PAULI_CHANNEL, ChannelSpec, depolarizing
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

def _unit_vectors(g: np.ndarray) -> np.ndarray:
    """Unit complex vectors (..., dim) from normal draws (..., 2, dim) of
    their real and imaginary parts.

    The squared norm is summed the way ``np.linalg.norm`` sums one vector
    (a BLAS dot per part), so a batch gives the same bits as one draw at a
    time.
    """
    v = g[..., 0, :] + 1j * g[..., 1, :]
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return v / np.sqrt(sq[..., 0])


def haar_states(count: int, dim: int, rng) -> np.ndarray:
    """``count`` Haar-random pure states as rows; one normal draw gives the
    same stream as ``count`` single-state draws."""
    return _unit_vectors(rng.normal(size=(count, 2, dim)))


def _densities(g: np.ndarray) -> np.ndarray:
    """Density matrices (..., d, d) from normal draws (..., 2, d*d): each is
    the partial trace of a Haar-random pure state of squared dimension."""
    psi = _unit_vectors(g)
    dim = math.isqrt(psi.shape[-1])
    psi = psi.reshape(psi.shape[:-1] + (dim, dim))
    return psi @ states._dagger(psi)


def _serialize_matrix(m: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(m).ravel()]


# --------------------------------------------------------------------------
# individual inequality checkers; the inputs may be stacks (..., d, d) and
# then give one margin per stack index
# --------------------------------------------------------------------------

def check_fuchs_van_de_graaf(x, y) -> tuple:
    """Margins of 1 - sqrt(F) <= D and D <= sqrt(1 - F).

    Positive margin means the corresponding inequality is violated.
    """
    f = fidelity(x, y)
    d = trace_distance(x, y)
    lower_margin = (1 - np.sqrt(f)) - d
    upper_margin = d - np.sqrt(np.maximum(1 - f, 0.0))
    return lower_margin, upper_margin


def _worst_trial(violations, witness_of, empty=None) -> tuple:
    """``(worst, witness_of(i))`` for the trial i with the largest violation.

    The first index wins a tie, and a NaN violation counts as the largest
    (the first NaN wins), so a trial that computed nothing fails its suite.
    With no trials the result is ``(-inf, empty)``, ``{}`` by default.
    """
    v = np.asarray(violations, dtype=float)
    if v.size == 0:
        return -math.inf, {} if empty is None else empty
    i = int(np.argmax(v))  # argmax returns the first NaN, if any
    return float(v[i]), witness_of(i)


def _pair_suite(inequality_id: str, trials: int, dims, rng, tol: float,
                draw, evaluate, witness=None) -> InequalityReport:
    """Run a random-pair suite: draw every trial first, its dimension from
    ``dims`` and then ``draw(dim)``, in trial order, so the RNG stream is
    that of evaluating each trial as it is drawn; evaluate one stack per
    drawn dimension through ``evaluate(dim, draws)``, one violation per
    draw; report the worst trial.  Its witness is ``{"trial", "dim"}`` plus
    the fields ``witness(draw)`` gives."""
    dims = list(dims)
    dim_of, drawn, by_dim = [], [], {}
    for i in range(trials):
        dim = int(dims[rng.integers(0, len(dims))])
        dim_of.append(dim)
        drawn.append(draw(dim))
        by_dim.setdefault(dim, []).append(i)
    violations = np.empty(trials)
    for dim, idx in by_dim.items():
        violations[idx] = evaluate(dim, [drawn[i] for i in idx])

    def witness_of(i):
        return {"trial": i, "dim": dim_of[i],
                **(witness(drawn[i]) if witness else {})}
    return InequalityReport(inequality_id, trials,
                            *_worst_trial(violations, witness_of), tol)


def _output_fidelity(kraus, vecs):
    """<v| sum_k K |v><v| K^dagger |v> = sum_k |<v|K|v>|^2 for each state
    v of ``vecs`` (..., rest, dim).

    Each (rest, dim) matrix is one state v = sum_r |r>|v_r>, row r holding
    v_r, and each K acts on the dim factor alone: <v|K|v> =
    sum_r <v_r|K|v_r>.  A state on the dim factor alone has one row.
    """
    kv = (vecs.reshape(-1, vecs.shape[-1]) @ np.swapaxes(kraus, -1, -2)
          ).reshape((len(kraus),) + vecs.shape)  # (terms, ..., rest, dim)
    amp = (vecs.conj() * kv).sum(axis=-1).sum(axis=-1)
    return (amp.real ** 2 + amp.imag ** 2).sum(axis=0)


def _block_fidelity(state, channel, targets) -> float:
    """F(|phi>, channel on ``targets`` of |phi>) from the pure vector:
    sum_k |<phi|K_k|phi>|^2 with the Kraus terms on the target axes."""
    q, t = state.num_qubits, len(targets)
    amps = np.moveaxis(state.amplitudes.reshape((2,) * q),
                       [state.axis(l) for l in targets], range(q - t, q))
    return float(_output_fidelity(channel.kraus_terms(t),
                                  amps.reshape(-1, 2 ** t)))


def fuchs_van_de_graaf_suite(trials: int, dims, rng,
                             tol: float = DEFAULT_TOL) -> InequalityReport:
    def evaluate(dim, draws):
        rho = _densities(np.stack(draws))
        return np.maximum(*check_fuchs_van_de_graaf(rho[:, 0], rho[:, 1]))

    def witness(g):
        a, b = _densities(g)
        return {"rho": _serialize_matrix(a), "sigma": _serialize_matrix(b)}
    return _pair_suite("fuchs-van-de-graaf", trials, dims, rng, tol,
                       lambda dim: rng.normal(size=(2, 2, dim * dim)),
                       evaluate, witness)


def pure_saturation_suite(trials: int, dims, rng,
                          tol: float = DEFAULT_TOL) -> InequalityReport:
    """On pure-pure pairs the upper bound is tight: D = sqrt(1 - F)."""
    def evaluate(dim, draws):
        v = _unit_vectors(np.stack(draws))
        rho = v[..., :, None] * v.conj()[..., None, :]
        ra, rb = rho[:, 0], rho[:, 1]
        return np.abs(trace_distance(ra, rb) - np.sqrt(
            np.maximum(1 - fidelity(ra, rb), 0.0)))
    return _pair_suite("pure-pair-saturation", trials, dims, rng, tol,
                       lambda dim: rng.normal(size=(2, 2, dim)), evaluate)


def depolarizing_equality_check(p: float, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The purification bound is tight for the one-qubit depolarizing channel.

    Every pure input has fidelity exactly 1 - p/2, so eps = p/2 and the
    bound reads 1 - (1 + 2/4) eps = 1 - 3p/4, which the maximally
    entangled input attains exactly.
    """
    kraus = ChannelSpec(DEPOLARIZING, depolarizing(p), ("a",)).kraus_terms(1)
    # eps over pure inputs (covariant channel: any state suffices, check a few)
    probes = np.array([[1, 0], [1, 1], [1, 1j]]) / np.sqrt([1, 2, 2])[:, None]
    eps = float((1 - _output_fidelity(kraus, probes[:, None])).max())
    bound = 1 - (1 + 2 / 4) * eps
    bell = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    f = float(_output_fidelity(kraus, bell))
    gap = abs(f - bound)
    witness = {"p": p, "epsilon": eps, "entanglement_fidelity": f,
               "bound": bound}
    return InequalityReport("depolarizing-purification-equality", 1,
                            float(gap), witness, tol)


def check_double_concavity(pairs):
    """Margin of sum_j w_j sqrt(F_j) - sqrt(F(mixtures)); positive = violated.

    ``pairs`` holds ``(w_j, a_j, b_j)``; with stacks a_j, b_j of shape
    (..., d, d), each w_j has shape (...).
    """
    weights = np.array([w for w, _, _ in pairs], dtype=float)
    if np.any(np.abs(weights.sum(axis=0) - 1.0) > 1e-12):
        raise InvalidArgumentError("weights must sum to 1")
    mats = [(w[..., None, None], states._as_matrix(a), states._as_matrix(b))
            for w, (_, a, b) in zip(weights, pairs)]
    mix_a = sum(w * a for w, a, _ in mats)
    mix_b = sum(w * b for w, _, b in mats)
    # one stacked call: the mixtures' fidelity first, then each pair's
    f = fidelity(np.stack([mix_a] + [a for _, a, _ in mats]),
                 np.stack([mix_b] + [b for _, _, b in mats]))
    rhs = sum(w * np.sqrt(fj) for w, fj in zip(weights, f[1:]))
    return rhs - np.sqrt(f[0])


def double_concavity_suite(trials: int, dims, rng,
                           tol: float = DEFAULT_TOL) -> InequalityReport:
    def draw(dim):
        k = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        return w, rng.normal(size=(k, 2, 2, dim * dim))  # (a_j, b_j) pairs

    def evaluate(dim, draws):
        # trials with fewer pairs are padded with zero-weight zero matrices,
        # which add exact zeros to both sides
        ks = [len(wj) for wj, _ in draws]
        rows = np.repeat(np.arange(len(draws)), ks)
        cols = np.concatenate([np.arange(k) for k in ks])
        w = np.zeros((len(draws), max(ks)))
        w[rows, cols] = np.concatenate([wj for wj, _ in draws])
        ab = np.zeros((len(draws), max(ks), 2, dim, dim), dtype=complex)
        ab[rows, cols] = _densities(np.concatenate([g for _, g in draws]))
        return check_double_concavity(
            [(w[:, j], ab[:, j, 0], ab[:, j, 1]) for j in range(max(ks))])
    return _pair_suite("double-concavity", trials, dims, rng, tol, draw,
                       evaluate,
                       lambda d: {"weights": [float(x) for x in d[0]]})


def check_bures_triangle(a, b, c):
    """Margin of d_B(a,c) - d_B(a,b) - d_B(b,c); positive = violated.

    The three distances come from one stacked call.
    """
    a, b, c = (states._as_matrix(x) for x in (a, b, c))
    states._check_same_dim(a, b)
    states._check_same_dim(b, c)
    d = bures_distance(np.stack([a, a, b]), np.stack([c, b, c]))
    return states._value(d[0] - d[1] - d[2])


def bures_triangle_suite(trials: int, dims, rng,
                         tol: float = DEFAULT_TOL) -> InequalityReport:
    """Triangle inequality of the Bures metric over random triples."""
    def evaluate(dim, draws):
        rho = _densities(np.stack(draws))
        return check_bures_triangle(rho[:, 0], rho[:, 1], rho[:, 2])
    return _pair_suite("bures-triangle", trials, dims, rng, tol,
                       lambda dim: rng.normal(size=(3, 2, dim * dim)),
                       evaluate)


def measure_channel_epsilon(channel, num_qubits: int, rng,
                            samples: int = 200) -> float:
    """Worst sampled pure-state infidelity of a channel (premise constant).

    Samples Haar states plus the computational and Fourier-type basis states.
    """
    dim = 2 ** num_qubits
    kraus = channel.kraus_terms(num_qubits)
    vecs = np.concatenate([np.eye(dim), np.full((1, dim), 1 / np.sqrt(dim)),
                           haar_states(samples, dim, rng)])
    # np.maximum, unlike max(), keeps a NaN infidelity
    infidelity = 1.0 - _output_fidelity(kraus, vecs[:, None])
    return float(np.maximum(infidelity.max(), 0.0))


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
    # |psi> = sum_{s,r} psi[s, r] |s>|r> with the channel on s: row r of
    # each transposed block is the system vector paired with reference r
    psi = haar_states(purifications, dim * dim, rng).reshape(-1, dim, dim)
    f = _output_fidelity(channel.kraus_terms(num_qubits),
                         psi.swapaxes(-1, -2))
    return InequalityReport(
        "entanglement-fidelity-bound", purifications,
        *_worst_trial(bound - f, lambda i: {
            "epsilon": eps, "dim": dim, "trial": i, "fidelity": float(f[i])},
            {"epsilon": eps, "dim": dim}),
        tol)


def check_composed_channel_bound(per_member_channels, t: int, rng,
                                 epsilon_samples: int = 100,
                                 tol: float = DEFAULT_TOL) -> InequalityReport:
    """Composed-transit bound on the shared entangled resource.

    With eps1 the worst per-member block infidelity, the fidelity of the
    full (n+1)-party cat-state resource after every member's channel must
    satisfy sqrt(F) >= 1 - n sqrt((1 + 2^(t-2)) eps1); the per-member
    1 - (1 + 2^(t-2)) eps1 form is checked along the way.

    Each single-member stage is sum_k |<phi|K_k|phi>|^2 on the pure cat
    vector phi, with that member's Kraus terms on its block; only the
    composed stage runs the dense density-matrix chain, which applies each
    member's channel once.
    """
    n = len(per_member_channels)
    if n < 1 or t < 1:
        raise InvalidArgumentError(
            "the composed bound needs at least one member and one copy")
    states.check_capacity((n + 1) * t, "the composed resource")
    members = [f"m{i}" for i in range(n)]
    state = states.cat_copies(members + ["C"], t)
    eps1 = 0.0
    for ch in per_member_channels:
        eps1 = max(eps1, measure_channel_epsilon(ch, t, rng,
                                                 samples=epsilon_samples))
    factor = 1 + 2.0 ** (t - 2)
    # stages 0..n-1: member i's channel alone, from the pure cat vector;
    # stage n: every channel applied once, in turn, to the density matrix
    current = states.to_density(state)
    fids = []
    for mu, ch in zip(members, per_member_channels):
        targets = [(mu, c) for c in range(t)]
        fids.append(_block_fidelity(state, ch, targets))
        current = states.apply_channel(current, ch, targets)
    fids.append(fidelity(state, current))
    fids = np.array(fids)
    violations = np.append((1 - factor * eps1) - fids[:n],
                           (1 - n * np.sqrt(factor * eps1)) - np.sqrt(fids[n]))
    names = [f"single:{mu}" for mu in members] + ["composed"]
    return InequalityReport(
        "composed-channel-bound", n + 1,
        *_worst_trial(violations, lambda i: {
            "epsilon1": eps1, "stage": names[i], "fidelity": float(fids[i])}),
        tol)


def _random_channel(rng, num_qubits: int):
    if rng.random() < 0.5:
        return ChannelSpec(DEPOLARIZING,
                           depolarizing(float(rng.uniform(0, 0.3))), ("a",))
    letters = "IXYZ"
    strings = ["".join(c) for c in itertools.product(letters, repeat=num_qubits)]
    w = rng.dirichlet(np.ones(len(strings)) * 0.2)
    w = w / w.sum()
    return ChannelSpec(PAULI_CHANNEL, zip(strings, w.tolist()), ("a",))


def entanglement_fidelity_suite(draws: int, rng,
                                tol: float = DEFAULT_TOL) -> InequalityReport:
    """Purification bound over random one-qubit channels, plus the
    closed-form equality case for the depolarizing channel at p = 0.1."""
    reports = [check_entanglement_fidelity_bound(
        _random_channel(rng, 1), 1, rng,
        purifications=40, epsilon_samples=60) for _ in range(draws)]
    reports.append(depolarizing_equality_check(0.1))
    return InequalityReport(
        "entanglement-fidelity-bound", draws,
        *_worst_trial([r.max_violation for r in reports],
                      lambda i: reports[i].witness), tol)


def composed_bound_suite(draws: int, rng,
                         tol: float = DEFAULT_TOL) -> InequalityReport:
    """Composed-transit bound over random per-member depolarizing strengths,
    on 2 or 3 members with t = 2 copies each."""
    ns, reports = [], []
    for _ in range(draws):
        n = int(rng.integers(2, 4))
        channels = [ChannelSpec(DEPOLARIZING,
                                depolarizing(float(rng.uniform(0, 0.2))),
                                (f"m{j}",)) for j in range(n)]
        ns.append(n)
        reports.append(check_composed_channel_bound(channels, 2, rng,
                                                    epsilon_samples=20))
    return InequalityReport(
        "composed-channel-bound", draws,
        *_worst_trial([r.max_violation for r in reports], lambda i: dict(
            reports[i].witness, draw=i, n=ns[i])), tol)


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
    # the run derives key bits on exactly the usable records
    usable = [r for r in transcript.records if r.b_a is not None]
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
    """The reports as JSON; a NaN or infinite value, which JSON cannot
    hold, is written as null."""
    text = json.dumps([r.to_dict() for r in reports])
    return json.dumps(json.loads(text, parse_constant=lambda _: None),
                      sort_keys=True, indent=2)


def reports_to_csv(reports) -> str:
    lines = ["inequality_id,trials,max_violation,tolerance,passed"]
    for r in reports:
        lines.append(f"{r.inequality_id},{r.trials},{r.max_violation!r},"
                     f"{r.tolerance!r},{r.passed}")
    return "\n".join(lines) + "\n"
