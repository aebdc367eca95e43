import itertools
import json
import math

import numpy as np
import pytest

from qkdnet import analysis, states
from qkdnet.adversary import AdversarySpec, ChannelSpec
from qkdnet.errors import InvalidArgumentError
from qkdnet.protocol import NetworkConfig, run_protocol1

from helpers import random_density


def test_random_density_is_a_state():
    rng = np.random.default_rng(0)
    for dim in (2, 5):
        rho = random_density(dim, rng)
        assert np.allclose(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_fuchs_van_de_graaf_known_pair():
    # |0><0| vs |+><+|: F = 1/2, D = sqrt(1/2); both margins negative/zero
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    lo, hi = analysis.check_fuchs_van_de_graaf(z0, plus)
    assert lo == pytest.approx(1 - np.sqrt(0.5) - np.sqrt(0.5), abs=1e-9)
    assert hi == pytest.approx(0.0, abs=1e-9)


def test_suites_pass_at_default_tolerance():
    rng = np.random.default_rng(21)
    dims = [2, 3, 4]
    for rep in (analysis.fuchs_van_de_graaf_suite(150, dims, rng),
                analysis.pure_saturation_suite(150, dims, rng),
                analysis.double_concavity_suite(150, dims, rng),
                analysis.bures_triangle_suite(150, dims, rng)):
        assert rep.passed, rep.inequality_id


def test_double_concavity_requires_normalized_weights():
    rng = np.random.default_rng(1)
    a, b = random_density(2, rng), random_density(2, rng)
    with pytest.raises(InvalidArgumentError):
        analysis.check_double_concavity([(0.7, a, b), (0.7, a, b)])


def _separate_call_margins(a, b, c, pairs):
    """Both margins with one metric call per distance and per fidelity
    term, as the checks once computed them."""
    bures = (states.bures_distance(a, c) - states.bures_distance(a, b)
             - states.bures_distance(b, c))
    weights = np.array([w for w, _, _ in pairs])
    mix_a = sum(w[..., None, None] * x for w, (_, x, _) in zip(weights, pairs))
    mix_b = sum(w[..., None, None] * y for w, (_, _, y) in zip(weights, pairs))
    f = states.fidelity(np.stack([x for _, x, _ in pairs]),
                        np.stack([y for _, _, y in pairs]))
    concavity = (sum(w * np.sqrt(fj) for w, fj in zip(weights, f))
                 - np.sqrt(states.fidelity(mix_a, mix_b)))
    return bures, concavity


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_checks_equal_per_trial_evaluation(dim):
    # one stacked metric call per check gives the same bits as evaluating
    # each trial alone, and as one call per distance or fidelity term
    rng = np.random.default_rng(dim)
    n, k = 5, 2 + dim % 3
    rho = analysis._densities(rng.normal(size=(n, 3, 2, dim * dim)))
    a, b, c = rho[:, 0], rho[:, 1], rho[:, 2]
    w = rng.dirichlet(np.ones(k), size=n)
    ab = analysis._densities(rng.normal(size=(n, k, 2, 2, dim * dim)))
    stacked_bures = analysis.check_bures_triangle(a, b, c)
    stacked_concavity = analysis.check_double_concavity(
        [(w[:, j], ab[:, j, 0], ab[:, j, 1]) for j in range(k)])
    assert stacked_bures.shape == stacked_concavity.shape == (n,)
    for i in range(n):
        pairs = [(w[i, j], ab[i, j, 0], ab[i, j, 1]) for j in range(k)]
        bures = analysis.check_bures_triangle(a[i], b[i], c[i])
        concavity = analysis.check_double_concavity(pairs)
        assert isinstance(bures, float)
        assert (bures, concavity) == (stacked_bures[i],
                                      stacked_concavity[i])
        assert (bures, concavity) == _separate_call_margins(a[i], b[i], c[i],
                                                            pairs)


def test_bures_triangle_rejects_mismatched_dimensions():
    rng = np.random.default_rng(0)
    a, b = random_density(2, rng), random_density(2, rng)
    with pytest.raises(InvalidArgumentError):
        analysis.check_bures_triangle(a, b, random_density(3, rng))


def test_worst_trial_keeps_first_tie_and_nan():
    def witness_of(i):
        return {"trial": i}
    assert analysis._worst_trial([0.5, 0.2, 0.5], witness_of) \
        == (0.5, {"trial": 0})
    worst, witness = analysis._worst_trial([-1.0, np.nan, 3.0, np.nan],
                                           witness_of)
    assert math.isnan(worst) and witness == {"trial": 1}
    assert analysis._worst_trial([], witness_of, {"e": 1}) \
        == (-math.inf, {"e": 1})


def _nan_trace_distance(monkeypatch, trials):
    """Make ``analysis.trace_distance`` give NaN on the given stack rows."""
    real = analysis.trace_distance

    def patched(x, y):
        d = np.array(real(x, y))
        d[list(trials)] = np.nan
        return d
    monkeypatch.setattr(analysis, "trace_distance", patched)


def test_one_nan_trial_fails_its_suite_and_is_the_witness(monkeypatch):
    # one dimension, so the stack rows are the trials
    _nan_trace_distance(monkeypatch, [3])
    rep = analysis.pure_saturation_suite(10, [2], np.random.default_rng(5))
    assert math.isnan(rep.max_violation) and not rep.passed
    assert rep.witness == {"trial": 3, "dim": 2}


def test_all_nan_trials_fail_their_suite(monkeypatch):
    # a NaN used to lose every comparison: -inf and PASS
    _nan_trace_distance(monkeypatch, range(10))
    rep = analysis.fuchs_van_de_graaf_suite(10, [2], np.random.default_rng(5))
    assert math.isnan(rep.max_violation) and not rep.passed
    assert rep.witness["trial"] == 0


def test_haar_states_batch_matches_single_draws():
    # one draw for a batch gives the same stream and bits as single draws
    for dim in (2, 5, 64):
        rng = np.random.default_rng(dim)
        batch = analysis.haar_states(7, dim, rng)
        rng = np.random.default_rng(dim)
        for row in batch:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            np.testing.assert_array_equal(row, v / np.linalg.norm(v))


def test_output_fidelity_matches_explicit_channel_output():
    rng = np.random.default_rng(6)
    for dim, terms in ((2, 4), (4, 3)):
        g = (rng.normal(size=(terms * dim, dim))
             + 1j * rng.normal(size=(terms * dim, dim)))
        kraus = list(np.linalg.qr(g)[0].reshape(terms, dim, dim))
        vecs = analysis.haar_states(6, dim, rng)
        got = analysis._output_fidelity(kraus, vecs)
        assert got.shape == (6,)
        for v, f in zip(vecs, got):
            rho = np.outer(v, v.conj())
            out = sum(k @ rho @ k.conj().T for k in kraus)
            assert f == pytest.approx((v.conj() @ out @ v).real, abs=1e-14)
            assert analysis._output_fidelity(kraus, v) \
                == pytest.approx(f, abs=1e-15)


def test_measured_epsilon_of_depolarizing_channel():
    rng = np.random.default_rng(2)
    ch = ChannelSpec(kind="depolarizing", p=0.2, targets=("a",))
    eps = analysis.measure_channel_epsilon(ch, 1, rng, samples=50)
    assert eps == pytest.approx(0.1, abs=1e-9)  # unitarily covariant: p/2


def test_entanglement_fidelity_bound_holds():
    rng = np.random.default_rng(3)
    ch = ChannelSpec(kind="depolarizing", p=0.15, targets=("a",))
    rep = analysis.check_entanglement_fidelity_bound(
        ch, 1, rng, purifications=50, epsilon_samples=50)
    assert rep.passed


def test_depolarizing_equality_closed_form():
    rep = analysis.depolarizing_equality_check(0.1)
    assert rep.max_violation <= 1e-9
    assert rep.witness["epsilon"] == pytest.approx(0.05)
    assert rep.witness["bound"] == pytest.approx(1 - 0.075)


def _kron_entanglement_margins(channel, num_qubits, rng, purifications,
                               epsilon_samples):
    """The purification check with each Kraus term embedded on system and
    reference as kron(K, I): its margins and fidelities."""
    dim = 2 ** num_qubits
    eps = analysis.measure_channel_epsilon(channel, num_qubits, rng,
                                           samples=epsilon_samples)
    big = [np.kron(k, np.eye(dim)) for k in channel.kraus_terms(num_qubits)]
    f = analysis._output_fidelity(
        big, analysis.haar_states(purifications, dim * dim, rng))
    return 1 - (1 + dim / 4) * eps - f, f


def test_entanglement_fidelity_matches_kron_embedding():
    # the block form moves only round-off against the embedded Kraus terms
    for seed in range(200):
        num_qubits = 1 + seed % 2
        channel = analysis._random_channel(np.random.default_rng(seed),
                                           num_qubits)
        rep = analysis.check_entanglement_fidelity_bound(
            channel, num_qubits, np.random.default_rng(seed + 1000),
            purifications=40, epsilon_samples=60)
        margins, f = _kron_entanglement_margins(
            channel, num_qubits, np.random.default_rng(seed + 1000), 40, 60)
        i = rep.witness["trial"]
        assert abs(rep.max_violation - margins.max()) <= 1e-12
        assert abs(rep.witness["fidelity"] - f[i]) <= 1e-12
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for p in np.linspace(0, 1, 11):
        kraus = ChannelSpec(kind="depolarizing", p=p,
                            targets=("a",)).kraus_terms(1)
        want = analysis._output_fidelity(
            [np.kron(k, np.eye(2)) for k in kraus], bell)
        got = analysis.depolarizing_equality_check(p).witness
        assert abs(got["entanglement_fidelity"] - want) <= 1e-12


def test_composed_channel_bound_holds():
    rng = np.random.default_rng(4)
    chans = [ChannelSpec(kind="depolarizing", p=0.1, targets=("m0",)),
             ChannelSpec(kind="depolarizing", p=0.05, targets=("m1",))]
    rep = analysis.check_composed_channel_bound(chans, 2, rng,
                                                epsilon_samples=30)
    assert rep.passed


def _cat_copies(n, t):
    owners = [f"m{i}" for i in range(n)] + ["C"]
    state = None
    for c in range(t):
        cat = states.make_cat(n + 1, states.PHI_PLUS,
                              [(mu, c) for mu in owners])
        state = cat if state is None else states.tensor(state, cat)
    return state


def _random_pauli_table(rng, t, member):
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=t)]
    w = rng.dirichlet(np.full(len(strings), 0.3))
    return ChannelSpec(kind="pauli", targets=(member,), pauli_probs={
        s: float(p) for s, p in zip(strings, w / w.sum())})


@pytest.mark.parametrize("n,t", [(2, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("kind", ["depolarizing", "pauli"])
def test_single_stage_fidelity_matches_dense_channel_output(n, t, kind):
    # each single-member stage from the pure cat vector against the same
    # channel applied to the dense density matrix
    rng = np.random.default_rng(40 + 10 * n + t)
    state = _cat_copies(n, t)
    phi = states.to_density(state)
    chans = []
    for i in range(n):
        mu = f"m{i}"
        ch = (ChannelSpec(kind="depolarizing", p=float(rng.uniform(0, 0.3)),
                          targets=(mu,)) if kind == "depolarizing"
              else _random_pauli_table(rng, t, mu))
        chans.append(ch)
        targets = [(mu, c) for c in range(t)]
        dense = states.fidelity(state, states.apply_channel(phi, ch, targets))
        assert abs(analysis._block_fidelity(state, ch, targets)
                   - dense) <= 1e-12
    rep = analysis.check_composed_channel_bound(chans, t, rng,
                                                epsilon_samples=20)
    stage = rep.witness["stage"]
    if stage != "composed":
        i = int(stage.removeprefix("single:m"))
        dense = states.fidelity(state, states.apply_channel(
            phi, chans[i], [(f"m{i}", c) for c in range(t)]))
        assert abs(rep.witness["fidelity"] - dense) <= 1e-12


def test_table_correlation_law_exact_and_sampled():
    rng = np.random.default_rng(5)
    res = analysis.table_correlation_check((1, 2), 2000, rng)
    assert res["violations"] == 0
    assert res["max_violating_mass"] < 1e-12
    res = analysis.table_correlation_check((1, 2, 1), 2000, rng)
    assert res["violations"] == 0
    with pytest.raises(InvalidArgumentError):
        analysis.cat_parity_distribution(["X", "Y"])  # odd Y count


def test_protocol_statistics_fields():
    cfg = NetworkConfig(n=2, m=1, t=1, rounds=300, auth_enabled=False)
    tr = run_protocol1(cfg, AdversarySpec(), 13)
    stats = analysis.protocol_statistics(tr)
    assert stats["verdict"] == "Pass" and not stats["detected"]
    assert stats["key_agreement_rate"] == 1.0
    lo, hi = stats["test_error_ci95"]
    assert lo <= stats["test_error_rate"] <= hi
    json.dumps(stats)  # plain types only


def test_binomial_ci_is_wilson_at_the_edges():
    # 0 errors in 9 test bits: the Wald interval was [0, 6.5e-7]
    lo, hi = analysis._binomial_ci(0, 9)
    assert lo == 0.0 and hi == pytest.approx(0.2992, abs=1e-4)
    lo, hi = analysis._binomial_ci(9, 9)
    assert lo == pytest.approx(0.7008, abs=1e-4) and hi == 1.0
    lo, hi = analysis._binomial_ci(1, 9)
    assert (lo, hi) == pytest.approx((0.0199, 0.4350), abs=1e-4)


def test_report_emission_round_trip():
    rng = np.random.default_rng(6)
    reports = [analysis.fuchs_van_de_graaf_suite(20, [2], rng),
               analysis.bures_triangle_suite(20, [2], rng)]
    doc = json.loads(analysis.reports_to_json(reports))
    assert [d["inequality_id"] for d in doc] \
        == ["fuchs-van-de-graaf", "bures-triangle"]
    assert all(d["passed"] for d in doc)
    csv = analysis.reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("inequality_id,")
    assert len(lines) == 3


def test_report_json_writes_non_finite_values_as_null():
    # a NaN violation used to be written as the bare token NaN
    nan, inf = float("nan"), float("inf")
    reports = [analysis.InequalityReport(
        "x", 2, nan, {"fidelity": nan, "stage": "composed",
                      "rho": [[1.0, -inf], [(inf, 0.5)]]}),
        analysis.InequalityReport("y", 1, -inf)]

    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    doc = json.loads(analysis.reports_to_json(reports),
                     parse_constant=reject)
    assert doc[0]["max_violation"] is None and doc[0]["passed"] is False
    assert doc[0]["witness"] == {"fidelity": None, "stage": "composed",
                                 "rho": [[1.0, None], [[None, 0.5]]]}
    assert doc[1]["max_violation"] is None and doc[1]["passed"] is True
