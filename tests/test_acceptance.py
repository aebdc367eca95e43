"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line with the
measured quantity and its stated tolerance before asserting, so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the certification report.
"""
import numpy as np
import pytest

from qkdnet import analysis, cli, gf2, states
from qkdnet.adversary import AdversarySpec, ChannelSpec, parse_adversary
from qkdnet.auth import auth_receive, auth_send, keygen
from qkdnet.protocol import NetworkConfig, run_protocol1, run_protocol2
from qkdnet.stabilizer import gen_purity_family, syndrome
from qkdnet.states import (CAT_KINDS, PHI_MINUS, PHI_PLUS, PSI_MINUS,
                           PSI_PLUS, make_cat)

from helpers import hermitian_pauli


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. cat-state decomposition identities ---------------------------------

_COEF = {PHI_PLUS: 1, PHI_MINUS: -1, PSI_PLUS: 1j, PSI_MINUS: -1j}
_FLIP = {PHI_PLUS: PHI_MINUS, PHI_MINUS: PHI_PLUS,
         PSI_PLUS: PSI_MINUS, PSI_MINUS: PSI_PLUS}
# splitting through psi-pairs exchanges the family as well as the sign
_PSI_ROUTE = {PHI_PLUS: PSI_MINUS, PHI_MINUS: PSI_PLUS,
              PSI_PLUS: PHI_PLUS, PSI_MINUS: PHI_MINUS}


def _amp(j, kind):
    a = np.zeros(2 ** j, dtype=complex)
    a[0] = 1 / np.sqrt(2)
    a[-1] = _COEF[kind] / np.sqrt(2)
    return a


def test_criterion_1_cat_decomposition():
    worst = 0.0
    for kind in CAT_KINDS:
        for n in range(2, 7):
            target = make_cat(n, kind).amplitudes
            for m in range(1, n):
                k = n - m
                via_phi = (np.kron(_amp(m, PHI_PLUS), _amp(k, kind))
                           + np.kron(_amp(m, PHI_MINUS),
                                     _amp(k, _FLIP[kind]))) / np.sqrt(2)
                other = _PSI_ROUTE[kind]
                via_psi = (np.kron(_amp(m, PSI_PLUS), _amp(k, other))
                           + np.kron(_amp(m, PSI_MINUS),
                                     _amp(k, _FLIP[other]))) / np.sqrt(2)
                worst = max(worst,
                            np.max(np.abs(via_phi - target)),
                            np.max(np.abs(via_psi - target)))
    _verdict("criterion-1 cat-state decomposition identities",
             worst <= 1e-12,
             f"max amplitude error {worst:.3e} (tolerance 1e-12), "
             f"n<=6, all m, all four kinds, both routes")


# -- 2./3. correlation table oracles ---------------------------------------

def test_criterion_2_table_one_oracle():
    rng = np.random.default_rng(1002)
    total = 0
    assignments = 0
    for n in range(2, 7):
        res = analysis.table_correlation_check((1, n - 1), 10000, rng)
        total += res["violations"]
        assignments += res["assignments"]
    _verdict("criterion-2 two-party outcome-parity table",
             total == 0,
             f"{total} violations over {assignments} even-Y assignments "
             f"x 10^4 shots, n=2..6")


def test_criterion_3_table_two_oracle():
    rng = np.random.default_rng(1003)
    total = 0
    assignments = 0
    for n in range(2, 6):
        res = analysis.table_correlation_check((1, n - 1, 1), 10000, rng)
        total += res["violations"]
        assignments += res["assignments"]
    _verdict("criterion-3 centered outcome-parity table",
             total == 0,
             f"{total} violations over {assignments} assignments x 10^4 "
             f"shots, n=2..5 plus one-qubit center")


# -- 4. protocol end-to-end ------------------------------------------------

def test_criterion_4_protocol_end_to_end():
    cfg = NetworkConfig(n=4, m=2, t=1, rounds=10000, auth_enabled=False)
    tr1 = run_protocol1(cfg, AdversarySpec(), 1004)
    s1 = tr1.summary()
    discard = s1["discarded"] / s1["records"]
    agree1 = all(a == b for a, b in zip(tr1.key_a, tr1.key_b))
    cfg2 = NetworkConfig(n=3, m=1, t=1, rounds=3000, protocol=2,
                         auth_enabled=False)
    tr2 = run_protocol2(cfg2, AdversarySpec(), 1004)
    s2 = tr2.summary()
    ok = (abs(discard - 0.5) <= 0.03 and tr1.verdict == "Pass" and agree1
          and tr1.key_a and s2["discarded"] == 0 and tr2.verdict == "Pass"
          and tr2.key_a == tr2.key_b and tr2.key_a)
    _verdict("criterion-4 protocol end-to-end",
             bool(ok),
             f"protocol-1 discard {discard:.4f} (0.50 +/- 0.03), agreement "
             f"{agree1}; protocol-2 discard {s2['discarded']} (exactly 0), "
             f"agreement {tr2.key_a == tr2.key_b}")


# -- 5. purity-family audit ------------------------------------------------

def test_criterion_5_purity_family_audit():
    fam22 = gen_purity_family(2, 2, seed=1005)
    fam23 = gen_purity_family(2, 3, seed=1005)
    ok = (fam22.epsilon_audited <= 4 / 5 + 1e-12
          and fam23.epsilon_audited <= 4 / 9 + 1e-12)
    _verdict("criterion-5 purity-family exhaustive audit",
             ok,
             f"(r=2,s=2): audited {fam22.epsilon_audited} <= 0.8; "
             f"(r=2,s=3): audited {fam23.epsilon_audited} <= {4 / 9:.4f}")


# -- 6. authentication soundness -------------------------------------------

def test_criterion_6_authentication_soundness():
    fam = gen_purity_family(2, 2, seed=1006)
    rng = np.random.default_rng(1006)
    logical = states.basis_state([0, 0], [("l", 0), ("l", 1)])
    trials = 10000
    attacked_trials = 0
    accept_corrupt = 0
    for _ in range(trials):
        keys = keygen(fam, rng)
        code = fam.codes[keys.k]
        pattern = int(rng.integers(1, 4 ** fam.u))
        e = hermitian_pauli(
            [(pattern >> i) & 1 for i in range(fam.u)],
            [(pattern >> (fam.u + i)) & 1 for i in range(fam.u)])
        if gf2.in_row_space([g.x << fam.u | g.z for g in code.generators],
                            e.x << fam.u | e.z)[0]:
            continue  # stabilizer element: acts trivially, not an attack
        attacked_trials += 1
        phys = auth_send(keys, fam, logical)
        att = states.apply_pauli(phys, e, phys.labels)
        out = auth_receive(keys, fam, att, rng, out_labels=logical.labels)
        # cross-check the dense verdict against the symplectic prediction
        assert out.accepted == (not syndrome(code, e).any())
        if out.accepted:
            f = states.fidelity(states.to_density(out.logical_state),
                                states.to_density(logical))
            if f < 1 - 1e-9:
                accept_corrupt += 1
    eps = fam.epsilon_audited
    freq = accept_corrupt / attacked_trials
    bound = eps + 3 * np.sqrt(eps * (1 - eps) / attacked_trials)
    # deterministic rejection of any error with nonzero syndrome
    rejects = 0
    for _ in range(1000):
        keys = keygen(fam, rng)
        code = fam.codes[keys.k]
        while True:
            pattern = int(rng.integers(1, 4 ** fam.u))
            e = hermitian_pauli(
                [(pattern >> i) & 1 for i in range(fam.u)],
                [(pattern >> (fam.u + i)) & 1 for i in range(fam.u)])
            if syndrome(code, e).any():
                break
        phys = auth_send(keys, fam, logical)
        att = states.apply_pauli(phys, e, phys.labels)
        rejects += not auth_receive(keys, fam, att, rng).accepted
    ok = freq <= bound and rejects == 1000
    _verdict("criterion-6 authentication soundness",
             ok,
             f"accept-with-corruption {freq:.4f} <= {bound:.4f} "
             f"(eps_audited {eps} + 3 sigma, {attacked_trials} trials); "
             f"nonzero-syndrome rejects {rejects}/1000")


# -- 7. eavesdropping and dishonest-member detection -----------------------

def test_criterion_7_eavesdropping_detection():
    cfg = NetworkConfig(n=2, m=1, t=1, rounds=20000, auth_enabled=False)
    tr = run_protocol1(cfg, parse_adversary("intercept@m1"), 1007)
    qber = tr.observed_error_rate
    bits = len(tr.test_indices)
    fails = 0
    runs = 50
    short = NetworkConfig(n=2, m=1, t=1, rounds=400, auth_enabled=False)
    for i in range(runs):
        t = run_protocol1(short, parse_adversary("intercept@m1"), 2000 + i)
        assert len(t.test_indices) >= 32
        fails += t.verdict == "Fail"
    lie_fails = 0
    lie_cfg = NetworkConfig(n=3, m=1, t=1, rounds=250, auth_enabled=False)
    for i in range(30):
        t = run_protocol1(lie_cfg, parse_adversary("lie-outcome:p=1.0@m3"),
                          3000 + i)
        lie_fails += t.verdict == "Fail"
    ok = (abs(qber - 0.25) <= 0.03 and fails / runs >= 0.99
          and lie_fails == 30)
    _verdict("criterion-7 eavesdropping detection",
             ok,
             f"intercept-resend QBER {qber:.4f} over {bits} test bits "
             f"(0.25 +/- 0.03); Fail rate {fails}/{runs} (>= 0.99 with "
             f">= 32 test bits); lie-outcome detected {lie_fails}/30")


# -- 8. inequality suite ---------------------------------------------------

def test_criterion_8_inequality_suite():
    rng = np.random.default_rng(1008)
    dims = [2, 3, 4, 5, 6, 7, 8]
    reports = [
        analysis.fuchs_van_de_graaf_suite(1000, dims, rng),
        analysis.double_concavity_suite(1000, dims, rng),
        analysis.bures_triangle_suite(1000, dims, rng),
        analysis.pure_saturation_suite(1000, dims, rng),
        analysis.depolarizing_equality_check(0.1),
        analysis.composed_bound_suite(20, rng),
    ]
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"{r.inequality_id} {r.max_violation:.2e}"
                       for r in reports)
    _verdict("criterion-8 inequality suite (tolerance 1e-9)", ok, detail)


# -- 9. command-line determinism -------------------------------------------

def test_criterion_9_cli_determinism(capsys, tmp_path):
    commands = [
        ["run", "--protocol", "2", "--n", "3", "--m", "1", "--t", "2",
         "--rounds", "60", "--seed", "7"],
        ["audit-code", "--r", "2", "--s", "2", "--seed", "1"],
        ["verify-inequalities", "--trials", "60", "--dims", "2,3",
         "--seed", "4"],
        ["tables", "--shots", "500", "--seed", "0"],
    ]
    mismatches = []
    for argv in commands:
        outputs = []
        for rep in range(2):
            extra = []
            if argv[0] == "run":
                path = tmp_path / f"{'-'.join(argv[:2])}-{rep}.jsonl"
                extra = ["--out", str(path)]
            code = cli.main(argv + extra)
            captured = capsys.readouterr()
            blob = captured.out.encode()
            if argv[0] == "run":
                blob += path.read_bytes()
            outputs.append((code, blob))
        if outputs[0] != outputs[1]:
            mismatches.append(argv[0])
    _verdict("criterion-9 CLI determinism",
             not mismatches,
             f"byte-identical stdout+files for {len(commands)} subcommands"
             + (f"; mismatches: {mismatches}" if mismatches else ""))
