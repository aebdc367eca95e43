import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import gf2, stabilizer, states
from qkdnet.errors import CapacityError, InvalidArgumentError
from qkdnet.paulis import PauliOperator, parity, pauli_mul
from qkdnet.stabilizer import (PurityFamily, audit_family, decode_coset,
                               encode_coset, family_from_json, family_to_json,
                               gen_purity_family, syndrome, undetected_counts)

from helpers import hermitian_pauli


@pytest.fixture(scope="module")
def fam22():
    return gen_purity_family(2, 2, seed=1)


@pytest.fixture(scope="module")
def fam23():
    return gen_purity_family(2, 3, seed=1)


def test_family_shape(fam22):
    assert fam22.u == 4 and fam22.t == 2
    assert fam22.keys == (0, 1, 2, 3)  # auth.keygen draws a key below 2^s
    for code in fam22.codes.values():
        assert len(code.generators) == 2
        assert len(code.logical_x) == 2 and len(code.logical_z) == 2


def test_generators_commute_logicals_pair(fam22, fam23):
    for fam in (fam22, fam23):
        for code in fam.codes.values():
            for i, g in enumerate(code.generators):
                for h in code.generators[i + 1:]:
                    assert g.commutes_with(h)
                for lx, lz in zip(code.logical_x, code.logical_z):
                    assert g.commutes_with(lx) and g.commutes_with(lz)
            for i, lx in enumerate(code.logical_x):
                for j, lz in enumerate(code.logical_z):
                    assert lx.commutes_with(lz) == (i != j)


def test_audited_error_within_budget(fam22, fam23):
    assert fam22.epsilon_formula == pytest.approx(0.8)
    assert fam23.epsilon_formula == pytest.approx(4 / 9)
    assert fam22.epsilon_audited <= fam22.epsilon_formula
    assert fam23.epsilon_audited <= fam23.epsilon_formula
    # exact values of this construction (independent enumeration oracle froze
    # these: (2r-1)/2^s undetected polynomial fraction)
    assert fam22.epsilon_audited == pytest.approx(0.75)
    assert fam23.epsilon_audited == pytest.approx(0.375)


# SHA-256 of family_to_json before the whole-family array passes; the
# logicals fix the coset isometries behind the pinned protocol-2 transcripts
_FAMILY_SHA256 = {
    (2, 2, 0):
        "5bbf7ab278e26c0c54a39871e11c5f6cce05149aaf58142468285e24d2606898",
    (2, 2, 1693489682):
        "7939d5169d1ade4c4c4d655273b78199de7f5cc28bf2ce525b4ed78c6913b7cc",
    (2, 3, 0):
        "f9152e9ec635e789b6d0041b01728a4d327bce7436b06ffdd11ca8b4646f31f6",
    (2, 3, 1693489682):
        "ca7b0fc86382f928205a5bdbee2b88ba44b01a9b15110abb903c517657366f8b",
    (2, 4, 0):
        "7dbd77e980a3cd0e51e9a71eb785e7c77080e0bbd96253536faa9c2a4d09053c",
    (2, 4, 1693489682):
        "f268c04d6a02ffd1dcfcff04e21792b0223825151858323ae08b2ec0b010894f",
    (3, 2, 0):
        "3b652fd4a89c77cddcaff83809e0113132d1bebaf977d5d4815749921fea1ade",
    (3, 2, 1693489682):
        "bc976d62f7d19e917434f510d45c590cf475c0e312649c55d38f9370cb358550",
    (3, 3, 0):
        "e918832905654d1f76b8fb2fcae1a0311b89d1378b08886011887839c910e0fd",
    (3, 3, 1693489682):
        "feb8219509e2cb22d3530633e9790a5aaad7de4d18e6b1fc59e737034a4e55a1",
    (2, 5, 0):
        "daa743833417345abb37677a0ff9844f21e2053366b2cee90ec23c1dc6e34502",
    (2, 5, 1693489682):
        "b55853b3abff201bc1a78912704c006c0c4422da95e575be9cc1ba05c82cafce",
}


def test_family_construction_pinned_bit_for_bit():
    def digest(r, s, seed):
        text = family_to_json(gen_purity_family(r, s, seed=seed))
        return hashlib.sha256(text.encode()).hexdigest()

    for (r, s, seed), want in _FAMILY_SHA256.items():
        assert digest(r, s, seed) == want, (r, s, seed)
    # the raw rows are built once per (r, s) and carry nothing from one
    # family into the next: either seed first gives the same two families
    for order in ((0, 1693489682), (1693489682, 0)):
        stabilizer._raw_generator_bits.cache_clear()
        for seed in order:
            assert digest(2, 3, seed) == _FAMILY_SHA256[2, 3, seed]
    assert not stabilizer._raw_generator_bits(2, 3).flags.writeable


def test_seed_variation_preserves_audited_error():
    # the seeded relabeling permutes the nonidentity Paulis, so epsilon is
    # the same for every seed
    for (r, s), want in {(2, 2): 0.75, (2, 4): 0.1875, (3, 3): 0.625,
                         (2, 5): 0.09375}.items():
        eps = {gen_purity_family(r, s, seed=seed).epsilon_audited
               for seed in range(8)}
        assert eps == {want}, (r, s)


def test_degenerate_single_key_family_fails_audit(fam22):
    k = fam22.keys[0]
    degenerate = PurityFamily(r=2, s=2, codes={k: fam22.codes[k]})
    assert audit_family(degenerate) == pytest.approx(1.0)
    assert audit_family(degenerate) > degenerate.epsilon_formula


def test_exhaustive_audit_of_3_3_within_budget():
    fam = gen_purity_family(3, 3, seed=0)  # u = 9, audited on generation
    assert fam.epsilon_audited <= fam.epsilon_formula
    assert fam.epsilon_audited == pytest.approx(0.625)  # (2r-1)/2^s


def test_audit_of_u_10_and_12_families_within_budget():
    for (r, s), want in {(2, 5): 0.09375, (3, 4): 0.3125,
                         (4, 3): 0.875}.items():
        fam = gen_purity_family(r, s, seed=0)  # audited on generation
        assert fam.epsilon_audited == want, (r, s)
        assert fam.epsilon_audited <= fam.epsilon_formula


def _enumerated_counts(fam):
    """Oracle: test every nonidentity pattern's syndrome against every key;
    the count of keys missing each pattern, indexed by ``(x << u) | z``."""
    u = fam.u
    idx = np.arange(1, 4 ** u)
    # base-4 digit q of the pattern index is (x_q, z_q) of qubit q
    ex = np.zeros(len(idx), dtype=np.int64)
    ez = np.zeros(len(idx), dtype=np.int64)
    for q in range(u):
        ex |= (idx >> 2 * q & 1) << (u - 1 - q)
        ez |= (idx >> 2 * q + 1 & 1) << (u - 1 - q)
    counts = np.zeros(len(idx), dtype=np.int64)
    for code in fam.codes.values():
        hit = np.zeros(len(idx), dtype=bool)
        for g in code.generators:
            hit |= parity((ex & g.z) ^ (ez & g.x)) == 1
        trivial = ~hit
        in_stab = gf2.in_row_space([g.x << u | g.z for g in code.generators],
                                   ex[trivial] << u | ez[trivial])
        counts[trivial] += ~in_stab
    by_row = np.zeros(4 ** u, dtype=np.int64)
    by_row[ex << u | ez] = counts
    return by_row


@pytest.mark.parametrize("rs", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                (4, 2)])
def test_undetected_counts_match_enumeration(rs):
    for seed in range(4):
        fam = gen_purity_family(*rs, seed=seed, audit="skip")
        assert np.array_equal(undetected_counts(fam), _enumerated_counts(fam))


def test_undetected_counts_walk_the_normalizer_in_slices(monkeypatch):
    # slices of 2^3 rows give the same histogram as one slice per key
    fams = [gen_purity_family(r, s, seed=seed, audit="skip")
            for r, s in ((2, 3), (3, 2), (2, 4)) for seed in range(2)]
    whole = [undetected_counts(fam) for fam in fams]
    monkeypatch.setattr(stabilizer, "_SLICE_BITS", 3)
    for fam, want in zip(fams, whole):
        assert np.array_equal(undetected_counts(fam), want)


def test_u_12_audit_memory_does_not_grow_with_the_normalizer():
    # (6, 2) has 2^22 normalizer rows per key: 32 MB as int64; the audit
    # holds its 4^12 histogram and a slice at a time
    fam = gen_purity_family(6, 2, seed=0, audit="skip")
    tracemalloc.start()
    try:
        assert audit_family(fam) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 ** 12 + 4 * 2 ** 20


def test_audit_matches_per_error_oracle():
    # the histogram at 40 drawn patterns per family against the syndrome and
    # the stabilizer group of every key, built from the Pauli operators
    for fam in (gen_purity_family(2, s, seed=3) for s in (2, 3)):
        u = fam.u
        counts = undetected_counts(fam)
        for seed in range(40):
            pattern = int(np.random.default_rng(seed).integers(1, 4 ** u))
            digits = [pattern // 4 ** q % 4 for q in range(u)]  # qubit q
            e = hermitian_pauli([d & 1 for d in digits],
                                [d >> 1 for d in digits])
            missed = 0
            for code in fam.codes.values():
                group = [PauliOperator.from_string("I" * u)]
                for g in code.generators:
                    group += [pauli_mul(h, g) for h in group]
                in_stab = any((h.x, h.z) == (e.x, e.z) for h in group)
                if not syndrome(code, e).any() and not in_stab:
                    missed += 1
            assert counts[e.x << u | e.z] == missed


def test_audit_capacity_guard():
    fam = gen_purity_family(7, 2, seed=0, audit="skip")  # u = 14
    with pytest.raises(CapacityError):
        audit_family(fam)
    assert fam.epsilon_audited is None


def test_encode_decode_round_trip(fam22):
    rng = np.random.default_rng(3)
    for key in fam22.keys:
        code = fam22.codes[key]
        y = rng.integers(0, 2, size=2).astype(np.uint8)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        logical = states.PureStateVector((("l", 0), ("l", 1)), amps)
        physical = encode_coset(code, y, logical)
        measured, back = decode_coset(code, physical, rng,
                                      out_labels=logical.labels)
        assert np.array_equal(measured, y)
        assert states.fidelity(states.to_density(back),
                               states.to_density(logical)) == pytest.approx(1.0)


def _reference_isometry(code, y, dense):
    """The coset isometry built one basis vector at a time with the dense
    Pauli matrices ``dense[p]``: project each candidate onto the
    (syndrome-y, +1 logical-Z) eigenspace in turn, keep the first that
    survives, then apply the logical X of each set bit."""
    def act(vec, p):
        return dense[p] @ vec

    def project(vec):
        for i, g in enumerate(code.generators):
            sign = -1.0 if y[i] else 1.0
            vec = (vec + sign * act(vec, g)) / 2
        for lz in code.logical_z:
            vec = (vec + act(vec, lz)) / 2
        return vec

    for b in range(2 ** code.u):
        cand = np.zeros(2 ** code.u, dtype=complex)
        cand[b] = 1.0
        cand = project(cand)
        n = np.linalg.norm(cand)
        if n > 1e-6:
            v0 = cand / n
            break
    cols = []
    for a in range(2 ** code.t):
        w = v0
        for j in range(code.t):
            if (a >> (code.t - 1 - j)) & 1:
                w = act(w, code.logical_x[j])
        cols.append(w)
    return np.column_stack(cols)


@pytest.mark.parametrize("rs", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_coset_isometries_match_the_per_vector_build(rs):
    r, s = rs
    for seed in range(3):
        fam = gen_purity_family(r, s, seed=seed, audit="skip")
        for code in fam.codes.values():
            dense = {p: p.to_matrix() for p in (*code.generators,
                                                *code.logical_x,
                                                *code.logical_z)}
            for bits in itertools.product((0, 1), repeat=s):
                y = np.array(bits, dtype=np.uint8)
                ref = _reference_isometry(code, y, dense)
                iso = stabilizer.encoding_isometry(code, y)
                assert np.array_equal(iso, ref)
                assert not iso.flags.writeable
                # the second lookup reads the kept isometry
                adjoint = stabilizer.encoding_isometry(code, y).conj().T
                assert np.array_equal(adjoint, ref.conj().T)
            assert len(code._iso_cache) == 2 ** s


def test_coset_isometries_are_expanded_only_for_the_syndromes_drawn():
    fam = gen_purity_family(2, 4, seed=0, audit="skip")
    code = fam.codes[fam.keys[0]]
    y = np.array([1, 0, 1, 1], dtype=np.uint8)
    iso = stabilizer.encoding_isometry(code, y)
    expanded = [key for key, entry in code._iso_cache.items()
                if entry.ndim == 2]
    assert len(code._iso_cache) == 16 and expanded == [y.tobytes()]
    # the isometry alone is kept; its adjoint is taken afresh at each read
    assert code._iso_cache[y.tobytes()] is iso
    adjoint = stabilizer.encoding_isometry(code, y).conj().T
    assert not np.shares_memory(adjoint, iso)


def test_coset_build_rejects_a_code_with_an_empty_coset():
    # generators Z1 and Z1 again: syndrome (0, 1) asks Z1 = +1 and -1
    z1 = PauliOperator.from_string("ZI")
    code = stabilizer.StabilizerCode(u=2, t=0, generators=[z1, z1],
                                     logical_x=[], logical_z=[])
    with pytest.raises(InvalidArgumentError, match="annihilates"):
        stabilizer.encoding_isometry(code, [0, 1])


def test_error_shifts_syndrome(fam22):
    rng = np.random.default_rng(7)
    code = fam22.codes[fam22.keys[1]]
    for _ in range(20):
        y = rng.integers(0, 2, size=2).astype(np.uint8)
        e = hermitian_pauli(rng.integers(0, 2, 4), rng.integers(0, 2, 4))
        logical = states.basis_state([0, 0], [("l", 0), ("l", 1)])
        physical = encode_coset(code, y, logical)
        attacked = states.apply_pauli(physical, e, physical.labels)
        measured, _ = decode_coset(code, attacked, rng)
        assert np.array_equal(measured, y ^ syndrome(code, e))


@settings(deadline=None)
@given(data=st.data())
def test_syndrome_matches_dense_anticommutation(fam22, fam23, data):
    fam = data.draw(st.sampled_from([fam22, fam23]))
    code = fam.codes[data.draw(st.sampled_from(fam.keys))]
    mask = st.integers(0, 2 ** fam.u - 1)
    e = PauliOperator(fam.u, data.draw(mask), data.draw(mask),
                      data.draw(st.integers(0, 3)))
    me = e.to_matrix()
    want = [int(not np.allclose(g.to_matrix() @ me, me @ g.to_matrix()))
            for g in code.generators]
    assert syndrome(code, e).tolist() == want


def test_stabilizer_element_acts_trivially(fam22):
    rng = np.random.default_rng(9)
    code = fam22.codes[fam22.keys[0]]
    g = pauli_mul(code.generators[0], code.generators[1])
    logical = states.basis_state([1, 0], [("l", 0), ("l", 1)])
    physical = encode_coset(code, np.zeros(2, dtype=np.uint8), logical)
    attacked = states.apply_pauli(
        physical, PauliOperator.from_string(g.to_string()), physical.labels)
    measured, back = decode_coset(code, attacked, rng,
                                  out_labels=logical.labels)
    assert not measured.any()
    assert states.fidelity(states.to_density(back),
                           states.to_density(logical)) == pytest.approx(1.0)


@settings(deadline=None, max_examples=15)
@given(rs=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_family_json_round_trip(rs, seed):
    fam = gen_purity_family(*rs, seed=seed)
    back = family_from_json(family_to_json(fam))
    assert (back.r, back.s) == rs
    assert back.keys == fam.keys
    assert back.epsilon_audited == fam.epsilon_audited
    for k in fam.keys:
        a, b = fam.codes[k], back.codes[k]
        assert a.generators == b.generators
        assert a.logical_x == b.logical_x and a.logical_z == b.logical_z


def test_code_equality_ignores_the_isometry_cache():
    a, b = (gen_purity_family(2, 2, seed=0) for _ in range(2))
    key = a.keys[0]
    y = np.zeros(2, dtype=np.uint8)
    assert a.codes[key] == b.codes[key]
    stabilizer.encoding_isometry(a.codes[key], y)
    assert a.codes[key] == b.codes[key]  # only one has cached it
    stabilizer.encoding_isometry(b.codes[key], y)
    assert a.codes[key] == b.codes[key]  # both have
    assert a.codes[key] != a.codes[a.keys[1]]


def _symplectic_by_pairs(code) -> bool:
    """What ``validate`` checks, one operator pair at a time."""
    ops = code.generators + code.logical_x + code.logical_z
    s, t = code.num_generators, code.t
    for (i, a), (j, b) in itertools.product(enumerate(ops), repeat=2):
        if a.commutes_with(b) == (min(i, j) >= s and abs(i - j) == t):
            return False
    return len(gf2.row_reduce([g.x << g.n | g.z for g in code.generators])) == s


def test_validate_matches_the_pairwise_relations(fam23):
    # replace one operator by its product with another of the code (often
    # still a valid code) or with a random Pauli (rarely)
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(300):
        code = fam23.codes[int(rng.integers(len(fam23.codes)))]
        groups = [list(code.generators), list(code.logical_x),
                  list(code.logical_z)]
        ops = [op for group in groups for op in group]
        other = (ops[rng.integers(len(ops))] if rng.random() < 0.7 else
                 PauliOperator.from_string(
                     "".join(rng.choice(list("IXYZ"), code.u))))
        g = int(rng.integers(3))
        k = int(rng.integers(len(groups[g])))
        groups[g][k] = pauli_mul(groups[g][k], other)
        edited = stabilizer.StabilizerCode(code.u, code.t, *groups)
        want = _symplectic_by_pairs(edited)
        verdicts.add(want)
        if want:
            edited.validate()
        else:
            with pytest.raises(InvalidArgumentError):
                edited.validate()
    assert verdicts == {True, False}


def _tampered(fam, edit):
    doc = json.loads(family_to_json(fam))
    edit(doc["codes"][str(fam.keys[0])])
    return json.dumps(doc)


def test_family_json_rejects_tampered_codes(fam22, fam23):
    def flip_letter(code):
        # change one letter of a generator so it anticommutes with a logical
        g, lx = code["generators"][0], code["logical_x"][0]
        q = next(i for i, c in enumerate(lx) if c != "I")
        code["generators"][0] = next(
            cand for cand in (g[:q] + c + g[q + 1:] for c in "IXYZ")
            if not PauliOperator.from_string(cand).commutes_with(
                PauliOperator.from_string(lx)))

    def drop_qubit(code):
        for name in ("generators", "logical_x", "logical_z"):
            code[name] = [g[:-1] for g in code[name]]

    def drop_generator(code):
        code["generators"].pop()

    def swap_generator(code):
        # XIII -> ZIII leaves a valid code whose family audits at 1.0
        assert code["generators"][0] == "XIII"
        code["generators"][0] = "ZIII"

    def swap_logical_z(code):
        # logical X_0 then pairs with Z_1: the pair relations break
        code["logical_z"].reverse()

    def anticommuting_logical_z(code):
        # Z_0 times X_1: every X-Z pair relation holds, but Z_0 and Z_1
        # anticommute, and the audit reads only the generators
        assert code["logical_z"][0] == "IIZI"
        assert code["logical_x"][1] == "IIIX"
        code["logical_z"][0] = "IIZX"

    for edit in (flip_letter, drop_qubit, drop_generator, swap_generator,
                 swap_logical_z, anticommuting_logical_z):
        with pytest.raises(InvalidArgumentError):
            family_from_json(_tampered(fam22, edit))

    # keygen draws keys 0 .. 2^s - 1, so the key set itself is checked
    def relabel_key(doc):
        # the same codes audit at the stored epsilon
        doc["codes"]["99"] = doc["codes"].pop("2")

    def drop_key(doc):
        # 7 of the 8 keys audit at 3/7, under the 4/9 budget
        del doc["codes"]["7"]
        doc["epsilon_audited"] = None

    for edit in (relabel_key, drop_key):
        doc = json.loads(family_to_json(fam23))
        edit(doc)
        with pytest.raises(InvalidArgumentError, match="keys 0 .. 2"):
            family_from_json(json.dumps(doc))


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidArgumentError):
        gen_purity_family(1, 2, seed=0)
    with pytest.raises(InvalidArgumentError):
        gen_purity_family(2, 1, seed=0)
    for audit in ("yes", "Auto", "", None):
        with pytest.raises(InvalidArgumentError):
            gen_purity_family(2, 2, seed=0, audit=audit)
