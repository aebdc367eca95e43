"""Stabilizer codes with syndrome-coset encoding and keyed purity-testing families.

The keyed family is built from a normal-rational-curve style construction
over GF(2^s): for key x the stabilizer is the field-line spanned by
(b_j * (1, x, .., x^(r-1)) | b_j * (x^r, .., x^(2r-1))) written in a
self-dual basis {b_j}.  Any nonzero Pauli error then evaluates to a nonzero
polynomial of degree < 2r in x, so at most 2r - 1 of the 2^s keys can miss
it, which keeps the audited error below 2r / (2^s + 1).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2, states
from .errors import CapacityError, InvalidArgumentError
from .paulis import PauliOperator, symplectic_product

DENSE_AUDIT_CAP = 8  # max u for exhaustive 4^u error enumeration


@dataclass
class StabilizerCode:
    """u physical qubits, t logical qubits, s = u - t commuting generators."""

    u: int
    t: int
    generators: list
    logical_x: list
    logical_z: list
    _iso_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        s = self.u - self.t
        if len(self.generators) != s:
            raise InvalidArgumentError("need u - t generators")
        if len(self.logical_x) != self.t or len(self.logical_z) != self.t:
            raise InvalidArgumentError("need t logical X and Z operators")

    @property
    def num_generators(self) -> int:
        return self.u - self.t

    def generator_matrix(self) -> np.ndarray:
        """(s, 2u) bit matrix of generator (x | z) vectors."""
        return np.array([g.symplectic() for g in self.generators], dtype=np.uint8)

    def validate(self) -> None:
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if not a.commutes_with(b):
                    raise InvalidArgumentError("generators do not commute")
        gm = self.generator_matrix()
        red, _ = gf2.row_reduce(gm)
        if red.shape[0] != len(self.generators):
            raise InvalidArgumentError("generators are not independent")
        for j in range(self.t):
            for g in self.generators:
                if not self.logical_x[j].commutes_with(g):
                    raise InvalidArgumentError("logical X hits a generator")
                if not self.logical_z[j].commutes_with(g):
                    raise InvalidArgumentError("logical Z hits a generator")
            for k in range(self.t):
                want = 1 if j == k else 0
                ip = symplectic_product(self.logical_x[j].symplectic(),
                                        self.logical_z[k].symplectic())
                if ip != want:
                    raise InvalidArgumentError("logical pair relations broken")


def syndrome(code: StabilizerCode, e: PauliOperator) -> np.ndarray:
    """Bit i = 1 iff e anticommutes with generator i."""
    if e.num_qubits != code.u:
        raise InvalidArgumentError("error width must equal u")
    return np.array([0 if g.commutes_with(e) else 1 for g in code.generators],
                    dtype=np.uint8)


def symplectic_complete(gen_bits: np.ndarray, u: int):
    """Extend commuting generator rows to a full symplectic basis of F2^(2u).

    Returns (logical_x_bits, logical_z_bits): t hyperbolic pairs commuting
    with the generator span.
    """
    s = gen_bits.shape[0]
    remaining = [row.astype(np.uint8).copy() for row in gen_bits]
    remaining += [row for row in np.eye(2 * u, dtype=np.uint8)]
    pairs = []
    while remaining:
        v = remaining.pop(0)
        if not v.any():
            continue
        j = None
        for idx, w in enumerate(remaining):
            if symplectic_product(v, w) == 1:
                j = idx
                break
        if j is None:
            continue  # v lies in the span of completed pairs
        w = remaining.pop(j)
        for k in range(len(remaining)):
            uvec = remaining[k]
            if symplectic_product(uvec, w):
                uvec = uvec ^ v
            if symplectic_product(uvec, v):
                uvec = uvec ^ w
            remaining[k] = uvec
        pairs.append((v, w))
    assert len(pairs) == u, "symplectic completion failed"
    logical = pairs[s:]
    lx = np.array([p[0] for p in logical], dtype=np.uint8)
    lz = np.array([p[1] for p in logical], dtype=np.uint8)
    return lx, lz


def code_from_generator_bits(gen_bits: np.ndarray, u: int) -> StabilizerCode:
    """Build a code (with Hermitian generators and logicals) from bit rows."""
    gen_bits = np.asarray(gen_bits, dtype=np.uint8) % 2
    s = gen_bits.shape[0]
    red, _ = gf2.row_reduce(gen_bits)
    if red.shape[0] != s:
        raise InvalidArgumentError("generator rows are dependent")
    lx_bits, lz_bits = symplectic_complete(gen_bits, u)
    gens = [PauliOperator.from_bits_hermitian(row[:u], row[u:]) for row in gen_bits]
    lx = [PauliOperator.from_bits_hermitian(row[:u], row[u:]) for row in lx_bits]
    lz = [PauliOperator.from_bits_hermitian(row[:u], row[u:]) for row in lz_bits]
    return StabilizerCode(u=u, t=u - s, generators=gens, logical_x=lx, logical_z=lz)


# --------------------------------------------------------------------------
# dense syndrome-coset encoding
# --------------------------------------------------------------------------

def encoding_isometry(code: StabilizerCode, y) -> np.ndarray:
    """(2^u, 2^t) isometry onto the syndrome-y coset of the code space.

    Column a is the encoding of logical basis state |a>, built by projecting
    a reference vector onto the joint (+1 logical-Z, syndrome-y) eigenspace
    and applying logical X representatives.
    """
    y = np.asarray(y, dtype=np.uint8) % 2
    if len(y) != code.num_generators:
        raise InvalidArgumentError("syndrome length must be u - t")
    key = y.tobytes()
    cached = code._iso_cache.get(key)
    if cached is not None:
        return cached
    dim = 2 ** code.u
    positions = range(code.u - 1, -1, -1)  # qubit 0 is the top index bit

    def act(vec, p):
        return states.pauli_on_vector(vec, p, positions)

    def project(vec):
        for i, g in enumerate(code.generators):
            sign = -1.0 if y[i] else 1.0
            vec = (vec + sign * act(vec, g)) / 2
        for lz in code.logical_z:
            vec = (vec + act(vec, lz)) / 2
        return vec

    v0 = None
    for b in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[b] = 1.0
        cand = project(cand)
        n = np.linalg.norm(cand)
        if n > 1e-6:
            v0 = cand / n
            break
    assert v0 is not None, "coset projector annihilated every basis vector"
    cols = []
    for a in range(2 ** code.t):
        w = v0
        for j in range(code.t):
            if (a >> (code.t - 1 - j)) & 1:
                w = act(w, code.logical_x[j])
        cols.append(w)
    iso = np.column_stack(cols)
    code._iso_cache[key] = iso
    return iso


def encode_coset(code: StabilizerCode, y, logical, out_labels=None):
    """Embed a t-qubit logical state into the syndrome-y coset (u qubits)."""
    if logical.num_qubits != code.t:
        raise InvalidArgumentError("logical state must have t qubits")
    iso = encoding_isometry(code, y)
    if out_labels is None:
        out_labels = [("phys", i) for i in range(code.u)]
    return states.apply_isometry(logical, iso, logical.labels, out_labels)


def decode_coset(code: StabilizerCode, y, physical, rng, out_labels=None):
    """Measure the syndrome, then extract the logical content.

    Returns (measured_syndrome, logical_state).  The logical state lives on
    ``out_labels`` (default ("log", i)); extraction uses the isometry of the
    measured syndrome sector.
    """
    if physical.num_qubits != code.u:
        raise InvalidArgumentError("physical state must have u qubits")
    return decode_coset_in_place(code, physical, physical.labels, rng,
                                 out_labels=out_labels)


def decode_coset_in_place(code: StabilizerCode, state, block_labels, rng,
                          out_labels=None):
    """Decode a u-qubit block embedded in a possibly larger state."""
    block_labels = [tuple(l) for l in block_labels]
    if len(block_labels) != code.u:
        raise InvalidArgumentError("block must have u labels")
    measured = np.zeros(code.num_generators, dtype=np.uint8)
    for i, g in enumerate(code.generators):
        bit, state = states.measure_pauli(state, g, block_labels, rng)
        measured[i] = bit
    iso = encoding_isometry(code, measured)
    if out_labels is None:
        out_labels = [("log", i) for i in range(code.t)]
    logical = states.apply_isometry(state, iso.conj().T, block_labels, out_labels)
    return measured, logical


# --------------------------------------------------------------------------
# keyed purity-testing family
# --------------------------------------------------------------------------

@dataclass
class PurityFamily:
    r: int
    s: int
    codes: dict  # key (int) -> StabilizerCode
    epsilon_audited: float | None = None

    @property
    def u(self) -> int:
        return self.r * self.s

    @property
    def t(self) -> int:
        return (self.r - 1) * self.s

    @property
    def epsilon_formula(self) -> float:
        return 2 * self.r / (2 ** self.s + 1)

    @property
    def keys(self) -> list:
        return sorted(self.codes)


def _family_generator_bits(r: int, s: int) -> dict:
    """Raw (s, 2u) generator bit matrices per key, before seeded relabeling."""
    fld = gf2.BinaryField(s)
    basis = fld.self_dual_basis()
    bmat = np.column_stack([gf2.int_to_bits(b, s) for b in basis])
    binv = gf2.invert_f2(bmat)

    def coords(c: int) -> np.ndarray:
        return (binv @ gf2.int_to_bits(c, s)) % 2

    u = r * s
    out = {}
    for x in range(fld.size):
        gvec = [fld.pow(x, i) for i in range(r)]
        hvec = [fld.pow(x, r + i) for i in range(r)]
        rows = []
        for bj in basis:
            xbits = np.concatenate([coords(fld.mul(bj, gi)) for gi in gvec])
            zbits = np.concatenate([coords(fld.mul(bj, hi)) for hi in hvec])
            rows.append(np.concatenate([xbits, zbits]))
        out[x] = np.array(rows, dtype=np.uint8)
    return out


def _seeded_relabeling(u: int, rng) -> tuple:
    """Random single-qubit symplectic relabeling: permutation + per-qubit
    X/Z swap and shear; preserves commutation and the audited error."""
    perm = rng.permutation(u)
    swap = rng.integers(0, 2, size=u)
    shear = rng.integers(0, 2, size=u)
    return perm, swap, shear


def _apply_relabeling(bits: np.ndarray, u: int, relab) -> np.ndarray:
    perm, swap, shear = relab
    x = bits[:, :u][:, perm].copy()
    z = bits[:, u:][:, perm].copy()
    # shear: z += x on selected qubits (phase-gate-like)
    z[:, shear == 1] ^= x[:, shear == 1]
    # swap: exchange x and z on selected qubits (Hadamard-like)
    xs = x.copy()
    x[:, swap == 1] = z[:, swap == 1]
    z[:, swap == 1] = xs[:, swap == 1]
    return np.hstack([x, z])


def gen_purity_family(r: int, s: int, seed,
                      audit: str = "auto") -> PurityFamily:
    """Deterministically generate the keyed code family for (r, s), one
    code per key 0 .. 2^s - 1.

    With ``audit="auto"`` families small enough for exhaustive enumeration
    are audited and generation fails loudly if the audited error exceeds
    the 2r/(2^s + 1) budget.
    """
    if r < 2 or s < 2:
        raise InvalidArgumentError("need r >= 2 and s >= 2")
    u = r * s
    relab = _seeded_relabeling(u, np.random.default_rng(seed))
    codes = {x: code_from_generator_bits(_apply_relabeling(bits, u, relab), u)
             for x, bits in _family_generator_bits(r, s).items()}
    fam = PurityFamily(r=r, s=s, codes=codes)
    if audit == "auto" and u <= DENSE_AUDIT_CAP:
        eps = audit_family(fam)
        if eps > fam.epsilon_formula + 1e-12:
            raise RuntimeError(
                f"generated family audited at {eps}, above budget "
                f"{fam.epsilon_formula}; construction invariant violated")
    return fam


def audit_family(fam: PurityFamily, sample_errors: int | None = None,
                 rng=None) -> float:
    """Exact (or sampled) purity-testing error of the family.

    For every nonidentity Pauli pattern e, counts the fraction of keys for
    which e is syndrome-trivial yet outside the stabilizer group; returns
    the maximum fraction and stores it in ``epsilon_audited``.
    """
    u = fam.u
    if sample_errors is None:
        if u > DENSE_AUDIT_CAP:
            raise CapacityError(
                f"u={u} exceeds exhaustive audit cap {DENSE_AUDIT_CAP}; "
                "pass sample_errors for a sampled audit")
        n_err = 4 ** u - 1
        idx = np.arange(1, 4 ** u)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.integers(1, 4 ** u, size=sample_errors)
        n_err = sample_errors
    xpart = np.zeros((n_err, u), dtype=np.uint8)
    zpart = np.zeros((n_err, u), dtype=np.uint8)
    for q in range(u):
        digit = (idx // 4 ** q) % 4
        xpart[:, q] = digit & 1
        zpart[:, q] = digit >> 1
    errs = np.hstack([xpart, zpart])
    counts = np.zeros(n_err, dtype=np.int64)
    for code in fam.codes.values():
        gm = code.generator_matrix()
        gm_sw = np.hstack([gm[:, u:], gm[:, :u]])
        synd = (errs @ gm_sw.T) % 2
        trivial = ~synd.any(axis=1)
        in_stab = gf2.in_row_space(gm, errs)
        counts += (trivial & ~in_stab).astype(np.int64)
    eps = float(counts.max() / len(fam.codes)) if n_err else 0.0
    fam.epsilon_audited = eps
    return eps


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def family_to_json(fam: PurityFamily) -> str:
    doc = {
        "r": fam.r,
        "s": fam.s,
        "epsilon_formula": fam.epsilon_formula,
        "epsilon_audited": fam.epsilon_audited,
        "codes": {
            str(k): {
                "generators": [c.to_string() for c in code.generators],
                "logical_x": [c.to_string() for c in code.logical_x],
                "logical_z": [c.to_string() for c in code.logical_z],
            }
            for k, code in fam.codes.items()
        },
    }
    return json.dumps(doc, sort_keys=True)


def family_from_json(text: str) -> PurityFamily:
    """Load a family, rejecting codes that are not valid (r, s) codes.

    A family small enough for the exhaustive audit is audited again; it is
    rejected if its error exceeds the 2r/(2^s + 1) budget or differs from
    the stored ``epsilon_audited``.
    """
    doc = json.loads(text)
    r, s = doc["r"], doc["s"]
    u = r * s
    codes = {}
    for k, body in doc["codes"].items():
        ops = {name: [PauliOperator.from_string(g) for g in body[name]]
               for name in ("generators", "logical_x", "logical_z")}
        if len(ops["generators"]) != s or any(
                p.num_qubits != u for group in ops.values() for p in group):
            raise InvalidArgumentError(
                f"code {k} needs {s} generators on u = r*s = {u} qubits")
        code = StabilizerCode(u=u, t=u - s, **ops)
        code.validate()
        codes[int(k)] = code
    stored = doc.get("epsilon_audited")
    fam = PurityFamily(r=r, s=s, codes=codes, epsilon_audited=stored)
    if u <= DENSE_AUDIT_CAP:
        eps = audit_family(fam)
        if eps > fam.epsilon_formula + 1e-12 or (
                stored is not None and abs(eps - stored) > 1e-12):
            raise InvalidArgumentError(
                f"family audits at epsilon {eps}, against stored {stored} "
                f"and budget {fam.epsilon_formula}")
    return fam
