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
from .paulis import PauliOperator

DENSE_AUDIT_CAP = 12  # max u for the exact audit's 4^u pattern histogram


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

    def validate(self) -> None:
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if not a.commutes_with(b):
                    raise InvalidArgumentError("generators do not commute")
        if len(gf2.row_reduce(_rows(self.generators))) != len(self.generators):
            raise InvalidArgumentError("generators are not independent")
        for j in range(self.t):
            for g in self.generators:
                if not self.logical_x[j].commutes_with(g):
                    raise InvalidArgumentError("logical X hits a generator")
                if not self.logical_z[j].commutes_with(g):
                    raise InvalidArgumentError("logical Z hits a generator")
            for k, lz in enumerate(self.logical_z):
                if self.logical_x[j].commutes_with(lz) == (j == k):
                    raise InvalidArgumentError("logical pair relations broken")


def _rows(ops) -> list:
    """Code rows ``(x << n) | z``: the (x | z) bits read left to right."""
    return [p.x << p.n | p.z for p in ops]


def _symplectic(v: int, w: int, u: int) -> int:
    """Symplectic product of two code rows on u qubits."""
    return (v >> u & w ^ v & w >> u).bit_count() & 1


def syndrome(code: StabilizerCode, e: PauliOperator) -> np.ndarray:
    """Bit i = 1 iff e anticommutes with generator i."""
    if e.n != code.u:
        raise InvalidArgumentError("error width must equal u")
    return np.array([0 if g.commutes_with(e) else 1 for g in code.generators],
                    dtype=np.uint8)


def symplectic_complete(gen_rows: list, u: int):
    """Extend commuting generator rows to a full symplectic basis of F2^(2u).

    Returns (logical_x_rows, logical_z_rows): t hyperbolic pairs commuting
    with the generator span.
    """
    s = len(gen_rows)
    # unit rows in (x | z) column order: x of qubit 0 first
    remaining = list(gen_rows) + [1 << b for b in range(2 * u - 1, -1, -1)]
    pairs = []
    while remaining:
        v = remaining.pop(0)
        if not v:
            continue
        j = next((idx for idx, w in enumerate(remaining)
                  if _symplectic(v, w, u)), None)
        if j is None:
            continue  # v lies in the span of completed pairs
        w = remaining.pop(j)
        for k, row in enumerate(remaining):
            if _symplectic(row, w, u):
                row ^= v
            if _symplectic(row, v, u):
                row ^= w
            remaining[k] = row
        pairs.append((v, w))
    assert len(pairs) == u, "symplectic completion failed"
    logical = pairs[s:]
    return [p[0] for p in logical], [p[1] for p in logical]


def code_from_generator_bits(gen_rows: list, u: int) -> StabilizerCode:
    """Build a code (with Hermitian generators and logicals) from code rows."""
    s = len(gen_rows)
    if len(gf2.row_reduce(gen_rows)) != s:
        raise InvalidArgumentError("generator rows are dependent")
    lx_rows, lz_rows = symplectic_complete(gen_rows, u)
    low = (1 << u) - 1
    gens, lx, lz = ([PauliOperator(u, row >> u, row & low).hermitian()
                     for row in rows] for rows in (gen_rows, lx_rows, lz_rows))
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
    """Raw generator code rows per key, before seeded relabeling."""
    fld = gf2.BinaryField(s)
    basis = fld.self_dual_basis()
    # coords[c]: s-bit coordinates of field element c, coefficient of
    # basis[0] in the top bit
    coords = [0] * fld.size
    for m in range(fld.size):
        c = 0
        for k, b in enumerate(basis):
            if m >> (s - 1 - k) & 1:
                c ^= b
        coords[c] = m

    u = r * s
    out = {}
    for x in range(fld.size):
        rows = []
        for bj in basis:
            xs = zs = 0
            for i in range(r):
                xs = xs << s | coords[fld.mul(bj, fld.pow(x, i))]
                zs = zs << s | coords[fld.mul(bj, fld.pow(x, r + i))]
            rows.append(xs << u | zs)
        out[x] = rows
    return out


def _seeded_relabeling(u: int, rng) -> tuple:
    """Random single-qubit symplectic relabeling: permutation + per-qubit
    X/Z swap and shear; preserves commutation and the audited error."""
    perm = rng.permutation(u).tolist()
    swap = rng.integers(0, 2, size=u).tolist()
    shear = rng.integers(0, 2, size=u).tolist()
    return perm, swap, shear


def _apply_relabeling(rows: list, u: int, relab) -> list:
    """New qubit q takes old qubit perm[q], then shears and swaps."""
    perm, swap, shear = relab
    out = []
    for row in rows:
        x = z = 0
        for q in range(u):
            b = u - 1 - perm[q]
            xb, zb = row >> (u + b) & 1, row >> b & 1
            zb ^= xb & shear[q]  # z += x (phase-gate-like)
            if swap[q]:  # exchange x and z (Hadamard-like)
                xb, zb = zb, xb
            x, z = x << 1 | xb, z << 1 | zb
        out.append(x << u | z)
    return out


def gen_purity_family(r: int, s: int, seed,
                      audit: str = "auto") -> PurityFamily:
    """Deterministically generate the keyed code family for (r, s), one
    code per key 0 .. 2^s - 1.

    With ``audit="auto"`` families within the exact audit cap are audited
    and generation fails loudly if the audited error exceeds the
    2r/(2^s + 1) budget; ``audit="skip"`` leaves the audit to the caller.
    """
    if r < 2 or s < 2:
        raise InvalidArgumentError("need r >= 2 and s >= 2")
    if audit not in ("auto", "skip"):
        raise InvalidArgumentError(
            f"audit must be 'auto' or 'skip', not {audit!r}")
    u = r * s
    relab = _seeded_relabeling(u, np.random.default_rng(seed))
    codes = {x: code_from_generator_bits(_apply_relabeling(rows, u, relab), u)
             for x, rows in _family_generator_bits(r, s).items()}
    fam = PurityFamily(r=r, s=s, codes=codes)
    if audit == "auto" and u <= DENSE_AUDIT_CAP:
        eps = audit_family(fam)
        if eps > fam.epsilon_formula + 1e-12:
            raise RuntimeError(
                f"generated family audited at {eps}, above budget "
                f"{fam.epsilon_formula}; construction invariant violated")
    return fam


# The audit walks each normalizer 2^14 rows at a time: a slice and its
# temporaries (64 KiB as uint32) are reused from the heap, where 2^16-row
# slices were mapped and faulted in afresh, 98k faults on a first (3, 4)
# audit against 57.
_SLICE_BITS = 14


def _span(basis, dtype) -> np.ndarray:
    """Every XOR combination of the ``basis`` rows; bit i of the index
    selects row i."""
    span = np.zeros(1 << len(basis), dtype=dtype)
    for i, b in enumerate(basis):
        np.bitwise_xor(span[:1 << i], b, out=span[1 << i:2 << i])
    return span


def undetected_counts(fam: PurityFamily) -> np.ndarray:
    """Per Pauli pattern, the number of keys that miss it.

    Index ``(x << u) | z`` holds the number of keys whose code leaves that
    pattern syndrome-trivial yet outside the stabilizer group.  Per key
    these are N(S) minus S: the span of the generators' symplectic kernel,
    computed from the generator rows alone, less the 2^s stabilizers.
    """
    u = fam.u
    if u > DENSE_AUDIT_CAP:
        raise CapacityError(
            f"u={u} exceeds the exact audit cap {DENSE_AUDIT_CAP}")
    counts = np.zeros(4 ** u, dtype=np.min_scalar_type(len(fam.codes)))
    # the narrowest unsigned type that holds a 2u-bit row: uint32 to u = 16
    row_type = np.min_scalar_type(4 ** u - 1)
    for code in fam.codes.values():
        # row v commutes with g iff v has even overlap with g's row with
        # its x and z halves swapped
        swapped = [g.z << u | g.x for g in code.generators]
        basis, stab = gf2.kernel(swapped, 2 * u), _rows(code.generators)
        # N(S) a slice at a time, so no array grows with it: the span of
        # the first basis rows, shifted by each combination of the rest
        head = _span(basis[:_SLICE_BITS], row_type)
        for shift in _span(basis[_SLICE_BITS:], row_type):
            rows = head ^ shift
            in_stab = gf2.in_row_space(stab, rows)
            # the rows of one key are distinct, so the fancy += is exact
            counts[rows[~in_stab]] += 1
    return counts


def audit_family(fam: PurityFamily) -> float:
    """Exact purity-testing error of the family.

    The largest fraction of keys that miss one nonidentity Pauli pattern;
    also stored in ``epsilon_audited``.
    """
    eps = int(undetected_counts(fam).max()) / len(fam.codes)
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

    A family within the exact audit cap is audited again; it is
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
                p.n != u for group in ops.values() for p in group):
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
