"""Stabilizer codes with syndrome-coset encoding and keyed purity-testing families.

The keyed family is built from a normal-rational-curve style construction
over GF(2^s): for key x the stabilizer is the field-line spanned by
(b_j * (1, x, .., x^(r-1)) | b_j * (x^r, .., x^(2r-1))) written in a
self-dual basis {b_j}.  Any nonzero Pauli error then evaluates to a nonzero
polynomial of degree < 2r in x, so at most 2r - 1 of the 2^s keys can miss
it, which keeps the audited error below 2r / (2^s + 1).

A code's ``_iso_cache`` maps syndrome bytes to the first projected vector
of that syndrome's coset, every syndrome at the first lookup; a vector
becomes its read-only isometry at its own syndrome's first lookup.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2, states
from .errors import CapacityError, InvalidArgumentError
from .paulis import PauliOperator

DENSE_AUDIT_CAP = 12  # max u for the exact audit's 4^u pattern histogram


def check_audit_cap(u: int) -> None:
    """Refuse an exact audit of a family on ``u`` qubits above the cap."""
    if u > DENSE_AUDIT_CAP:
        raise CapacityError(
            f"u = r*s = {u} is above the exact audit cap {DENSE_AUDIT_CAP}")


@dataclass
class StabilizerCode:
    """u physical qubits, t logical qubits, s = u - t commuting generators."""

    u: int
    t: int
    generators: list
    logical_x: list
    logical_z: list
    _iso_cache: dict = field(default_factory=dict, repr=False,
                             compare=False)

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
        """Check that the operators act on u qubits and form a symplectic
        basis: logical X_j and Z_k anticommute iff j = k, every other pair
        commutes, and the generators are independent."""
        ops = self.generators + self.logical_x + self.logical_z
        if any(p.n != self.u for p in ops):
            raise InvalidArgumentError(f"operators must be on {self.u} qubits")
        # the (x | z) bits of each operator, x of qubit 0 first
        bits = (np.array(_rows(ops), dtype=object)[:, None]
                >> np.arange(2 * self.u - 1, -1, -1) & 1).astype(np.int64)
        x, z = np.hsplit(bits, 2)
        s, t = self.num_generators, self.t
        want = np.zeros((len(ops), len(ops)), dtype=np.int64)
        want[s:s + t, s + t:] = want[s + t:, s:s + t] = np.eye(t, dtype=int)
        wrong = np.argwhere((x @ z.T + z @ x.T) % 2 != want)
        if len(wrong):
            pair = " and ".join(repr(ops[i]) for i in wrong[0])
            raise InvalidArgumentError(f"{pair} break the symplectic basis")
        if len(gf2.row_reduce(_rows(self.generators))) != s:
            raise InvalidArgumentError("generators are not independent")


def _rows(ops) -> list:
    """Code rows ``(x << n) | z``: the (x | z) bits read left to right."""
    return [p.x << p.n | p.z for p in ops]


def syndrome(code: StabilizerCode, e: PauliOperator) -> np.ndarray:
    """Bit i = 1 iff e anticommutes with generator i."""
    if e.n != code.u:
        raise InvalidArgumentError("error width must equal u")
    return np.array([0 if g.commutes_with(e) else 1 for g in code.generators],
                    dtype=np.uint8)


# --------------------------------------------------------------------------
# dense syndrome-coset encoding
# --------------------------------------------------------------------------

def encoding_isometry(code: StabilizerCode, y) -> np.ndarray:
    """(2^u, 2^t) isometry onto the syndrome-y coset of the code space.

    Column a is the encoding of logical basis state |a>, built by projecting
    the first basis vector that survives onto the joint (+1 logical-Z,
    syndrome-y) eigenspace and applying logical X representatives.  The
    first lookup finds every syndrome's first vector of the code; each
    isometry is expanded at its own first lookup and kept, read-only, so a
    run keeps one array per syndrome it draws.
    """
    y = np.asarray(y, dtype=np.uint8) % 2
    if len(y) != code.num_generators:
        raise InvalidArgumentError("syndrome length must be u - t")
    if not code._iso_cache:
        code._iso_cache.update(_cosets(code))
    key = y.tobytes()
    first = code._iso_cache[key]
    if first.ndim == 2:  # already expanded
        return first
    # column a applies the logical X of each set bit of a, top bit first:
    # logical j fills the columns whose bits after j are 0
    iso = np.empty((len(first), 2 ** code.t), dtype=complex)
    iso[:, 0] = first
    for j, lx in enumerate(code.logical_x):
        step = 2 ** (code.t - j)
        iso[:, step // 2::step] = _act(iso[:, ::step], lx)
    iso.flags.writeable = False
    code._iso_cache[key] = iso
    return iso


def _act(block: np.ndarray, pauli: PauliOperator) -> np.ndarray:
    """``pauli`` on a vector or each column of a block, qubit 0 on top."""
    return states.pauli_on_vector(block, pauli, range(pauli.n - 1, -1, -1))


def _cosets(code: StabilizerCode) -> dict:
    """Syndrome bytes -> the first projected vector of every syndrome's
    coset of ``code``.

    Chunks of basis vectors, no larger together than the largest state, are
    projected for every syndrome still without a survivor.  Each amplitude
    stays a dyadic fraction, so the isometries are bit for bit those of
    projecting one basis vector at a time."""
    u, s = code.u, code.num_generators
    syndromes = (np.arange(2 ** s)[:, None] >> np.arange(s)[::-1]) & 1
    first, start = {}, 0  # syndrome -> its normalized first projection
    while len(first) < 2 ** s:
        if start == 2 ** u:
            raise InvalidArgumentError("a coset projector annihilates every "
                                       "basis vector")
        todo = [i for i in range(2 ** s) if i not in first]
        width = min(2 ** u - start,
                    max(1, (2 ** states.MAX_QUBITS >> u) // len(todo)))
        cols = np.arange(width)
        block = np.zeros((2 ** u, len(todo), width), dtype=complex)
        block[start + cols, :, cols] = 1.0  # (row, syndrome, candidate)
        for g, sign in zip(code.generators, 1.0 - 2 * syndromes[todo].T):
            block = (block + sign[:, None] * _act(block, g)) / 2
        for lz in code.logical_z:
            block = (block + _act(block, lz)) / 2
        norms = np.linalg.norm(block, axis=0)
        for j, i in enumerate(todo):
            hit = np.flatnonzero(norms[j] > 1e-6)
            if hit.size:
                first[i] = block[:, j, hit[0]] / norms[j, hit[0]]
        start += width
    return {y.astype(np.uint8).tobytes(): first[i]
            for i, y in enumerate(syndromes)}


def encode_coset(code: StabilizerCode, y, logical, out_labels=None):
    """Embed a t-qubit logical state into the syndrome-y coset (u qubits)."""
    if logical.num_qubits != code.t:
        raise InvalidArgumentError("logical state must have t qubits")
    iso = encoding_isometry(code, y)
    if out_labels is None:
        out_labels = [("phys", i) for i in range(code.u)]
    return states.apply_isometry(logical, iso, logical.labels, out_labels)


def decode_coset(code: StabilizerCode, physical, rng, out_labels=None):
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
    adjoint = encoding_isometry(code, measured).conj().T
    if out_labels is None:
        out_labels = [("log", i) for i in range(code.t)]
    logical = states.apply_isometry(state, adjoint, block_labels, out_labels)
    return measured, logical


# --------------------------------------------------------------------------
# keyed purity-testing family
# --------------------------------------------------------------------------

@dataclass
class PurityFamily:
    r: int
    s: int
    codes: dict  # key (int) -> StabilizerCode, fixed once built
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
    def within_budget(self) -> bool:
        """Whether the audited epsilon meets the 2r/(2^s + 1) budget."""
        return self.epsilon_audited <= self.epsilon_formula + 1e-12

    @functools.cached_property
    def keys(self) -> tuple:
        return tuple(sorted(self.codes))


@functools.cache
def _raw_generator_bits(r: int, s: int) -> np.ndarray:
    """Generator rows of every key before the seeded relabeling, as bits:
    ``[x, j]`` is the row of key x for basis element b_j in (x | z) column
    order, qubit 0 first.  Built once per (r, s) and read-only."""
    mul, form, basis = gf2.field_tables(s)
    keys = np.arange(1 << s)
    powers = np.ones((1 << s, 2 * r), dtype=np.int64)  # x^i of every key x
    for i in range(1, 2 * r):
        powers[:, i] = mul[powers[:, i - 1], keys]
    # the coordinate of b_j x^i along b_k is tr(b_j x^i b_k): the basis is
    # self-dual
    elems = mul[basis[:, None], powers[:, None, :]]
    bits = form[elems[..., None], basis].astype(np.uint8)
    bits = bits.reshape(1 << s, s, 2 * r * s)
    bits.flags.writeable = False
    return bits


def _seeded_relabeling(u: int, rng) -> tuple:
    """Random single-qubit symplectic relabeling: permutation + per-qubit
    X/Z swap and shear; preserves commutation and the audited error."""
    perm = rng.permutation(u)
    swap = rng.integers(0, 2, size=u).astype(bool)
    shear = rng.integers(0, 2, size=u).astype(np.uint8)
    return perm, swap, shear


def _relabel(bits: np.ndarray, relab) -> np.ndarray:
    """New qubit q takes old qubit perm[q], then shears and swaps."""
    perm, swap, shear = relab
    u = len(perm)
    x = bits[..., perm]
    z = bits[..., u + perm] ^ x & shear  # z += x (phase-gate-like)
    # exchange x and z (Hadamard-like)
    return np.concatenate((np.where(swap, z, x), np.where(swap, x, z)), -1)


def _symplectic_completion(gens: np.ndarray) -> tuple:
    """Logical X and Z bits, shape (keys, t, 2u), completing every key's
    commuting generator bits (keys, s, 2u) to a symplectic basis.

    The rows are the generators, then the unit rows, x of qubit 0 first.
    Each row in turn opens a pair (v, w) with the first later row w it
    anticommutes with, and every later row is cleared against the pair; the
    logicals are the pairs after the generators'.  Clearing adds earlier
    pair members to a row, and v and w are orthogonal to those, so a row's
    product with v or w is its original row's: for unit row c, bit c of v
    or w with its x and z halves swapped, which is how v, w and the unit
    rows are held; for a generator, 0 with v, as v then lies in the
    generators' span.  So the partner is always a unit row.  The x unit
    rows span a Lagrangian subspace, and the only symplectic subspace that
    holds one is the whole space, so every pair is open after the first u
    unit rows.
    """
    keys, s, width = gens.shape
    swap = (np.arange(width) + width // 2) % width
    on = np.arange(keys)
    units = np.eye(width, dtype=np.uint8)[swap][None].repeat(keys, 0)
    opened, partners = [], []
    for i in range(s + width // 2):
        # new arrays on each clearing, so v stays a view of its own step
        if i < s:
            row = gens[:, i]
            v = row[:, swap]
        else:
            v = units[:, i - s]
        w = units[on, v.argmax(1)]  # any row when v is 0: no change
        if i < s:
            gens = gens ^ (gens @ w[..., None] & 1) * row[:, None]
        units = units ^ (w[..., None] * v[:, None] ^ v[..., None] * w[:, None])
        opened.append(v)
        partners.append(w)
    opened, partners = (np.stack(half, 1)[..., swap]
                        for half in (opened, partners))
    paired = opened.any(-1)
    assert paired[:, :s].all() and (paired.sum(1) == width // 2).all(), \
        "symplectic completion failed"
    logical = paired[:, s:]
    return tuple(half[:, s:][logical].reshape(keys, -1, width)
                 for half in (opened, partners))


def _masks(bits: np.ndarray) -> list:
    """Integer masks of bit rows (..., n), the first bit on top."""
    n = bits.shape[-1]
    # int64 weights while they fit, Python ints beyond
    weights = np.array([1 << k for k in range(n - 1, -1, -1)],
                       dtype=np.int64 if n < 64 else object)
    return (bits @ weights).tolist()


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
    u, t = r * s, (r - 1) * s
    relab = _seeded_relabeling(u, np.random.default_rng(seed))
    gens = _relabel(_raw_generator_bits(r, s), relab)
    rows = np.concatenate((gens, *_symplectic_completion(gens)), axis=1)
    codes = {}
    for key, masks in enumerate(zip(_masks(rows[..., :u]),
                                    _masks(rows[..., u:]))):
        ops = [PauliOperator(u, x, z, (x & z).bit_count())
               for x, z in zip(*masks)]
        codes[key] = StabilizerCode(u=u, t=t, generators=ops[:s],
                                    logical_x=ops[s:u], logical_z=ops[u:])
    fam = PurityFamily(r=r, s=s, codes=codes)
    if audit == "auto" and u <= DENSE_AUDIT_CAP:
        eps = audit_family(fam)
        if not fam.within_budget:
            raise RuntimeError(
                f"generated family audited at {eps}, above budget "
                f"{fam.epsilon_formula}; construction invariant violated")
    return fam


# The audit walks the keys' normalizers together, 2^14 rows at a time: a
# chunk and its temporaries (64 KiB as uint32) are reused from the heap,
# where 2^16-row slices were mapped and faulted in afresh, 98k faults on a
# first (3, 4) audit against 25.
_SLICE_BITS = 14


def _span(basis: np.ndarray) -> np.ndarray:
    """Every XOR combination of the rows along the last axis of ``basis``;
    bit i of the index selects row i."""
    n = basis.shape[-1]
    span = np.zeros(basis.shape[:-1] + (1 << n,), dtype=basis.dtype)
    for i in range(n):
        np.bitwise_xor(span[..., :1 << i], basis[..., i:i + 1],
                       out=span[..., 1 << i:2 << i])
    return span


def undetected_counts(fam: PurityFamily) -> np.ndarray:
    """Per Pauli pattern, the number of keys that miss it.

    Index ``(x << u) | z`` holds the number of keys whose code leaves that
    pattern syndrome-trivial yet outside the stabilizer group.  Per key
    these are N(S) minus S: the span of the generators' symplectic kernel,
    computed from the generator rows alone, less the 2^s stabilizers.
    """
    u = fam.u
    check_audit_cap(u)
    counts = np.zeros(4 ** u, dtype=np.min_scalar_type(len(fam.codes)))
    one = np.ones(1, dtype=counts.dtype)
    # the narrowest unsigned type that holds a 2u-bit row: uint32 to u = 16
    row_type = np.min_scalar_type(4 ** u - 1)
    stab = np.array([_rows(code.generators) for code in fam.codes.values()])
    # row v commutes with g iff v has even overlap with g's row with its x
    # and z halves swapped; every key's kernel basis in one pass
    basis = gf2.kernel(stab >> u | (stab & (1 << u) - 1) << u, 2 * u)
    basis, stab = basis.astype(row_type), stab.astype(row_type)
    # every key's N(S) in chunks of at most 2^_SLICE_BITS rows, so no array
    # grows with it: the spans of each key's first basis rows, shifted by
    # each combination of its other rows
    head = min(max(_SLICE_BITS - (len(basis) - 1).bit_length(), 0),
               basis.shape[1])
    spans = _span(basis[:, :head])
    for shift in _span(basis[:, head:]).T:
        rows = spans ^ shift[:, None]
        in_stab = gf2.in_row_space(stab, rows)
        # unbuffered, so exact where keys share a row; a one of the counts'
        # own dtype keeps it on numpy's fast path
        np.add.at(counts, rows[~in_stab], one)
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
        code = StabilizerCode(u=u, t=u - s, **ops)
        code.validate()
        codes[int(k)] = code
    # keygen draws keys below 2^s; 2^s is small once a code has s generators
    keys = sorted(codes)
    if not keys or len(keys) != 2 ** s or keys != list(range(len(keys))):
        raise InvalidArgumentError(
            f"an ({r}, {s}) family needs keys 0 .. 2^{s} - 1")
    stored = doc.get("epsilon_audited")
    fam = PurityFamily(r=r, s=s, codes=codes, epsilon_audited=stored)
    if u <= DENSE_AUDIT_CAP:
        eps = audit_family(fam)
        if not fam.within_budget or (
                stored is not None and abs(eps - stored) > 1e-12):
            raise InvalidArgumentError(
                f"family audits at epsilon {eps}, against stored {stored} "
                f"and budget {fam.epsilon_formula}")
    return fam
