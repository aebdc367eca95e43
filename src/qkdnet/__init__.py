"""Simulation and verification suite for center-mediated entanglement-based
key distribution: cat-state algebra, stabilizer-code quantum authentication,
the two network protocols, attack models, and numerical certification of the
fidelity/trace-distance inequalities used in the security argument.
"""

from .adversary import (AdversarySpec, ChannelSpec, DishonestSpec,
                        apply_attack, corrupt_announcement, parse_adversary)
from .analysis import InequalityReport, protocol_statistics
from .auth import (ACCEPT, REJECT, AuthKeys, AuthOutcome, auth_receive,
                   auth_send, keygen)
from .errors import CapacityError, InvalidArgumentError, StateError
from .paulis import PauliOperator, pauli_mul
from .protocol import (NetworkConfig, RoundRecord, Transcript, run_protocol1,
                       run_protocol2, transcript_to_jsonl)
from .stabilizer import (PurityFamily, StabilizerCode, audit_family,
                         decode_coset, encode_coset, family_from_json,
                         family_to_json, gen_purity_family)
from .states import (DensityMatrix, PureStateVector, bures_distance, fidelity,
                     make_cat, tensor, trace_distance)

__all__ = [
    "ACCEPT", "REJECT", "AdversarySpec", "AuthKeys", "AuthOutcome",
    "CapacityError", "ChannelSpec", "DensityMatrix", "DishonestSpec",
    "InequalityReport", "InvalidArgumentError", "NetworkConfig",
    "PauliOperator", "PureStateVector", "PurityFamily", "RoundRecord",
    "StabilizerCode", "StateError", "Transcript", "apply_attack",
    "audit_family", "auth_receive", "auth_send", "bures_distance",
    "corrupt_announcement", "decode_coset", "encode_coset",
    "family_from_json", "family_to_json", "fidelity", "gen_purity_family",
    "keygen", "make_cat", "parse_adversary", "pauli_mul",
    "protocol_statistics", "run_protocol1", "run_protocol2", "tensor",
    "trace_distance", "transcript_to_jsonl",
]

__version__ = "0.1.0"
