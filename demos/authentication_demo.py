#!/usr/bin/env python3
"""Quantum authentication, step by step.

Generates a keyed purity-testing code family, sends a logical state through
a clean channel, then through two attacks: one the syndrome catches and one
that slips through a single key but is caught by the keyed family on
average.
"""
import numpy as np

from qkdnet import states
from qkdnet.auth import auth_receive, auth_send, keygen
from qkdnet.paulis import PauliOperator
from qkdnet.stabilizer import gen_purity_family, syndrome

SEED = 7


def main():
    fam = gen_purity_family(2, 2, seed=SEED)
    print(f"family (r=2, s=2): {len(fam.codes)} keys, u={fam.u} physical "
          f"qubits, t={fam.t} logical qubits")
    print(f"error budget 2r/(2^s+1) = {fam.epsilon_formula}, "
          f"exact audit = {fam.epsilon_audited}")
    print()

    rng = np.random.default_rng(SEED)
    keys = keygen(fam.r, fam.s, rng)
    logical = states.basis_state([1, 0], [("l", 0), ("l", 1)])
    print(f"secrets: code key k={keys.k}, pad x={keys.x.tolist()}, "
          f"coset syndrome y={keys.y.tolist()}")

    # clean transit
    physical = auth_send(keys, fam, logical)
    out = auth_receive(keys, fam, physical, rng, out_labels=logical.labels)
    f = states.fidelity(states.to_density(out.logical_state),
                        states.to_density(logical))
    print(f"clean transit: verdict {out.verdict}, logical fidelity {f:.6f}")

    # an error the chosen code detects
    code = fam.codes[keys.k]
    e = PauliOperator.from_string("XIII")
    print(f"attack XIII, syndrome {syndrome(code, e).tolist()}:")
    attacked = states.apply_pauli(auth_send(keys, fam, logical), e)
    out = auth_receive(keys, fam, attacked, rng)
    print(f"  verdict {out.verdict} (nothing released)")

    # a logical operator of this key's code: trivial syndrome, real damage --
    # but only because the attacker was handed the secret key
    e = code.logical_x[0]
    attacked = states.apply_pauli(auth_send(keys, fam, logical), e)
    out = auth_receive(keys, fam, attacked, rng, out_labels=logical.labels)
    f = states.fidelity(states.to_density(out.logical_state),
                        states.to_density(logical))
    print(f"attack with the key-{keys.k} logical X ({e.to_string()}): "
          f"verdict {out.verdict}, fidelity {f:.3f}")

    # the same fixed attack against fresh random keys is usually caught
    caught = 0
    trials = 400
    for _ in range(trials):
        k2 = keygen(fam.r, fam.s, rng)
        attacked = states.apply_pauli(auth_send(k2, fam, logical), e)
        out2 = auth_receive(k2, fam, attacked, rng,
                            out_labels=logical.labels)
        if not out2.accepted:
            caught += 1
        else:
            f2 = states.fidelity(states.to_density(out2.logical_state),
                                 states.to_density(logical))
            caught += f2 > 1 - 1e-9  # accepted but harmless
    print(f"same attack vs random keys: harmless or caught in "
          f"{caught}/{trials} trials (audit bound {fam.epsilon_audited})")


if __name__ == "__main__":
    main()
