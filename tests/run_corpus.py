"""A reproducible corpus of ``qkdnet run`` command lines, hashed per stratum.

``commands(seed, count)`` draws command lines from a ``random.Random`` seed,
so the same arguments give the same lines on every platform.  They cover
protocols 1 and 2, authentication on and off, the families (2,2), (2,3),
(3,2) and (2,4), every grammar kind (intercept over XY, XYZ and Z,
per-qubit and block-wide Pauli tables with and without an identity entry,
``fixed-pauli`` down to the all-identity block, low-p depolarizing),
none, one, some and all members attacked, intercept and a Pauli channel
on one member in both orders, classical-only mixes, redacted and
``--reveal-secrets`` output, and commands that must exit 1.

A stratum is protocol x auth x family shape, e.g. ``p2-auth-r2s2`` or
``p1-noauth-t1``.  ``digests`` runs each line through ``qkdnet.cli.main``
and hashes its exit code, stdout and ``--out`` bytes into one SHA-256 per
stratum, with the stratum's exit-code counts.  Any change to a transcript,
a summary or a rejection shows as a changed digest, and names its stratum.

To compare two source trees on a larger corpus, run from each root and
diff the output:

    PYTHONPATH=src python tests/run_corpus.py --seed 1 --count 1000
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

FAMILIES = ((2, 2), (2, 3), (3, 2), (2, 4))
OUT = "OUT"   # stands for the output file in a drawn command line


def _qubits(protocol: int, auth: bool, n: int, t: int, u: int) -> int:
    """Width of a run's widest state, as the run checks it against 14."""
    return n * t + (t if protocol == 2 else 0) + (u - t if auth else 0)


def _channel(rnd: random.Random, member: str, width: int) -> str:
    """One transit channel on ``member``, whose block has ``width`` qubits."""
    block = "".join(rnd.choice("IXYZ") for _ in range(width))
    kind = rnd.randrange(9)
    if kind == 0:
        return f"identity@{member}"
    if kind == 1:   # mostly low p, so that identity trajectories are common
        p = rnd.choice((0.01, 0.02, 0.05, 0.05, 0.1, 0.3))
        return f"depolarize:p={p}@{member}"
    if kind == 2:
        return f"pauli:I=0.9;X=0.04;Y=0.03;Z=0.03@{member}"
    if kind == 3:   # block-wide, with an all-identity entry
        return f"pauli:{'I' * width}=0.85;{block}=0.15@{member}"
    if kind == 4:   # block-wide, no identity entry unless drawn
        other = "".join(rnd.choice("XYZ") for _ in range(width))
        return f"pauli:{block}=0.5;{other}=0.5@{member}"
    if kind == 5:
        return "intercept" + rnd.choice(
            ("", ":bases=XYZ", ":bases=Z")) + f"@{member}"
    if kind == 6:
        return f"fixed-pauli:op={rnd.choice('IXYZ')}@{member}"
    if kind == 7:
        return f"fixed-pauli:op={'I' * width}@{member}"
    return f"fixed-pauli:op={block}@{member}"


def _dishonest(rnd: random.Random, member: str) -> str:
    return rnd.choice(("lie-basis", "lie-basis:p=0.3", "lie-outcome:p=0.2",
                       "lie-outcome:p=1.0", "silent-drop")) + f"@{member}"


def _adversary(rnd: random.Random, protocol: int, n: int, width: int) -> str:
    members = [f"m{i}" for i in range(1, n + 1)]
    mode = rnd.choice(("none", "one", "some", "all", "classical", "mixed",
                       "intercept-and-pauli"))
    attacks = []
    if mode == "one":
        attacks.append(_channel(rnd, rnd.choice(members), width))
    elif mode == "some":
        for mu in members[:rnd.randrange(1, n)]:
            attacks.append(_channel(rnd, mu, width))
    elif mode == "all":
        attacks += [_channel(rnd, mu, width) for mu in members]
    elif mode == "intercept-and-pauli":
        # the intercept path with a Pauli channel on the same block, in
        # both orders
        mu = rnd.choice(members)
        pair = [_channel(rnd, mu, width), f"intercept@{mu}"]
        attacks += pair if rnd.random() < 0.5 else pair[::-1]
    elif mode == "mixed":
        attacks.append(_channel(rnd, members[0], width))
        attacks.append(_channel(rnd, members[0], width))
        attacks.append(_dishonest(rnd, members[-1]))
    if mode in ("classical", "some") or rnd.random() < 0.2:
        liar = rnd.choice(members)
        if not any(a.endswith(f"@{liar}") and a.startswith(("lie", "silent"))
                   for a in attacks):
            attacks.append(_dishonest(rnd, liar))
    if protocol == 2 and rnd.random() < 0.1:
        attacks.append("silent-drop@C")
    return ",".join(attacks)


# lines that every tree must reject with exit 1 before the first round
_REJECTED = (
    "intercept@m9",
    "depolarize:p=1.5@m1",
    "fixed-pauli:op=XZX@m1",
    "pauli:X=0.5@m1",
    "lie-basis@m1,lie-outcome@m1",
    "fixed-pauli:op=X@C",
    "warp@m1",
)


def _command(rnd: random.Random) -> tuple:
    protocol = rnd.choice((1, 2))
    auth = rnd.random() < 0.7
    if auth:
        r, s = rnd.choice(FAMILIES)
        t, u = (r - 1) * s, r * s
        stratum = f"p{protocol}-auth-r{r}s{s}"
        shape = ["--t", str(t), "--family-r", str(r), "--family-s", str(s)]
    else:
        t = u = rnd.choice((1, 2))
        stratum = f"p{protocol}-noauth-t{t}"
        shape = ["--no-auth", "--t", str(t)]
    fits = [n for n in range(2, 6) if _qubits(protocol, auth, n, t, u) <= 14]
    # a shape above the qubit cap is drawn as a rejected command
    n = rnd.choice(fits) if fits else 2
    m = rnd.randrange(1, n)
    wide = _qubits(protocol, auth, n, t, u) > 10
    rounds = rnd.choice((4, 6) if wide else (10, 20, 40))
    argv = ["run", "--protocol", str(protocol), "--n", str(n), "--m", str(m),
            "--rounds", str(rounds), *shape, "--seed", str(rnd.randrange(10))]
    if rnd.random() < 0.08:
        spec = rnd.choice(_REJECTED)
    else:
        spec = _adversary(rnd, protocol, n, u)
    if spec:
        argv += ["--adversary", spec]
    if rnd.random() < 0.5:
        argv.append("--reveal-secrets")
    return stratum, argv + ["--out", OUT]


def commands(seed: int, count: int) -> list:
    """``count`` (stratum, argv) pairs drawn from ``seed``; each argv names
    its output file ``OUT``."""
    rnd = random.Random(seed)
    return [_command(rnd) for _ in range(count)]


def digests(lines, workdir: str) -> dict:
    """Stratum -> (exit-code counts, SHA-256 of every line's argv, exit
    code, stdout and --out bytes, in order), running each line in process
    with its output file in ``workdir``."""
    from qkdnet import cli

    path = os.path.join(workdir, "out.jsonl")
    hashes, codes = {}, {}
    for stratum, argv in lines:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([path if a == OUT else a for a in argv])
        try:
            with open(path, "rb") as fh:
                written = fh.read()
        except FileNotFoundError:
            written = None
        h = hashes.setdefault(stratum, hashlib.sha256())
        h.update(json.dumps([argv, code, stdout.getvalue(),
                             None if written is None else len(written)])
                 .encode())
        h.update(written or b"")
        codes.setdefault(stratum, Counter())[code] += 1
    return {s: (dict(sorted(codes[s].items())), hashes[s].hexdigest())
            for s in sorted(hashes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        result = digests(commands(args.seed, args.count), workdir)
    for stratum, (codes, digest) in result.items():
        print(stratum, json.dumps(codes), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
