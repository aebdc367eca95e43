"""Command-line front end: protocol runs, code-family audits, inequality
verification, and the outcome-correlation table replays.

Exit codes: 0 success/pass, 1 usage or internal error, 2 protocol-level
Fail.  All commands require an explicit seed (directly or by default value)
and produce byte-identical output for identical arguments.

Adversary mini-grammar (comma-separated attacks)::

    attack   := kind [":" params] "@" member
    params   := key "=" value (";" key "=" value)*
    kind     := identity | depolarize | pauli | intercept | fixed-pauli
              | lie-basis | lie-outcome | silent-drop
    member   := "m1" .. "mN" | "member1" .. "memberN" | "C"

Each kind takes only the keys it reads: ``p`` (depolarize, lie-basis,
lie-outcome), ``bases`` (intercept), ``op`` (fixed-pauli) and Pauli
strings (pauli); another key, or a key given twice, is an error, and so
is depolarize without ``p`` or fixed-pauli without ``op``.
Only silent-drop may name the center ``C``, and only on protocol 2; a
member takes at most one of lie-basis, lie-outcome and silent-drop.  Pauli
strings of more than one letter (pauli, fixed-pauli) need one letter per
qubit of the attacked block (t without auth, u = r*s with auth); one-letter
strings act on each qubit alone.

Examples: ``depolarize:p=0.1@m2``, ``intercept@member1``,
``lie-outcome:p=1.0@m3``, ``fixed-pauli:op=XZ@m1``.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, states
from .adversary import parse_adversary
from .errors import CapacityError, InvalidArgumentError
from .protocol import NetworkConfig, run_protocol1, run_protocol2, \
    transcript_to_jsonl
from .stabilizer import audit_family, check_audit_cap, family_to_json, \
    gen_purity_family

EXIT_OK, EXIT_ERROR, EXIT_FAIL = 0, 1, 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _apply_config_file(args, path: str) -> None:
    """Flat key=value sections overriding command-line flags."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise UsageError(f"cannot read config file {path!r}")
        for key in ("protocol", "n", "m", "t", "rounds", "family_r",
                    "family_s"):
            if cp.has_option("network", key):
                setattr(args, key, cp.getint("network", key))
        if cp.has_option("network", "test_fraction"):
            args.test_fraction = cp.getfloat("network", "test_fraction")
        if cp.has_option("network", "auth"):
            args.no_auth = not cp.getboolean("network", "auth")
        if cp.has_option("adversary", "spec"):
            args.adversary = cp.get("adversary", "spec")
        if cp.has_option("output", "path"):
            args.out = cp.get("output", "path")
        if cp.has_option("output", "reveal_secrets"):
            args.reveal_secrets = cp.getboolean("output", "reveal_secrets")
    except (configparser.Error, ValueError) as exc:
        raise UsageError(f"config file {path!r}: {exc}") from None


def _check_out(path: str) -> None:
    """Reject an ``--out`` path that cannot be written (its folder is
    missing or not writable, or it names a folder) before any work.
    Nothing is created or truncated, so a command rejected later for
    another reason leaves an existing file as it was."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if (os.path.isdir(path) or not os.path.isdir(folder)
            or not os.access(target, os.W_OK)):
        raise UsageError(f"cannot write --out file {path!r}")


def cmd_run(args) -> int:
    if args.config:
        _apply_config_file(args, args.config)
    _check_out(args.out)
    adversary = parse_adversary(args.adversary)  # fail before any simulation
    config = NetworkConfig(
        n=args.n, m=args.m, t=args.t, rounds=args.rounds,
        test_fraction=args.test_fraction, protocol=args.protocol,
        auth_enabled=not args.no_auth,
        family_params=(args.family_r, args.family_s))
    runner = run_protocol2 if args.protocol == 2 else run_protocol1
    transcript = runner(config, adversary, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(transcript_to_jsonl(
                transcript, reveal_secrets=args.reveal_secrets))
    stats = analysis.protocol_statistics(transcript)
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK if transcript.verdict == "Pass" else EXIT_FAIL


# --------------------------------------------------------------------------
# audit-code
# --------------------------------------------------------------------------

def cmd_audit_code(args) -> int:
    check_audit_cap(args.r * args.s)  # fail before generating
    _check_out(args.out)
    fam = gen_purity_family(args.r, args.s, args.seed, audit="skip")
    audit_family(fam)
    print(f"epsilon_formula {fam.epsilon_formula!r}")
    print(f"epsilon_audited {fam.epsilon_audited!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(family_to_json(fam))
    ok = fam.within_budget
    print(f"verdict {'Pass' if ok else 'Fail'}")
    return EXIT_OK if ok else EXIT_FAIL


# --------------------------------------------------------------------------
# verify-inequalities
# --------------------------------------------------------------------------

# The pair suites keep every trial's draws, so memory grows with trials *
# d^2 at the largest d; at this budget a command peaks at 520 MB resident
# (d = 2; 420 MB at d = 8 or 128) and runs within 1 GiB of address space.
VERIFY_BUDGET = 2 ** 19


def cmd_verify_inequalities(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError:
        dims = []
    if not dims or any(d < 2 for d in dims):
        raise UsageError("--dims needs integers >= 2")
    d = max(dims)  # d^2 amplitudes fill (d^2 - 1).bit_length() qubits
    states.check_capacity((d * d - 1).bit_length(), f"--dims {d}")
    if not 0.0 <= args.tol < math.inf:  # also rejects NaN
        raise UsageError("--tol must be a finite number >= 0")
    if args.trials * d * d > VERIFY_BUDGET:
        raise CapacityError(f"--trials {args.trials} times --dims {d} squared "
                            f"is above the budget of {VERIFY_BUDGET}")
    _check_out(args.out)
    rng = np.random.default_rng(args.seed)
    channel_draws = max(1, args.trials // 50)
    reports = [
        analysis.fuchs_van_de_graaf_suite(args.trials, dims, rng, args.tol),
        analysis.pure_saturation_suite(args.trials, dims, rng, args.tol),
        analysis.double_concavity_suite(args.trials, dims, rng, args.tol),
        analysis.bures_triangle_suite(args.trials, dims, rng, args.tol),
        analysis.entanglement_fidelity_suite(channel_draws, rng,
                                             tol=args.tol),
        analysis.composed_bound_suite(channel_draws, rng, tol=args.tol),
    ]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.inequality_id} trials={rep.trials} "
              f"max_violation={rep.max_violation!r}")
    if args.out:
        text = (analysis.reports_to_csv(reports) if args.out.endswith(".csv")
                else analysis.reports_to_json(reports))
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def cmd_tables(args) -> int:
    if not 1 <= args.shots < 2 ** 63:  # a multinomial draw takes an int64
        raise UsageError("--shots must be between 1 and 2^63 - 1")
    rng = np.random.default_rng(args.seed)
    bad = 0
    for n in range(2, 7):
        res = analysis.table_correlation_check((1, n - 1), args.shots, rng)
        bad += res["violations"]
        print(f"table-I n={n} assignments={res['assignments']} "
              f"violations={res['violations']}")
    for n in range(2, 6):
        res = analysis.table_correlation_check((1, n - 1, 1), args.shots, rng)
        bad += res["violations"]
        print(f"table-II n={n} assignments={res['assignments']} "
              f"violations={res['violations']}")
    print(f"total_violations {bad}")
    return EXIT_OK if bad == 0 else EXIT_FAIL


# --------------------------------------------------------------------------
# parser plumbing
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qkdnet")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a key-distribution run")
    p_run.add_argument("--protocol", type=int, choices=(1, 2), default=1)
    p_run.add_argument("--n", type=int, default=2)
    p_run.add_argument("--m", type=int, default=1)
    p_run.add_argument("--t", type=int, default=2)
    p_run.add_argument("--rounds", type=int, default=100)
    p_run.add_argument("--test-fraction", type=float, default=0.2,
                       dest="test_fraction")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--adversary", default="")
    p_run.add_argument("--no-auth", action="store_true", dest="no_auth")
    p_run.add_argument("--family-r", type=int, default=2, dest="family_r")
    p_run.add_argument("--family-s", type=int, default=2, dest="family_s")
    p_run.add_argument("--config", default="")
    p_run.add_argument("--out", default="")
    p_run.add_argument("--reveal-secrets", action="store_true",
                       dest="reveal_secrets")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit-code",
                             help="generate and audit a purity-testing family")
    p_audit.add_argument("--r", type=int, required=True)
    p_audit.add_argument("--s", type=int, required=True)
    p_audit.add_argument("--seed", type=int, required=True)
    p_audit.add_argument("--out", default="")
    p_audit.set_defaults(func=cmd_audit_code)

    p_ver = sub.add_parser("verify-inequalities",
                           help="run the fidelity/distance inequality suite")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--dims", default="2,3,4,5,6,7,8")
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default="")
    p_ver.set_defaults(func=cmd_verify_inequalities)

    p_tab = sub.add_parser("tables",
                           help="replay the outcome-correlation table checks")
    p_tab.add_argument("--shots", type=int, default=10000)
    p_tab.add_argument("--seed", type=int, default=0)
    p_tab.set_defaults(func=cmd_tables)

    return parser


# main builds its parser on the first call and reuses it: parse_args keeps
# no state between calls, and building takes longer than a small command
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
        return args.func(args)
    except (UsageError, InvalidArgumentError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
