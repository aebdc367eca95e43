"""The three benchmark workloads: command lines and output checks.

Every op is one ``qkdnet`` command line, run in process through
``qkdnet.cli.main``.  The workload seed fixes the per-op ``--seed`` values
and the order of command kinds; the package only sees the command lines.

Kinds are cycled in blocks: each block holds every kind of the workload
once, in an order drawn from the workload seed, so every prefix of the op
stream has a near-equal mix.
"""
from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field

P1_ROUNDS = 100   # rounds per `run` on p1-eavesdrop (t = 1: 100 records)
P2_ROUNDS = 40    # rounds per `run` on p2-auth (t = 2: up to 80 records)
TRIALS = 50       # --trials per verify-inequalities: one composed draw
AUDIT_S = (2, 3, 4)
# two-sided false-alarm probability of a 5-sigma normal band
ALPHA = 2 * statistics.NormalDist().cdf(-5.0)

P1_ADVERSARIES = {
    "none": "",
    "depolarize": "depolarize:p=0.1@m3",
    "intercept": "intercept@m1",
    "combined": "intercept@m1,depolarize:p=0.1@m3,lie-outcome:p=0.1@m4",
}
P2_ADVERSARIES = {
    "none": "",
    "noisy": "depolarize:p=0.05@m2,lie-outcome:p=0.2@m3",
}


@dataclass
class Op:
    index: int
    kind: str
    argv: list
    work: int            # rounds (run) or trials (verify); 0 for audits
    out_path: str


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    stratum: str = ""    # latency stratum inside the kind ("" = the kind)
    test_bits: int = 0
    mismatches: int = 0


@dataclass
class Workload:
    name: str
    kinds: tuple
    argv: object         # (kind, op_seed, out_path) -> list of str
    work: object         # kind -> rounds or trials; 0 counts no work
    check: object        # (op, rc, stdout) -> Outcome
    strata: dict = field(default_factory=dict)  # kind -> required strata
    error_rates: dict = field(default_factory=dict)  # kind -> predicted rate

    def ops(self, seed: int, out_dir: str):
        """Endless op stream for this workload seed."""
        rng = random.Random(seed)
        out = f"{out_dir}/op.out"  # JSONL from run, JSON from verify
        index = 0
        while True:
            block = list(self.kinds)
            rng.shuffle(block)
            for kind in block:
                argv = self.argv(kind, rng.randrange(2 ** 31), out)
                yield Op(index, kind, argv, self.work(kind), out)
                index += 1


# --------------------------------------------------------------------------
# protocol runs
# --------------------------------------------------------------------------

def flip_probability(spec: str) -> float:
    """Predicted test-bit error rate of an adversary spec on protocol 1.

    Per targeted member: intercept over X,Y flips an X/Y outcome with
    probability 1/4, depolarize:p with p/2, lie-outcome:p with p.  Flips
    on different members compose as independent XORs.
    """
    keep = 1.0  # product of (1 - 2 q) over the independent flips
    for chunk in filter(None, spec.split(",")):
        head = chunk.split("@")[0]
        kind, _, params = head.partition(":")
        p = float(params.split("=")[1]) if params else 1.0
        q = {"intercept": 0.25, "depolarize": p / 2,
             "lie-outcome": p}[kind]
        keep *= 1 - 2 * q
    return (1 - keep) / 2


P1_ERROR_RATES = {kind: flip_probability(spec)
                  for kind, spec in P1_ADVERSARIES.items()}


def binomial_ok(k: int, n: int, p: float) -> bool:
    """False if k successes in n trials are too extreme for Binomial(n, p).

    Exact tails at the false-alarm level of a 5-sigma band.  The normal
    band itself breaks down for few trials and small p: 4 errors in 10
    test bits at p = 0.05 lies outside it, yet happens about once in a
    thousand ops.
    """
    if p in (0.0, 1.0):
        return k == round(p * n)

    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) + i * math.log(p)
                        + (n - i) * math.log1p(-p))

    upper = sum(pmf(i) for i in range(k, n + 1))
    lower = sum(pmf(i) for i in range(k + 1))
    return min(upper, lower) >= ALPHA / 2


def _run_argv(protocol: int, rounds: int, adversaries: dict, extra: list):
    def argv(kind, seed, out):
        return (["run", "--protocol", str(protocol), *extra,
                 "--rounds", str(rounds), "--seed", str(seed),
                 "--adversary", adversaries[kind], "--out", out])
    return argv


def check_jsonl(text: str, rounds: int, t: int) -> str:
    """'' if the transcript is header, records, aborts, summary in that
    order with (rounds - aborted_rounds) * t records; else the problem."""
    lines = [json.loads(line) for line in text.splitlines()]
    tags = [next(iter(d)) for d in lines]
    if len(tags) < 2 or tags[0] != "header" or tags[-1] != "summary":
        return "jsonl is not framed by header and summary"
    body = tags[1:-1]
    n_rec = body.count("record")
    if body != ["record"] * n_rec + ["abort"] * (len(body) - n_rec):
        return "jsonl records and aborts out of order"
    summary = lines[-1]["summary"]
    if n_rec != (rounds - summary["aborted_rounds"]) * t:
        return (f"jsonl has {n_rec} records, expected "
                f"({rounds} - {summary['aborted_rounds']}) * {t}")
    return ""


def _check_run(op: Op, rc: int, stdout: str, t: int, rounds: int):
    stats = json.loads(stdout.strip().splitlines()[-1])
    want_rc = {"Pass": 0, "Fail": 2}.get(stats["verdict"])
    if rc != want_rc:
        reason = f"exit {rc} for verdict {stats['verdict']}"
        return Outcome(False, reason), stats
    with open(op.out_path) as fh:
        problem = check_jsonl(fh.read(), rounds, t)
    if problem:
        return Outcome(False, problem), stats
    return Outcome(True, test_bits=stats["test_bits"],
                   mismatches=round((stats["test_error_rate"] or 0.0)
                                    * stats["test_bits"])), stats


def check_p1(op: Op, rc: int, stdout: str) -> Outcome:
    outcome, stats = _check_run(op, rc, stdout, 1, P1_ROUNDS)
    if not outcome.ok:
        return outcome
    n = stats["records"]
    if not binomial_ok(round(stats["sift_rate"] * n), n, 0.5):
        return Outcome(False, f"sift_rate {stats['sift_rate']} not ~0.5")
    p = P1_ERROR_RATES[op.kind]
    if not binomial_ok(outcome.mismatches, outcome.test_bits, p):
        return Outcome(False, f"test_error_rate {stats['test_error_rate']} "
                              f"implausible for {p}")
    return outcome


def check_p2(op: Op, rc: int, stdout: str) -> Outcome:
    outcome, stats = _check_run(op, rc, stdout, 2, P2_ROUNDS)
    if not outcome.ok:
        return outcome
    if stats["sift_rate"] != 1.0:
        return Outcome(False, f"protocol 2 sift_rate {stats['sift_rate']}")
    # with no adversary every round must verify and every key bit agree;
    # a noisy run may pass its test by luck, so agreement is not implied
    if op.kind == "none" and (stats["verdict"] != "Pass"
                              or stats["key_agreement_rate"] != 1.0):
        return Outcome(False, f"honest run: verdict {stats['verdict']}, "
                              f"agreement {stats['key_agreement_rate']}")
    return outcome


def pooled_error_problems(outcomes, error_rates: dict) -> list:
    """Pooled check of test-bit error rates per kind over a run."""
    problems = []
    for kind, p in error_rates.items():
        bits = sum(o.test_bits for k, o in outcomes if k == kind)
        bad = sum(o.mismatches for k, o in outcomes if k == kind)
        if not binomial_ok(bad, bits, p):
            problems.append(f"{kind}: pooled error {bad}/{bits} vs {p}")
    return problems


# --------------------------------------------------------------------------
# certification
# --------------------------------------------------------------------------

def _certify_argv(kind, seed, out):
    if kind == "verify":
        return ["verify-inequalities", "--trials", str(TRIALS),
                "--seed", str(seed), "--out", out]
    s = kind.split("-")[1]
    return ["audit-code", "--r", "2", "--s", s, "--seed", str(seed)]


def check_certify(op: Op, rc: int, stdout: str) -> Outcome:
    lines = stdout.strip().splitlines()
    if rc != 0:
        return Outcome(False, f"exit {rc}")
    if op.kind != "verify":
        vals = dict(line.split(" ", 1) for line in lines)
        if vals.get("verdict") != "Pass":
            return Outcome(False, f"audit verdict {vals.get('verdict')}")
        if float(vals["epsilon_audited"]) > float(vals["epsilon_formula"]):
            return Outcome(False, "epsilon_audited above epsilon_formula")
        return Outcome(True)
    if len(lines) != 6 or not all(line.startswith("PASS ") for line in lines):
        return Outcome(False, "verify-inequalities did not PASS six suites")
    with open(op.out_path) as fh:
        reports = json.load(fh)
    composed = [r for r in reports
                if r["inequality_id"] == "composed-channel-bound"]
    if len(reports) != 6 or not all(r["passed"] for r in reports) \
            or len(composed) != 1:
        return Outcome(False, "verify-inequalities report is incomplete")
    # --trials < 100 gives one composed draw, so its witness names that
    # draw's member count n, which sets most of the command's cost
    n = composed[0]["witness"].get("n")
    if n not in (2, 3):
        return Outcome(False, f"composed witness has n={n!r}")
    return Outcome(True, stratum=f"n{n}")


WORKLOADS = {
    "p1-eavesdrop": Workload(
        "p1-eavesdrop", tuple(P1_ADVERSARIES),
        _run_argv(1, P1_ROUNDS, P1_ADVERSARIES,
                  ["--no-auth", "--n", "4", "--m", "2", "--t", "1"]),
        lambda kind: P1_ROUNDS, check_p1, error_rates=P1_ERROR_RATES),
    "p2-auth": Workload(
        "p2-auth", tuple(P2_ADVERSARIES),
        _run_argv(2, P2_ROUNDS, P2_ADVERSARIES,
                  ["--n", "3", "--m", "1", "--t", "2"]),
        lambda kind: P2_ROUNDS, check_p2),
    "certify": Workload(
        "certify", tuple(f"audit-{s}" for s in AUDIT_S) + ("verify",),
        _certify_argv, lambda kind: TRIALS if kind == "verify" else 0,
        check_certify, strata={"verify": ("n2", "n3")}),
}
