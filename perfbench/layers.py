"""Per-layer metrics derived from a traced run.

``PER_LAYER`` lists every per-layer metric with its unit and direction;
``BENCHMARK.json`` mirrors it.  Every traced run reports all of them: a
layer that a workload does not exercise reads 0 there.  Times are
inclusive of wrapped callees unless the name says ``self``.
"""
from __future__ import annotations

from tracer import SUITES

RUNS = ("protocol.run_protocol1", "protocol.run_protocol2")
PREP = ("states.make_cat", "states.tensor", "states.permute_labels")
CLASSICAL = ("protocol.ring_collect", "protocol.sift",
             "protocol.derive_key_bits", "protocol.test_and_finalize",
             "adversary.corrupt_announcement")
P2_STATES = ("apply_pauli", "measure_pauli", "apply_isometry")
CALL_TIMED = ("fidelity", "trace_distance", "bures_distance", "apply_channel")

PER_LAYER = (
    [("states.measure_qubit.us_per_round", "us", "lower"),
     ("states.prep.us_per_round", "us", "lower"),
     ("adversary.transit.us_per_round", "us", "lower"),
     ("protocol.engine_self.us_per_round", "us", "lower"),
     ("protocol.classical.us_per_round", "us", "lower"),
     ("protocol.serialize.us_per_record", "us", "lower"),
     ("protocol.serialize.bytes_per_record", "B", "lower"),
     ("analysis.protocol_statistics.us_per_run", "us", "lower"),
     ("cli.self.ms_per_command", "ms", "lower")]
    + [(f"states.{f}.{m}", u, "lower") for f in P2_STATES
       for m, u in (("us_per_round", "us"), ("calls_per_round", "1/round"))]
    + [(f"auth.{f}.us_per_block", "us", "lower")
       for f in ("keygen", "send", "receive")]
    + [("stabilizer.encoding_isometry.us_per_round", "us", "lower"),
       ("stabilizer.gen_purity_family.ms_per_call", "ms", "lower"),
       ("stabilizer.audit_family.ms_per_call", "ms", "lower"),
       ("stabilizer.audit_patterns_per_s", "1/s", "higher"),
       ("gf2.in_row_space.ms_per_audit", "ms", "lower")]
    + [(f"analysis.{s}.us_per_trial", "us", "lower") for s in SUITES]
    + [(f"states.{f}.us_per_call", "us", "lower") for f in CALL_TIMED]
    + [("auth.accept_ratio", "ratio", "higher"),
       ("stabilizer.iso_cache_hit_ratio", "ratio", "higher"),
       ("protocol.sift_ratio", "ratio", "higher"),
       ("protocol.abort_ratio", "ratio", "lower"),
       ("protocol.undetermined_ratio", "ratio", "lower"),
       ("trace.untraced_work_per_s", "1/s", "higher"),
       ("trace.traced_work_per_s", "1/s", "higher"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("bench.failed_op_ratio", "ratio", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, overhead: dict) -> dict:
    """Name -> value for every PER_LAYER metric, from Tracer ``tr``.

    ``overhead`` supplies the trace.* and bench.* entries measured by the
    runner outside the tracer.
    """
    c = tr.hooks.counts
    rounds, us = c["rounds"], 1e6

    def per_round(seconds: float) -> float:
        return _div(seconds * us, rounds)

    out = {
        "states.measure_qubit.us_per_round":
            per_round(tr.total("states.measure_qubit")),
        "states.prep.us_per_round":
            per_round(sum(tr.total(n, RUNS) for n in PREP)),
        "adversary.transit.us_per_round":
            per_round(tr.total("adversary.sample_apply")),
        "protocol.engine_self.us_per_round":
            per_round(sum(tr.total(n, field=2) for n in RUNS)),
        "protocol.classical.us_per_round":
            per_round(sum(tr.total(n) for n in CLASSICAL)),
        "protocol.serialize.us_per_record":
            _div(tr.total("protocol.transcript_to_jsonl") * us,
                 c["serialized_records"]),
        "protocol.serialize.bytes_per_record":
            _div(c["serialized_bytes"], c["serialized_records"]),
        "analysis.protocol_statistics.us_per_run":
            _div(tr.total("analysis.protocol_statistics") * us,
                 tr.calls("analysis.protocol_statistics")),
        "cli.self.ms_per_command":
            _div(tr.total("cli.main", field=2) * 1e3, c["commands"]),
    }
    for f in P2_STATES:
        out[f"states.{f}.us_per_round"] = per_round(tr.total(f"states.{f}"))
        out[f"states.{f}.calls_per_round"] = _div(tr.calls(f"states.{f}"),
                                                  rounds)
    for f in ("keygen", "send", "receive"):
        out[f"auth.{f}.us_per_block"] = _div(tr.total(f"auth.{f}") * us,
                                             tr.calls(f"auth.{f}"))
    audit_s = tr.total("stabilizer.audit_family")
    out.update({
        "stabilizer.encoding_isometry.us_per_round":
            per_round(tr.total("stabilizer.encoding_isometry")),
        "stabilizer.gen_purity_family.ms_per_call":
            _div(tr.total("stabilizer.gen_purity_family") * 1e3,
                 tr.calls("stabilizer.gen_purity_family")),
        "stabilizer.audit_family.ms_per_call":
            _div(audit_s * 1e3, tr.calls("stabilizer.audit_family")),
        "stabilizer.audit_patterns_per_s": _div(c["audit_patterns"], audit_s),
        "gf2.in_row_space.ms_per_audit":
            _div(tr.total("gf2.in_row_space") * 1e3, c["audit_calls"]),
    })
    for s in SUITES:
        out[f"analysis.{s}.us_per_trial"] = _div(
            tr.total(f"analysis.{s}") * us, c[f"trials.analysis.{s}"])
    for f in CALL_TIMED:
        out[f"states.{f}.us_per_call"] = _div(tr.total(f"states.{f}") * us,
                                              tr.calls(f"states.{f}"))
    out.update({
        "auth.accept_ratio": _div(c["accepts"], c["receives"]),
        "stabilizer.iso_cache_hit_ratio":
            _div(c["iso_calls"] - c["iso_distinct"], c["iso_calls"]),
        "protocol.sift_ratio": _div(c["sifted"], c["records"]),
        "protocol.abort_ratio": _div(c["aborted_rounds"], rounds),
        "protocol.undetermined_ratio": _div(c["undetermined"], c["records"]),
    })
    out.update(overhead)
    missing = set(UNITS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
