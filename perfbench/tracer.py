"""Outside-in span tracer for the qkdnet benchmark.

The tracer never edits the package.  It replaces public functions at the
module attribute that each caller looks up (``WRAPS``) with a timing
wrapper, and restores them afterwards.  A name that a module imported by
value (``from .states import fidelity``) is a separate attribute of the
importing module, so it is wrapped there too, under the span name of the
defining module.  ``paulis`` constructors are not wrapped: they are too
fine-grained to time cheaply, so their cost shows up as the self time of
whichever wrapped caller built the operator.

Each span records name, start, end and parent.  Aggregates (calls,
inclusive time, self time) are kept per (name, parent name); raw spans are
kept in memory up to a cap and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass


# --------------------------------------------------------------------------
# what is wrapped
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Wrap:
    module: str      # importable module that holds the attribute
    attr: str        # attribute path in it, e.g. "ChannelSpec.sample_apply"
    span: str        # span name: <defining module>.<function>
    workload: str    # workload that must record calls through this attribute
    hook: str = ""   # Hooks method fed (span, args, kwargs, result)

    @property
    def key(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


P1, P2, CERT = "p1-eavesdrop", "p2-auth", "certify"

WRAPS = (
    # cli: the command itself and the names it imported by value
    Wrap("qkdnet.cli", "main", "cli.main", P1, "command"),
    Wrap("qkdnet.cli", "run_protocol1", "protocol.run_protocol1", P1, "run"),
    Wrap("qkdnet.cli", "run_protocol2", "protocol.run_protocol2", P2, "run"),
    Wrap("qkdnet.cli", "transcript_to_jsonl", "protocol.transcript_to_jsonl",
         P1, "serialize"),
    Wrap("qkdnet.cli", "gen_purity_family", "stabilizer.gen_purity_family",
         CERT),
    Wrap("qkdnet.cli", "audit_family", "stabilizer.audit_family", CERT,
         "audit"),
    Wrap("qkdnet.analysis", "protocol_statistics",
         "analysis.protocol_statistics", P1),
    # protocol: classical post-processing and the family build
    Wrap("qkdnet.protocol", "ring_collect", "protocol.ring_collect", P1),
    Wrap("qkdnet.protocol", "sift", "protocol.sift", P1),
    Wrap("qkdnet.protocol", "derive_key_bits", "protocol.derive_key_bits", P1),
    Wrap("qkdnet.protocol", "test_and_finalize", "protocol.test_and_finalize",
         P1),
    Wrap("qkdnet.protocol", "gen_purity_family",
         "stabilizer.gen_purity_family", P2),
    # adversary
    Wrap("qkdnet.adversary", "corrupt_announcement",
         "adversary.corrupt_announcement", P1),
    Wrap("qkdnet.adversary", "ChannelSpec.sample_apply",
         "adversary.sample_apply", P1),
    # auth and the stabilizer names it imported by value
    Wrap("qkdnet.auth", "keygen", "auth.keygen", P2),
    Wrap("qkdnet.auth", "auth_send_in_place", "auth.send", P2),
    Wrap("qkdnet.auth", "auth_receive_in_place", "auth.receive", P2,
         "receive"),
    Wrap("qkdnet.auth", "decode_coset_in_place",
         "stabilizer.decode_coset_in_place", P2),
    Wrap("qkdnet.auth", "encoding_isometry", "stabilizer.encoding_isometry",
         P2, "isometry"),
    # stabilizer / gf2 module globals
    Wrap("qkdnet.stabilizer", "encoding_isometry",
         "stabilizer.encoding_isometry", P2, "isometry"),
    Wrap("qkdnet.stabilizer", "audit_family", "stabilizer.audit_family", P2,
         "audit"),
    Wrap("qkdnet.gf2", "in_row_space", "gf2.in_row_space", CERT),
    # states: looked up as states.<name> by every other module
    Wrap("qkdnet.states", "make_cat", "states.make_cat", P1),
    Wrap("qkdnet.states", "tensor", "states.tensor", P1),
    Wrap("qkdnet.states", "permute_labels", "states.permute_labels", P1),
    Wrap("qkdnet.states", "measure_qubit", "states.measure_qubit", P1),
    Wrap("qkdnet.states", "apply_pauli", "states.apply_pauli", P2),
    Wrap("qkdnet.states", "measure_pauli", "states.measure_pauli", P2),
    Wrap("qkdnet.states", "apply_isometry", "states.apply_isometry", P2),
    Wrap("qkdnet.states", "apply_channel", "states.apply_channel", CERT),
    Wrap("qkdnet.states", "fidelity", "states.fidelity", CERT),
    # analysis: the six suites and the metrics it imported by value
    *(Wrap("qkdnet.analysis", s, f"analysis.{s}", CERT, "suite")
      for s in ("fuchs_van_de_graaf_suite", "pure_saturation_suite",
                "double_concavity_suite", "bures_triangle_suite",
                "entanglement_fidelity_suite", "composed_bound_suite")),
    Wrap("qkdnet.analysis", "fidelity", "states.fidelity", CERT),
    Wrap("qkdnet.analysis", "trace_distance", "states.trace_distance", CERT),
    Wrap("qkdnet.analysis", "bures_distance", "states.bures_distance", CERT),
)

SUITES = tuple(w.attr for w in WRAPS if w.hook == "suite")
MAX_SPANS = 20_000   # raw spans kept per run; aggregates cover them all


def _resolve(wrap: Wrap):
    """(owner object, leaf attribute name, current value) of a Wrap."""
    owner = importlib.import_module(wrap.module)
    *path, leaf = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


# --------------------------------------------------------------------------
# counters fed from arguments and results at the wrapped boundaries
# --------------------------------------------------------------------------

class Hooks:
    """Counts taken where the work happens; all keyed in ``counts``."""

    def __init__(self):
        self.counts = Counter()
        self._iso_seen = set()

    def new_op(self):
        # codes live only inside one command, so (id(code), y) is a
        # faithful identity within an op and may be reused after it
        self._iso_seen.clear()

    def command(self, span, args, kwargs, result):
        self.counts["commands"] += 1

    def run(self, span, args, kwargs, result):
        summary = result.summary()
        self.counts["rounds"] += args[0].rounds
        self.counts["records"] += summary["records"]
        self.counts["sifted"] += summary["sifted"]
        self.counts["undetermined"] += summary["undetermined"]
        self.counts["aborted_rounds"] += summary["aborted_rounds"]

    def serialize(self, span, args, kwargs, result):
        self.counts["serialized_records"] += len(args[0].records)
        self.counts["serialized_bytes"] += len(result.encode())

    def receive(self, span, args, kwargs, result):
        self.counts["receives"] += 1
        self.counts["accepts"] += bool(result.accepted)

    def isometry(self, span, args, kwargs, result):
        code = args[0]
        y = bytes(int(b) & 1 for b in (args[1] if len(args) > 1
                                       else kwargs["y"]))
        self.counts["iso_calls"] += 1
        key = (id(code), y)
        if key not in self._iso_seen:
            self._iso_seen.add(key)
            self.counts["iso_distinct"] += 1

    def audit(self, span, args, kwargs, result):
        fam = args[0]
        if kwargs.get("sample_errors", args[1] if len(args) > 1 else None):
            return
        self.counts["audit_calls"] += 1
        self.counts["audit_patterns"] += (4 ** fam.u - 1) * len(fam.codes)

    def suite(self, span, args, kwargs, result):
        self.counts[f"trials.{span}"] += result.trials


# --------------------------------------------------------------------------
# the tracer
# --------------------------------------------------------------------------

class Tracer:
    """Span recorder with a call stack for self time.

    ``stats[(name, parent)] = [calls, inclusive_s, self_s]``.  Raw spans
    ``(op, name, start_s, end_s, parent_index)`` are kept up to
    ``MAX_SPANS``; aggregates cover every span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.spans = []
        self.attr_calls = Counter()
        self.hooks = Hooks()
        self.op = 0
        self._stack = []  # frames: [name, start, child_s, span_index]
        self._installed = []

    # ---- span recording ------------------------------------------------

    def new_op(self, op_id: int) -> None:
        self.op = op_id
        self.hooks.new_op()

    def wrap(self, func, name: str, key: str = "", hook=None):
        """Return ``func`` wrapped in a span called ``name``."""
        clock, stack, stats, spans = (self.clock, self._stack, self.stats,
                                      self.spans)
        attr_calls = self.attr_calls

        @functools.wraps(func)
        def traced(*args, **kwargs):
            attr_calls[key] += 1
            parent = stack[-1] if stack else None
            idx = None
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append(None)
            frame = [name, clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                agg_key = (name, parent[0] if parent is not None else None)
                agg = stats.get(agg_key)
                if agg is None:
                    agg = stats[agg_key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if idx is not None:
                    spans[idx] = (self.op, name, frame[1], end,
                                  parent[3] if parent is not None else None)
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return traced

    # ---- installing on the package ---------------------------------------

    def install(self, wraps=WRAPS) -> None:
        """Wrap every attribute in ``wraps``; raises if one is missing."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for w in wraps:
                owner, leaf, current = _resolve(w)
                if not callable(current):
                    raise TypeError(f"{w.module}.{w.attr} is not callable")
                hook = getattr(self.hooks, w.hook) if w.hook else None
                self._installed.append((owner, leaf, current))
                setattr(owner, leaf, self.wrap(current, w.span, w.key, hook))
        except Exception:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- reading the trace ----------------------------------------------

    def total(self, name: str, parents=None, field: int = 1) -> float:
        """Sum of one stats field (0 calls, 1 inclusive s, 2 self s) over
        spans called ``name``, optionally only under the given parents."""
        return sum(v[field] for (n, p), v in self.stats.items()
                   if n == name and (parents is None or p in parents))

    def calls(self, name: str, parents=None) -> int:
        return int(self.total(name, parents, field=0))

    def uncovered(self, workload: str, wraps=WRAPS) -> list:
        """Wrapped attributes meant for ``workload`` that saw no call."""
        return [w.key for w in wraps
                if w.workload == workload and self.attr_calls[w.key] == 0]

    def write_spans(self, path) -> int:
        """Write the closed spans as JSON lines; returns the count written.

        ``id`` is the span's index and ``parent`` the id of its caller's
        span (null at the root, or when the caller's span was not kept).
        """
        written = 0
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                op, name, start, end, parent = span
                fh.write(json.dumps({"id": i, "op": op, "name": name,
                                     "start_us": round(start * 1e6, 3),
                                     "end_us": round(end * 1e6, 3),
                                     "parent": parent}) + "\n")
                written += 1
        return written
