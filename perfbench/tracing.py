"""Spans and counters recorded from outside the u4codes library.

The tracer wraps public callables of the library's modules for the length of
a traced pass and restores them afterwards.  A wrapped name is rebound in
every ``u4codes`` module that holds the same object, because several modules
import functions by name (``cli`` and ``weights`` hold their own references
to ``span_basis`` and ``torsion_profile``, ``cli`` holds ``weights.analyze``
as ``analyze_code``).  Methods are rebound on their class, which also
redirects operators such as ``a * b``.

Each span records its name, start, end, parent span and the id of the code
being processed.  Spans stay in memory (compact arrays) until ``save``.  Self
time of a span is its duration minus the time its direct children cover;
calls on one thread nest, so that is the sum of the children's durations.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  Attributes with a dot are methods.
TARGETS = (
    ("galois", "field_make", "galois.field_make"),
    ("sring", "SPoly.inverse", "sring.inverse"),
    ("sring", "SPoly.__mul__", "sring.mul"),
    ("sring", "basis_transform_rows", "sring.basis_transform_rows"),
    ("chain", "RingElement.__add__", "chain.ops"),
    ("chain", "RingElement.__sub__", "chain.ops"),
    ("chain", "RingElement.shift_mul", "chain.ops"),
    ("chain", "RingElement.poly_mul", "chain.ops"),
    ("codes", "validate_canonical", "codes.validate_canonical"),
    ("codes", "span_basis", "codes.span_basis"),
    ("codes", "contains", "codes.contains"),
    ("codes", "torsion_profile", "codes.torsion_profile"),
    ("torsion", "t3", "torsion.t3"),
    ("weights", "analyze", "weights.analyze"),
    ("weights", "min_weights", "weights.min_weights"),
    ("parsing", "parse_code_file", "parsing.parse_code_file"),
    ("randgen", "random_code", "randgen.random_code"),
    ("cli", "run_command", "cli.run_command"),
)


class Tracer:
    """Records spans of the wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_code = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.code_id = -1
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span id, child time]
        self._depth = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str, after=None):
        """A wrapper that records one span per call of ``fn``.

        ``after(args, result)`` runs after a normal return and may update
        ``self.counts``; its time is charged to the span.
        """
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_code.append(self.code_id)
            frame = [span, 0.0]
            stack.append(frame)
            depth = self._depth[name]
            self._depth[name] = depth + 1
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)  # set on return
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                self.span_end[span] = end
                stack.pop()
                self._depth[name] = depth
                duration = end - start
                self.calls[name] += 1
                self.self_time[name] += duration - frame[1]
                if depth == 0:
                    self.inclusive[name] += duration
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def _rebind(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, module_name: str, attr: str, name: str, after=None):
        """Wrap ``u4codes.<module_name>.<attr>`` wherever it is looked up."""
        module = sys.modules[f"u4codes.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._rebind(cls, meth, self.wrap(cls.__dict__[meth], name, after))
            return
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "u4codes" or mod_name.startswith("u4codes.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def install(self):
        """Wrap every target, with the counters that each boundary feeds."""
        weights = sys.modules["u4codes.weights"]
        too_large = sys.modules["u4codes.errors"].TooLarge
        counts = self.counts

        def after_span_basis(args, basis):
            code = args[0]
            counts["codes.rows_reduced"] += len(code.ideal_type) * 4 * code.n
            counts["codes.rank_sum"] += basis.rank
            counts["codes.span_rows_mb"] = max(
                counts["codes.span_rows_mb"], basis.rank * 4 * code.n * 2 / 1e6
            )

        hooks = {"codes.span_basis": after_span_basis}
        for module_name, attr, name in TARGETS:
            self.patch(module_name, attr, name, hooks.get(name))

        # Enumeration is counted, not spanned: weights.enum_s is the self time
        # of analyze and min_weights, which call it.
        enumerate_minima = weights._min_weights_enum

        def counted_enum(code, metrics, cap, basis, basis_used):
            try:
                result = enumerate_minima(code, metrics, cap, basis, basis_used)
            except too_large:
                counts["weights.enum_skipped"] += 1
                raise
            counts["weights.codewords"] += code.field.q ** basis.rank
            return result

        self._rebind(weights, "_min_weights_enum", counted_enum)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, inc, own, cnt = self.calls, self.inclusive, self.self_time, self.counts
        rows = cnt["codes.rows_reduced"]
        enum_s = own["weights.analyze"] + own["weights.min_weights"]
        return {
            "codes.span_basis_s": (inc["codes.span_basis"], "s"),
            "codes.span_basis_calls": (c["codes.span_basis"], "count"),
            "codes.rows_reduced": (rows, "count"),
            "codes.rank_sum": (cnt["codes.rank_sum"], "count"),
            "codes.rank_per_row": (cnt["codes.rank_sum"] / rows if rows else 0.0, "ratio"),
            "codes.span_rows_mb": (cnt["codes.span_rows_mb"], "MB"),
            "codes.torsion_profile_s": (inc["codes.torsion_profile"], "s"),
            "codes.membership_probes": (c["codes.contains"], "count"),
            "codes.validate_canonical_calls": (c["codes.validate_canonical"], "count"),
            "torsion.t3_s": (inc["torsion.t3"], "s"),
            "torsion.t3_self_s": (own["torsion.t3"], "s"),
            "torsion.t3_calls": (c["torsion.t3"], "count"),
            "sring.inverse_s": (inc["sring.inverse"], "s"),
            "sring.inverse_calls": (c["sring.inverse"], "count"),
            "sring.mul_s": (inc["sring.mul"], "s"),
            "sring.mul_calls": (c["sring.mul"], "count"),
            "sring.basis_transform_rows_s": (inc["sring.basis_transform_rows"], "s"),
            "chain.ops_s": (own["chain.ops"], "s"),
            "chain.ops": (c["chain.ops"], "count"),
            "weights.enum_s": (enum_s, "s"),
            "weights.codewords": (cnt["weights.codewords"], "count"),
            "weights.codewords_per_s": (
                cnt["weights.codewords"] / enum_s if enum_s else 0.0, "1/s"),
            "weights.enum_skipped": (cnt["weights.enum_skipped"], "count"),
            "parsing.parse_code_file_s": (inc["parsing.parse_code_file"], "s"),
            "randgen.random_code_s": (inc["randgen.random_code"], "s"),
            "galois.field_make_s": (inc["galois.field_make"], "s"),
            "cli.run_command_s": (inc["cli.run_command"], "s"),
            "cli.self_s": (own["cli.run_command"], "s"),
        }

    def save(self, path: str):
        """Write every recorded span as arrays to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            code=np.frombuffer(self.span_code, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
