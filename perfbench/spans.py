"""Spans around formalitykit's layers, recorded from outside the program.

`Tracer.install` replaces each traced function in every `formalitykit`
module namespace that holds it, so a call is caught where its caller looks
the name up: `hochschild` and `presentations` bind `rref_rows`, `validate`
and friends with `from ... import`, and patching only the home module would
miss those calls. `FieldSpec.field` is counted, not spanned: it runs tens of
thousands of times per op.

A span is (name, start_ns, end_ns, parent index, op id, attrs). Spans are
kept in memory; `write_spans` dumps them at the end of a run. Self time is a
span's duration minus the durations of its children; children of one span
never overlap because the client is single threaded. Operand counting done
by a wrapper is itself a `trace.bookkeeping` span, so it is not charged to
the layer being measured. The runner rescales span times to the same
nominal host speed as its end-to-end latencies (run.HostSpeed).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = "cli.dispatch"
BOOKKEEPING = "trace.bookkeeping"

LINALG_FUNCS = ("rref_rows", "rank_rows", "kernel_rows", "row_space_basis", "in_span",
                "subspace_meet", "quotient_dim")
CERTIFY_FUNCS = ("certify_single", "certify_config_pn", "certify_config_spherical")
CONFIG_FUNCS = ("normalize_shifts", "normalized_edge_degrees", "sign_assignment",
                "graded_power", "kunneth_hom")

# (module, function) pairs wrapped in spans named "<module>.<function>"
TARGETS = (
    [("graded", "validate"), ("graded", "build_configuration_algebra"),
     ("hochschild", "hh_bar")]
    + [("linalg", f) for f in LINALG_FUNCS]
    + [("presentations", f) for f in ("tor_term", "ideal_from_relations", "ideal_product",
                                      "ideal_meet")]
    + [("formality", f) for f in CERTIFY_FUNCS + ("verify_certificate",)]
    + [("configurations", f) for f in CONFIG_FUNCS]
)

# Per-layer metrics of a traced run, all per op; (name, unit)
LAYER_METRICS = (
    ("cli.dispatch.self_s", "s/op"),
    ("graded.validate.calls", "calls/op"),
    ("graded.validate.s", "s/op"),
    ("graded.build_configuration_algebra.s", "s/op"),
    ("fields.field_calls", "calls/op"),
    ("hochschild.hh_bar.calls", "calls/op"),
    ("hochschild.hh_bar.self_s", "s/op"),
    ("hochschild.cochain_cols", "cols/op"),
    ("linalg.calls", "calls/op"),
    ("linalg.self_s", "s/op"),
    ("linalg.entries", "entries/op"),
    ("linalg.nonzero_share", "ratio"),
    ("linalg.from_hochschild.calls", "calls/op"),
    ("linalg.from_hochschild.self_s", "s/op"),
    ("linalg.from_hochschild.entries", "entries/op"),
    ("linalg.from_hochschild.nonzero_share", "ratio"),
    ("linalg.from_presentations.calls", "calls/op"),
    ("linalg.from_presentations.self_s", "s/op"),
    ("linalg.from_presentations.entries", "entries/op"),
    ("linalg.from_presentations.nonzero_share", "ratio"),
    ("presentations.tor_term.self_s", "s/op"),
    ("presentations.ideal_from_relations.s", "s/op"),
    ("presentations.ideal_product.s", "s/op"),
    ("presentations.ideal_meet.s", "s/op"),
    ("presentations.ideal_product.pairs", "pairs/op"),
    ("presentations.ideal_product.yield", "ratio"),
    ("formality.certify.s", "s/op"),
    ("formality.verify_certificate.s", "s/op"),
    ("configurations.s", "s/op"),
    ("workload.repeat_input_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

# Counts that must repeat exactly between traced runs of one workload
DETERMINISTIC = tuple(
    name for name, unit in LAYER_METRICS if unit in ("calls/op", "cols/op", "entries/op", "pairs/op")
) + ("linalg.nonzero_share", "linalg.from_hochschild.nonzero_share",
     "linalg.from_presentations.nonzero_share", "presentations.ideal_product.yield")


def _matrix_rows(name, args):
    """The rows a linalg call eliminates, from its positional operands."""
    if name in ("subspace_meet", "quotient_dim"):
        return list(args[0]) + list(args[1])
    if name == "in_span":
        return [args[0]] + list(args[1])
    return args[0]


def _product_pairs(I1, I2, up_to):
    """Basis-vector pairs ideal_product multiplies, counted from its operands
    with the same degree cap and block-compatibility rule."""
    cap = I1.pres.truncation if up_to is None else min(up_to, I1.pres.truncation)
    pairs = 0
    for (da, sa, _), vecs_a in I1.blocks:
        for (db, _, tb), vecs_b in I2.blocks:
            if da + db <= cap and sa == tb:
                pairs += len(vecs_a) * len(vecs_b)
    return pairs


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self.field_calls = 0
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: Optional[dict] = None) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        if attrs:
            span[5] = attrs
        self._stack.pop()

    def _inside(self, prefix: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0].startswith(prefix)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"
        tracer = self

        if module == "linalg":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                attrs = None
                if not tracer._inside("linalg."):
                    b = tracer.open(BOOKKEEPING)
                    rows = _matrix_rows(fname, args)
                    entries = sum(len(r) for r in rows)
                    nonzero = sum(1 for r in rows for x in r if x)
                    attrs = {"entries": entries, "nonzero": nonzero}
                    tracer.close(b)
                i = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i, attrs)
        elif name == "presentations.ideal_product":
            @functools.wraps(fn)
            def wrapper(I1, I2, up_to=None):
                b = tracer.open(BOOKKEEPING)
                pairs = _product_pairs(I1, I2, up_to)
                tracer.close(b)
                i = tracer.open(name)
                out = None
                try:
                    out = fn(I1, I2, up_to)
                    return out
                finally:
                    dim = sum(len(v) for _, v in out.blocks) if out is not None else 0
                    tracer.close(i, {"pairs": pairs, "dim": dim})
        elif name == "hochschild.hh_bar":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer.open(name)
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    cols = sum(out.slice_dims) if out is not None else 0
                    tracer.close(i, {"cols": cols})
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded formalitykit module namespace."""
        from formalitykit.fields import FieldSpec

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "formalitykit" or n.startswith("formalitykit.")]
        for module, fname in TARGETS:
            home = sys.modules[f"formalitykit.{module}"]
            orig = getattr(home, fname)
            wrapper = self._wrap(module, fname, orig)
            found = False
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
                        found = True
            if not found:
                raise RuntimeError(f"trace target {module}.{fname} is bound nowhere")

        orig_field = FieldSpec.__dict__["field"]
        tracer = self

        @functools.wraps(orig_field)
        def field(spec):
            tracer.field_calls += 1
            return orig_field(spec)

        self._saved.append((FieldSpec, "field", orig_field))
        FieldSpec.field = field

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[int]:
        """Per-span self time in ns. Checks that every span nests inside its
        parent within one op and that children do not outlast their parent;
        given that, the self times sum exactly to the dispatch time."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            parent = s[3]
            if parent < 0:
                continue
            p = self.spans[parent]
            if not (p[1] <= s[1] <= s[2] <= p[2]) or s[4] != p[4]:
                raise AssertionError(f"span {s[0]} escapes its parent {p[0]}")
            out[parent] -= s[2] - s[1]
        if any(t < 0 for t in out):
            raise AssertionError("children of a span overlap")
        return out

    def check(self, busy=()) -> Dict[str, int]:
        """Guard for a traced run: spans nest (see self_times), every span
        lies inside a dispatch call, and every busy layer recorded calls.
        Returns calls per layer."""
        self.self_times()
        if any(s[0] != ROOT for s in self.spans if s[3] < 0):
            raise AssertionError("a span was recorded outside dispatch")
        calls: Dict[str, int] = {"fields": self.field_calls}
        for s in self.spans:
            layer = s[0].split(".", 1)[0]
            calls[layer] = calls.get(layer, 0) + 1
        idle = [layer for layer in busy if not calls.get(layer)]
        if idle:
            raise AssertionError(
                f"layers {idle} recorded no calls; a traced name may have moved"
            )
        return calls

    def metrics(self, n_ops: int, scale=None) -> Dict[str, float]:
        """Per-op layer metrics over the recorded spans (the run-level ones,
        repeat share and overhead, are filled in by the runner). scale, when
        given, maps an op id to the factor its span times are multiplied by."""
        selfs = self.self_times()
        spans = self.spans
        s_per_ns = 1e-9 / n_ops
        m: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
        m["fields.field_calls"] = self.field_calls / n_ops

        def outer(i, prefix):
            p = spans[i][3]
            return p < 0 or not spans[p][0].startswith(prefix)

        def caller_layer(i):
            p = spans[i][3]
            while p >= 0 and spans[p][0].startswith("linalg."):
                p = spans[p][3]
            return spans[p][0].split(".", 1)[0] if p >= 0 else "cli"

        lin: Dict[str, List[float]] = {}
        pairs = out_dim = 0
        for i, (name, start, end, _, op, attrs) in enumerate(spans):
            factor = scale[op] if scale is not None else 1.0
            dur, own = (end - start) * factor, selfs[i] * factor
            if name == ROOT:
                m["cli.dispatch.self_s"] += own
            elif name == "graded.validate":
                m["graded.validate.calls"] += 1
                m["graded.validate.s"] += dur
            elif name == "graded.build_configuration_algebra":
                m["graded.build_configuration_algebra.s"] += dur
            elif name == "hochschild.hh_bar":
                m["hochschild.hh_bar.calls"] += 1
                m["hochschild.hh_bar.self_s"] += own
                m["hochschild.cochain_cols"] += (attrs or {}).get("cols", 0)
            elif name.startswith("linalg."):
                keys = ["linalg", f"linalg.from_{caller_layer(i)}"]
                for key in keys:
                    acc = lin.setdefault(key, [0, 0, 0, 0])
                    acc[1] += own
                    if attrs is not None:
                        acc[0] += 1
                        acc[2] += attrs["entries"]
                        acc[3] += attrs["nonzero"]
            elif name == "presentations.tor_term":
                m["presentations.tor_term.self_s"] += own
            elif name in ("presentations.ideal_from_relations", "presentations.ideal_meet"):
                m[f"{name}.s"] += dur
            elif name == "presentations.ideal_product":
                m["presentations.ideal_product.s"] += dur
                pairs += attrs["pairs"]
                out_dim += attrs["dim"]
            elif name.startswith("formality.certify_"):
                m["formality.certify.s"] += dur
            elif name == "formality.verify_certificate":
                m["formality.verify_certificate.s"] += dur
            elif name.startswith("configurations.") and outer(i, "configurations."):
                m["configurations.s"] += dur
        for key, (calls, own, entries, nonzero) in lin.items():
            if f"{key}.calls" not in m:
                continue  # linalg reached from a layer the metrics do not split out
            m[f"{key}.calls"] = calls
            m[f"{key}.self_s"] = own
            m[f"{key}.entries"] = entries
            m[f"{key}.nonzero_share"] = nonzero / entries if entries else 0.0
        m["presentations.ideal_product.pairs"] = pairs
        m["presentations.ideal_product.yield"] = out_dim / pairs if pairs else 0.0
        for name, unit in LAYER_METRICS:
            if unit == "s/op":
                m[name] *= s_per_ns
            elif unit != "ratio" and name != "fields.field_calls":
                m[name] /= n_ops
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                rec = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
