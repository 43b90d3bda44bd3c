"""Spans around the public functions of katzmod's modules.

A traced run wraps each function named in TARGETS and rebinds the wrapper at
every site that imported it (`rank` lives in linalg but is also a global of
sl2, verify and cli), so calls are caught whichever module makes them.
Each call leaves a span (id, name, start ns, end ns, parent id, op id) in
memory; self time is the span's duration minus the time its child spans
cover.  Spans are written out once the run is over.
"""

import json
import sys
import time
from collections import Counter

# (module, attribute, span name); the span name is the metric prefix
TARGETS = (
    ("katzmod.linalg", "bracket", "linalg.bracket"),
    ("katzmod.linalg", "rank", "linalg.rank"),
    ("katzmod.linalg", "solve_homogeneous", "linalg.solve_homogeneous"),
    ("katzmod.linalg", "solve_linear", "linalg.solve_linear"),
    ("katzmod.sl2", "decompose_adjoint", "sl2.decompose_adjoint"),
    ("katzmod.sl2", "project_to_blocks", "sl2.project_to_blocks"),
    ("katzmod.sl2", "bracket_support", "sl2.bracket_support"),
    ("katzmod.sl2", "verify_bracket_identity", "sl2.verify_bracket_identity"),
    ("katzmod.sl2", "form_kernel", "sl2.form_kernel"),
    ("katzmod.sl2", "invariant_bilinear_form", "sl2.invariant_bilinear_form"),
    ("katzmod.roots", "build_root_system", "roots.build_root_system"),
    ("katzmod.roots", "weyl_dimension", "roots.weyl_dimension"),
    ("katzmod.roots", "exponents", "roots.exponents"),
    ("katzmod.roots", "irreps_up_to", "roots.irreps_up_to"),
    ("katzmod.classify", "classify", "classify.classify"),
    ("katzmod.classify", "form_filter", "classify.form_filter"),
    ("katzmod.classify", "ht_filter", "classify.ht_filter"),
    ("katzmod.subgroups", "matrix_to_word", "subgroups.matrix_to_word"),
    ("katzmod.subgroups", "coset_enumerate", "subgroups.coset_enumerate"),
    ("katzmod.subgroups", "invariants", "subgroups.invariants"),
    ("katzmod.subgroups", "congruence_test", "subgroups.congruence_test"),
    ("katzmod.cli", "main", "cli.main"),
)

VERIFY_SECTIONS = ("classification", "pipeline", "adjoint", "bracket", "exponents",
                   "weyl", "form", "subgroups", "dimension", "frobenius")

# every per-layer metric a traced run reports, in reporting order
PER_LAYER = (
    [f"linalg.matmul.{m}" for m in ("calls", "self_s", "dense_mults")]
    + ["linalg.matrix.entries_built"]
    + [f"linalg.{f}.{m}" for f in ("bracket", "rank", "solve_homogeneous", "solve_linear")
       for m in ("calls", "self_s")]
    + [f"sl2.{f}.{m}" for f in ("decompose_adjoint", "project_to_blocks", "bracket_support",
                                "verify_bracket_identity", "form_kernel",
                                "invariant_bilinear_form")
       for m in ("calls", "self_s")]
    + [f"roots.build_root_system.{m}" for m in ("calls", "misses", "self_s", "positive_roots")]
    + [f"roots.{f}.{m}" for f in ("weyl_dimension", "exponents") for m in ("calls", "self_s")]
    + [f"roots.irreps_up_to.{m}" for m in ("calls", "self_s", "kept_ratio")]
    + [f"classify.{f}.{m}" for f in ("classify", "form_filter") for m in ("calls", "self_s")]
    + ["classify.ht_filter.self_s"]
    + [f"subgroups.matrix_to_word.{m}" for m in ("calls", "self_s", "letters")]
    + [f"subgroups.coset_enumerate.{m}"
       for m in ("calls", "self_s", "cap_exceeded", "success_ratio")]
    + ["subgroups.invariants.self_s"]
    + [f"subgroups.congruence_test.{m}" for m in ("calls", "self_s")]
    + [f"verify.section.{s}.s" for s in VERIFY_SECTIONS]
    + ["verify.rows", "verify.rows_not_ok", "cli.main.self_s", "trace.overhead_s"]
)


class Tracer:
    """In-memory spans plus per-name call counts, self time and counters.

    `clock` returns nanoseconds; the measuring process passes one that leaves
    out the time of its speed probe.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = []          # frames [span id, name, child ns]
        self.next_id = 0
        self.op_id = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(tracer, args, result) adds counters."""
        clock = self.clock
        stack = self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                self.total_ns[name] += duration
                self.spans.append((sid, name, start, end, parent, self.op_id))
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr))
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every loaded katzmod module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "katzmod" or mod_name.startswith("katzmod."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _after_matmul(tracer, args, result):
    a, b = args
    if hasattr(b, "cols"):
        tracer.counts["linalg.matmul.dense_mults"] += a.rows * a.cols * b.cols


def _after_weyl(tracer, args, result):
    if tracer.parent_name() == "roots.irreps_up_to":
        tracer.counts["roots.irreps_up_to.weyl_calls"] += 1


def _after_irreps(tracer, args, result):
    tracer.counts["roots.irreps_up_to.kept"] += len(result)


def _after_word(tracer, args, result):
    tracer.counts["subgroups.matrix_to_word.letters"] += len(result)


AFTER = {
    "roots.weyl_dimension": _after_weyl,
    "roots.irreps_up_to": _after_irreps,
    "subgroups.matrix_to_word": _after_word,
}


def install(tracer):
    """Wrap every target in the loaded katzmod package."""
    import katzmod.cli  # noqa: F401  (loads every module that holds a target)
    from katzmod.linalg import Matrix

    for module, attr, name in TARGETS:
        original = getattr(sys.modules[module], attr)
        if name == "roots.build_root_system":
            wrapper = _wrap_root_system(tracer, original)
        else:
            wrapper = tracer.wrap(name, original, AFTER.get(name))
        _rebind(original, wrapper)

    Matrix.__mul__ = tracer.wrap("linalg.matmul", Matrix.__mul__, _after_matmul)
    init = Matrix.__init__
    counts = tracer.counts

    def counted_init(self, rows, cols, entries):
        counts["linalg.matrix.entries_built"] += rows * cols
        init(self, rows, cols, entries)

    Matrix.__init__ = counted_init


def _wrap_root_system(tracer, original):
    """Span plus cache-miss and positive-root counts for the lru_cache'd builder."""
    def counted(type_label, rank):
        misses = original.cache_info().misses
        rs = original(type_label, rank)
        if original.cache_info().misses != misses:
            tracer.counts["roots.build_root_system.misses"] += 1
            tracer.counts["roots.build_root_system.positive_roots"] += len(rs.positive_roots)
        return rs

    wrapper = tracer.wrap("roots.build_root_system", counted)
    wrapper.cache_clear = original.cache_clear
    wrapper.cache_info = original.cache_info
    return wrapper


def wrap_sections(tracer, verify_module):
    """Make every verify-paper section a span; the op id is the row number.

    A section runs from its first row to its exhaustion, as the rows are
    consumed in one go by verify.run.
    """
    sections = verify_module.SECTIONS
    for section, gen_fn in list(sections.items()):
        def rows(gen_fn=gen_fn):
            out = []
            for row in gen_fn():
                out.append(row)
                tracer.op_id += 1
            return out

        traced = tracer.wrap(f"verify.section.{section}", rows)
        sections[section] = lambda traced=traced: iter(traced())


def per_layer(tracer, passes, scale=1.0):
    """Per-pass per-layer metrics from a traced run of `passes` passes, with
    times multiplied by `scale` (the speed probe's factor to reference time)."""
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    out = {}
    for metric in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field == "calls":
            value = calls[prefix]
        elif field == "self_s":
            value = self_ns[prefix] / 1e9 * scale
        elif field == "s":
            value = tracer.total_ns[prefix] / 1e9 * scale
        elif field == "success_ratio":
            value = (calls[prefix] - counts[f"{prefix}.raised"]) / calls[prefix] if calls[prefix] else 0.0
        elif field == "cap_exceeded":
            value = counts[f"{prefix}.raised.CosetCapExceeded"]
        elif field == "kept_ratio":
            weyl = counts[f"{prefix}.weyl_calls"]
            value = counts[f"{prefix}.kept"] / weyl if weyl else 0.0
        else:
            value = counts[metric]
        out[metric] = value / passes if field not in ("success_ratio", "kept_ratio") else value
    return out
