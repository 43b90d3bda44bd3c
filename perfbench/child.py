"""One measured katzmod process, started fresh by run.py.

    child.py probe                  import katzmod and report when it finished
    child.py verify [SPANS] < ARGV  one verify-paper pass, traced if SPANS is given
    child.py ops [SPANS] < INPUT    passes over the inputs of one operation workload

The package is imported from the src/ directory of the checkout that holds
this file.  The last line of stdout is the JSON result; the time at which the
import finished is reported on CLOCK_MONOTONIC, which run.py also reads, so
the parent can measure set-up from the moment it started this interpreter.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import katzmod  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import bisect  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import tracer as tracing  # noqa: E402

PROBE_INTERVAL_S = 0.1
# An op's latency is scaled by the probe samples within this margin of it.
OP_WINDOW_NS = 250_000_000
# The probe loop's duration on the reference machine; timings are scaled to it.
REFERENCE_PROBE_NS = 1_000_000
_PROBE_TABLE = {i: i * i + 1 for i in range(512)}


def _probe_loop():
    """Fixed interpreter work: int arithmetic and dict lookups, nothing the
    garbage collector tracks, so the loop's time follows the machine's speed
    and not the state of the package's heap."""
    x = 1
    table = _PROBE_TABLE
    for i in range(3000):
        x = (x * 1103515245 + table[i & 511]) % 2147483647
    return x


def _time_probe_loop():
    start = time.perf_counter_ns()
    _probe_loop()
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Samples the machine's speed while the package runs.

    A shared host may slow every process down by tens of percent for seconds
    at a time, which no amount of repetition inside one run averages away.  So every PROBE_INTERVAL_S of wall time a SIGALRM handler times
    _probe_loop.  `clock_ns` leaves the handler's time out, so intervals read
    from it cover the package alone, and `scale` turns such an interval into
    reference time: REFERENCE_PROBE_NS over the mean duration of the probe
    samples taken in it (samples are evenly spaced in time, so their mean
    follows the average slow-down).
    """

    def __init__(self):
        self.times = []       # clock_ns at each sample
        self.durations = []   # ns per probe loop
        self.stolen_ns = 0

    def clock_ns(self):
        return time.perf_counter_ns() - self.stolen_ns

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self.times.append(start - self.stolen_ns)
        self.durations.append(_time_probe_loop())
        self.stolen_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start_ns, end_ns, margin_ns=0):
        """Reference time per measured time over [start_ns, end_ns], from the
        samples within margin_ns of it; with none, one is taken now."""
        lo = bisect.bisect_left(self.times, start_ns - margin_ns)
        hi = bisect.bisect_right(self.times, end_ns + margin_ns)
        window = self.durations[lo:hi]
        if not window:
            self._sample(None, None)
            window = self.durations[-1:]
        return REFERENCE_PROBE_NS / statistics.fmean(window)


def scale_now(loops=7):
    """The scale from the median of `loops` probe loops run now."""
    return REFERENCE_PROBE_NS / statistics.median(_time_probe_loop() for _ in range(loops))


def peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_verify(argv, probe, tracer):
    """One pass of `katzmod <argv>` (verify-paper --json) with stdout captured."""
    cli = importlib.import_module("katzmod.cli")
    if tracer is not None:
        tracing.wrap_sections(tracer, importlib.import_module("katzmod.verify"))
    out = io.StringIO()
    error = None
    with probe:
        start = probe.clock_ns()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(argv)
        except Exception as exc:  # the pass fails as a whole; run.py counts every row failed
            error = f"{type(exc).__name__}: {exc}"
        end = probe.clock_ns()
    rows = [] if error else json.loads(out.getvalue())["checks"]
    if tracer is not None:
        tracer.counts["verify.rows"] += len(rows)
        tracer.counts["verify.rows_not_ok"] += sum(1 for r in rows if not r["ok"])
    return [{"wall_s": (end - start) / 1e9, "scale": probe.scale(start, end),
             "out": rows, "error": error}]


def classify_op(item, clock_ns):
    roots = importlib.import_module("katzmod.roots")
    classify = importlib.import_module("katzmod.classify")
    roots.build_root_system.cache_clear()
    start = clock_ns()
    cases = classify.classify(item["k"])
    return start, clock_ns(), [c.name for c in cases]


def subgroup_op(item, clock_ns):
    sub = importlib.import_module("katzmod.subgroups")
    start = clock_ns()
    try:
        inv = sub.invariants(sub.coset_enumerate(sub.GeneratorSet("bench", item["generators"])))
    except Exception as exc:  # a refused or crashed op is a failed op, judged by run.py
        return start, clock_ns(), {"error": type(exc).__name__}
    end = clock_ns()
    return start, end, {"index": inv.index, "cusp_widths": list(inv.cusp_widths),
                        "nu2": inv.nu2, "nu3": inv.nu3, "genus": inv.genus,
                        "level": inv.level, "congruence": inv.congruence}


OPS = {"classify-cold": classify_op, "coset-census": subgroup_op,
       "coset-conjugated": subgroup_op}


def run_ops(workload, seconds, items, probe, tracer):
    """Whole passes over `items` until another pass would overrun `seconds`."""
    op = OPS[workload]
    passes = []
    start = time.perf_counter()
    with probe:
        while True:
            spans, outputs = [], []
            pass_start = probe.clock_ns()
            for i, item in enumerate(items):
                if tracer is not None:
                    tracer.op_id = len(passes) * len(items) + i
                op_start, op_end, out = op(item, probe.clock_ns)
                spans.append((op_start, op_end))
                outputs.append(out)
            pass_end = probe.clock_ns()
            passes.append({
                "wall_s": (pass_end - pass_start) / 1e9,
                "scale": probe.scale(pass_start, pass_end),
                "lat_s": [(b - a) / 1e9 for a, b in spans],
                "lat_scale": [probe.scale(a, b, OP_WINDOW_NS) for a, b in spans],
                "out": outputs})
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
                return passes


def main(argv):
    if not os.path.abspath(katzmod.__file__).startswith(SRC + os.sep):
        print(f"katzmod was imported from {katzmod.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    mode, spans_path = argv[0], (argv[1] if len(argv) > 1 else None)
    result = {"imported_ns": IMPORTED_NS, "setup_scale": scale_now()}
    if mode != "probe":
        probe = SpeedProbe()
        tracer = None
        if spans_path:
            tracer = tracing.Tracer(probe.clock_ns)
            tracing.install(tracer)
        job = json.load(sys.stdin)
        if mode == "verify":
            result["passes"] = run_verify(job["argv"], probe, tracer)
        else:
            result["passes"] = run_ops(job["workload"], job["seconds"], job["inputs"],
                                       probe, tracer)
        result["rss_kib"] = peak_rss_kib()
        if tracer is not None:
            result["per_layer"] = tracing.per_layer(tracer, len(result["passes"]),
                                                    probe.scale(0, probe.clock_ns()))
            tracer.write(spans_path)
            result["spans"] = len(tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
