"""Benchmark driver for katzmod.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS.md for why each exists):

    verify-paper      one pass = `katzmod verify-paper --json` in a fresh interpreter
    classify-cold     one op = classify(k) with the root-system cache cleared
    coset-census      one op = invariants(coset_enumerate(...)) on a random subgroup
    coset-conjugated  the same on conjugated subgroups with huge entries
    all               every workload above, one after another

Run from the root of a checkout; the package is imported from its src/.
Each measuring process is a fresh interpreter started by this one, and every
answer it returns is checked here against the oracles in inputs.py.  With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run plus the tracing overhead.  The last line
of stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("verify-paper", "classify-cold", "coset-census", "coset-conjugated")
SETUP_PROBES = 11
# the verify-paper command line; tests narrow it with --only
VERIFY_ARGV = ["verify-paper", "--json"]
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "success_ratio": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A measuring process exited abnormally or returned no result."""


def spawn(args, stdin_doc=None):
    """Run child.py in a fresh interpreter; returns (start ns, result dict)."""
    data = json.dumps(stdin_doc).encode() if stdin_doc is not None else None
    # the package's default coset cap is part of what is measured
    env = {k: v for k, v in os.environ.items() if k != "KATZMOD_COSET_CAP"}
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, CHILD, *args], input=data, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return start, json.loads(proc.stdout.decode().splitlines()[-1])


def setup_seconds(result, start_ns):
    """Start of the interpreter to its finished import, in reference seconds."""
    return (result["imported_ns"] - start_ns) / 1e9 * result["setup_scale"]


def setup_samples():
    """Interpreter start to finished `import katzmod`, SETUP_PROBES times.

    One unrecorded probe first, so every recorded one finds compiled bytecode.
    """
    spawn(["probe"])
    return [setup_seconds(r, s) for s, r in (spawn(["probe"]) for _ in range(SETUP_PROBES))]


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples above it,
    or 100 (the maximum) when n is too small to leave ten above the median."""
    q = int(100 * (1 - 10 / n))
    return q if q >= 50 else 100


def percentile(values, q):
    if q == 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# measuring


def measure_verify(seconds, spans_path):
    """Fresh-interpreter verify-paper passes until another would overrun."""
    args = ["verify"] + ([spans_path] if spans_path else [])
    runs = []
    start = time.perf_counter()
    while True:
        started, result = spawn(args, {"argv": VERIFY_ARGV})
        result["setup_s"] = setup_seconds(result, started)
        runs.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["passes"][0]["wall_s"] for r in runs) > seconds:
            break
    passes = [p for r in runs for p in r["passes"]]
    per_layer = None
    if spans_path:
        per_layer = {m: statistics.fmean(r["per_layer"][m] for r in runs) for m in PER_LAYER}
    return {"passes": passes, "rss_kib": [r["rss_kib"] for r in runs],
            "setup": [r["setup_s"] for r in runs], "per_layer": per_layer}


def measure_ops(workload, items, seconds, spans_path):
    args = ["ops"] + ([spans_path] if spans_path else [])
    payload = [{k: v for k, v in item.items() if k in ("k", "generators")} for item in items]
    _, result = spawn(args, {"workload": workload, "seconds": seconds, "inputs": payload})
    return {"passes": result["passes"], "rss_kib": [result["rss_kib"]], "setup": [],
            "per_layer": result.get("per_layer")}


def make_inputs(workload, seed):
    if workload == "verify-paper":
        return None  # fixed input; the seed is unused
    return {"classify-cold": inputs.classify_inputs, "coset-census": inputs.census_inputs,
            "coset-conjugated": inputs.conjugated_inputs}[workload](seed)


def measure(workload, items, seconds, spans_path=None):
    if workload == "verify-paper":
        return measure_verify(seconds, spans_path)
    return measure_ops(workload, items, seconds, spans_path)


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Judges every op of every pass against the oracles.

    An op fails when it raised or disagreed with an oracle.  A refusal by
    CosetCapExceeded is a failed op but not a wrong answer; anything else
    that raised, or any disagreement, makes the run incorrect.
    """

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.refused = 0
        self.flag_checks = {"closure": 0, "divisibility": 0, "unchecked": 0}
        self._plain = None
        self._flags = None

    def check(self, measured):
        for p in measured["passes"]:
            p["correct"] = self._check_pass(p)

    def _fail(self, reason):
        self.failed += 1
        if len(self.wrong) < 5:
            self.wrong.append(reason)

    def _check_pass(self, p):
        if p.get("error"):
            self.wrong.append(p["error"])
        if self.workload == "verify-paper":
            return self._check_rows(p["out"])
        correct = 0
        for i, (item, out) in enumerate(zip(self.items, p["out"], strict=True)):
            self.attempted += 1
            if self.workload == "classify-cold":
                ok = out == item["expected"]
                reason = f"classify({item['k']}) gave {out}"
            elif "error" in out:
                if out["error"] == "CosetCapExceeded":
                    self.failed += 1
                    self.refused += 1
                else:
                    self._fail(f"op {i} raised {out['error']}")
                continue
            else:
                ok, reason = self._check_subgroup(i, item, out)
            if ok:
                correct += 1
            else:
                self._fail(reason)
        return correct

    def _check_rows(self, rows):
        expected = inputs.verify_expected()
        if "--only" in VERIFY_ARGV:
            only = VERIFY_ARGV[VERIFY_ARGV.index("--only") + 1]
            expected = {key: v for key, v in expected.items() if key[0] == only}
        got = {(r["section"], r["claim"]): r["computed"] for r in rows}
        self.attempted += len(expected) + len(set(got) - set(expected))
        correct = 0
        for key, want in expected.items():
            if got.get(key) == want:
                correct += 1
            else:
                self._fail(f"{key}: got {got.get(key)!r}, want {want!r}")
        for key in set(got) - set(expected):
            self._fail(f"unexpected row {key}")
        return correct

    def _congruence_flags(self):
        """Expected congruence flag per input: True/False, or None if unchecked."""
        if self._flags is None:
            self._flags = []
            for item in self.items:
                e = item["expected"]
                if inputs.psl2_mod_n_order(e["level"]) % e["index"]:
                    flag, how = False, "divisibility"  # index must divide |PSL2(Z/N)|
                else:
                    flag = inputs.closure_congruence(item["generators"], e["index"], e["level"])
                    how = "closure" if flag is not None else "unchecked"
                self.flag_checks[how] += 1
                self._flags.append(flag)
        return self._flags

    def _plain_invariants(self):
        """Invariants of each unconjugated subgroup, computed by the package."""
        if self._plain is None:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            from katzmod.subgroups import GeneratorSet, coset_enumerate, invariants
            self._plain = []
            for item in self.items:
                inv = invariants(coset_enumerate(GeneratorSet("plain", item["plain_generators"])))
                self._plain.append({"index": inv.index, "cusp_widths": list(inv.cusp_widths),
                                    "nu2": inv.nu2, "nu3": inv.nu3, "genus": inv.genus,
                                    "level": inv.level, "congruence": inv.congruence})
        return self._plain

    def _check_subgroup(self, i, item, out):
        flag = self._congruence_flags()[i]
        got = {k: v for k, v in out.items() if k != "congruence"}
        if got != item["expected"]:
            return False, f"op {i}: got {got}, want {item['expected']}"
        if flag is not None and out["congruence"] != flag:
            return False, f"op {i}: congruence {out['congruence']}, oracle says {flag}"
        if "plain_generators" in item and out != self._plain_invariants()[i]:
            return False, f"op {i}: conjugate gave {out}, plain subgroup {self._plain[i]}"
        return True, ""


# ---------------------------------------------------------------------------
# metrics


def scaled_walls(passes):
    """Pass times in reference seconds (see child.SpeedProbe)."""
    return [p["wall_s"] * p["scale"] for p in passes]


def end_to_end(workload, measured, checker, setup):
    passes = measured["passes"]
    walls = scaled_walls(passes)
    if workload == "verify-paper":
        # rows come out together at the end, so the user waits for the pass
        groups = [walls]
        what = "verify-paper passes"
    else:
        groups = [[t * k for t, k in zip(p["lat_s"], p["lat_scale"])] for p in passes]
        what = "ops per pass"
    n = len(groups[0])
    q = tail_percentile(n)
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(p["correct"] for p in passes) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(g) for g in groups),
        "op_tail_ms": 1e3 * statistics.median(percentile(g, q) for g in groups),
        "success_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(measured["rss_kib"]) * 1024 / 1e6,
    }
    notes = [f"op_tail_ms is p{q} over {n} {what}; {len(passes)} pass(es)",
             f"measured pass time {statistics.median(p['wall_s'] for p in passes):.4f} s, "
             f"machine-speed scale {statistics.median(p['scale'] for p in passes):.4f}",
             f"fail_ratio {checker.failed / checker.attempted:.4f} "
             f"({checker.failed} of {checker.attempted}, {checker.refused} refused by the coset cap)"]
    return metrics, notes


def run_workload(workload, seed, seconds, trace):
    items = make_inputs(workload, seed)
    checker = Checker(workload, items)
    setup = setup_samples()
    if not trace:
        measured = measure(workload, items, seconds)
        checker.check(measured)
        metrics, notes = end_to_end(workload, measured, checker, setup + measured["setup"])
        units = END_TO_END_UNITS
    else:
        # half the budget untraced, half traced: the difference is the overhead
        plain = measure(workload, items, seconds / 2)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
        traced = measure(workload, items, seconds / 2, spans)
        checker.check(plain)
        checker.check(traced)
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = (statistics.median(scaled_walls(traced["passes"]))
                                       - statistics.median(scaled_walls(plain["passes"])))
        units = {m: _per_layer_unit(m) for m in PER_LAYER}
        notes = [f"per-layer values are per pass; spans written to {os.path.relpath(spans, ROOT)}"]
    if checker.flag_checks["closure"] + checker.flag_checks["divisibility"]:
        notes.append(f"congruence flags checked: {checker.flag_checks}")
    return {
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }, notes + [f"WRONG: {w}" for w in checker.wrong]


def _per_layer_unit(metric):
    field = metric.rpartition(".")[2]
    if field in ("self_s", "s", "overhead_s"):
        return "s"
    if field.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "katzmod", "__init__.py")):
        print(f"error: no katzmod package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, notes = run_workload(name, args.seed, args.seconds, args.trace)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = result
        print(f"{name} (seed {args.seed}, trace {args.trace}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:.6g} {m['unit']}")
        for note in notes:
            print(f"  {note}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
