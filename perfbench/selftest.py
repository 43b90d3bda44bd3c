"""Tests of the benchmark itself: oracles, input determinism, tiny smoke runs.

    python3 -m pytest -q perfbench/selftest.py

The smoke runs shrink every workload (a few subgroups, k up to 23, one
verify-paper section) and run it through the same driver code, untraced and
traced, in fresh interpreters.
"""

import copy
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = ("wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "success_ratio",
              "setup_s", "peak_rss_mb")


def verify_rows(section=None):
    return [{"section": s, "claim": c, "expected": "", "computed": v, "ok": True}
            for (s, c), v in inputs.verify_expected().items() if section in (None, s)]


def judge(workload, items, outputs):
    checker = run.Checker(workload, items)
    checker.check({"passes": [{"out": outputs}]})
    return checker


# ---------------------------------------------------------------------------
# each oracle rejects a deliberately wrong answer


def test_verify_rows_accepted_and_red_rows_count_as_correct():
    checker = judge("verify-paper", None, verify_rows())
    assert (checker.attempted, checker.failed, checker.wrong) == (197, 0, [])


@pytest.mark.parametrize("key,bad", [
    (("classification", "classify(7) case list"), "A_1, A_6, B_3"),
    (("pipeline", "k=30: two HT weights + alternating form"), "None"),
    (("dimension", "gamma711: dim rho_prim at k=6"), "6"),  # the README's wrong target
    (("frobenius", "k=3, w=k+1: admissible subspace dimensions"), "[2, 3]"),
])
def test_verify_oracle_rejects_wrong_row(key, bad):
    rows = verify_rows()
    for row in rows:
        if (row["section"], row["claim"]) == key:
            row["computed"] = bad
    checker = judge("verify-paper", None, rows)
    assert checker.failed == 1 and checker.wrong


def test_verify_oracle_rejects_missing_row():
    checker = judge("verify-paper", None, verify_rows()[1:])
    assert checker.failed == 1 and checker.wrong


def test_classify_oracle():
    items = inputs.classify_inputs(0)
    right = [item["expected"] for item in items]
    assert judge("classify-cold", items, right).failed == 0
    seven = next(i for i, item in enumerate(items) if item["k"] == 7)
    wrong = copy.deepcopy(right)
    wrong[seven] = ["A_1", "A_6", "B_3"]  # G_2 dropped
    checker = judge("classify-cold", items, wrong)
    assert checker.failed == 1 and checker.wrong


def subgroup_answers(items):
    """What a correct package returns, built from the oracles alone."""
    answers = []
    for item in items:
        e = item["expected"]
        flag = inputs.closure_congruence(item["generators"], e["index"], e["level"])
        answers.append(dict(e, congruence=bool(flag)))
    return answers


def small_census(count=30):
    items = inputs.census_inputs(5)
    return [i for i in items if i["expected"]["index"] <= 48][:count]


def test_subgroup_oracle_rejects_wrong_invariants():
    items = small_census()
    answers = subgroup_answers(items)
    assert judge("coset-census", items, answers).failed == 0
    for field, bad in (("cusp_widths", [1]), ("nu2", 99), ("genus", -1), ("index", 7)):
        wrong = copy.deepcopy(answers)
        wrong[0][field] = bad
        checker = judge("coset-census", items, wrong)
        assert checker.failed == 1 and checker.wrong, field


def test_congruence_oracle_rejects_wrong_flag():
    items = small_census(200)
    checked = [i for i, item in enumerate(items)
               if inputs.closure_congruence(item["generators"], item["expected"]["index"],
                                            item["expected"]["level"]) is not None]
    assert checked, "no census input with an affordable level"
    answers = subgroup_answers(items)
    answers[checked[0]]["congruence"] = not answers[checked[0]]["congruence"]
    checker = judge("coset-census", items, answers)
    assert checker.failed == 1 and checker.wrong


def test_closure_oracle_on_known_subgroups():
    gamma0_2 = [(1, 1, 0, 1), (1, 0, 2, 1)]          # index 3, level 2, congruence
    gamma43 = [(1, 4, 0, 1), (2, 1, 1, 1), (1, -1, 2, -1)]  # index 7, level 12, not
    assert inputs.closure_congruence(gamma0_2, 3, 2) is True
    assert inputs.closure_congruence(gamma43, 7, 12) is False


def test_cap_refusal_is_failed_but_not_wrong():
    items = small_census(3)
    answers = subgroup_answers(items)
    answers[1] = {"error": "CosetCapExceeded"}
    checker = judge("coset-census", items, answers)
    assert (checker.failed, checker.refused, checker.wrong) == (1, 1, [])
    answers[1] = {"error": "ZeroDivisionError"}
    assert judge("coset-census", items, answers).wrong


# cosets of Gamma0(2): T fixes the base coset 0, S swaps 0 and 1, U = ST is a 3-cycle
GAMMA0_2_PAIR = ((1, 0, 2), (2, 0, 1))


def test_pair_invariants_of_gamma0_2():
    inv = inputs.pair_invariants(*GAMMA0_2_PAIR)
    assert inv == {"index": 3, "cusp_widths": [2, 1], "nu2": 1, "nu3": 0,
                   "genus": 0, "level": 2}


def test_schreier_generators_lie_in_gamma0_2():
    gens = inputs.schreier_generators(*GAMMA0_2_PAIR)
    assert gens and all(g[2] % 2 == 0 for g in gens)
    assert inputs.closure_congruence(gens, 3, 2) is True


def test_conjugation_preserves_determinant_and_grows_entries():
    rng = inputs.random.Random(9)
    w = inputs.conjugator(rng, [150, 200, 250])
    assert w[0] * w[3] - w[1] * w[2] == 1
    gens = inputs.conjugate([(1, 2, 0, 1)], w)
    assert gens[0][0] * gens[0][3] - gens[0][1] * gens[0][2] == 1
    assert max(abs(x) for x in gens[0]) > 10 ** 4


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("workload", ["classify-cold", "coset-census", "coset-conjugated"])
def test_same_seed_same_inputs(workload):
    assert run.make_inputs(workload, 11) == run.make_inputs(workload, 11)
    assert run.make_inputs(workload, 11) != run.make_inputs(workload, 12)


# ---------------------------------------------------------------------------
# tiny smoke runs through the driver


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "CLASSIFY_KS", range(2, 24))
    monkeypatch.setattr(inputs, "CENSUS_INDEX", (8, 24))
    monkeypatch.setattr(inputs, "CENSUS_OPS", 20)
    monkeypatch.setattr(inputs, "CONJUGATED_INDEX", (8, 12))
    monkeypatch.setattr(inputs, "CONJUGATED_OPS", 20)
    monkeypatch.setattr(inputs, "CONJUGATOR_EXPONENT", (5, 20))
    monkeypatch.setattr(run, "VERIFY_ARGV", ["verify-paper", "--json", "--only", "dimension"])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(tiny, workload, trace):
    result, notes = run.run_workload(workload, seed=1, seconds=0.5, trace=trace)
    assert result["correct"], notes
    assert result["attempted"] >= 20
    names = set(PER_LAYER) if trace else set(END_TO_END)
    assert set(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
    elif workload == "verify-paper":
        assert result["metrics"]["verify.rows"]["value"] == 30
        assert result["metrics"]["verify.rows_not_ok"]["value"] == 8
    elif workload == "classify-cold":
        assert result["metrics"]["classify.classify.calls"]["value"] == 22
        assert result["metrics"]["roots.build_root_system.misses"]["value"] > 0
    else:
        assert result["metrics"]["subgroups.coset_enumerate.calls"]["value"] == 20


def test_install_rebinds_every_import_site():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer, katzmod.cli, katzmod.verify, katzmod.sl2, katzmod.linalg, katzmod.roots\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "rank = katzmod.linalg.rank\n"
        "assert rank is katzmod.sl2.rank is katzmod.verify.rank is katzmod.cli.rank\n"
        "assert rank.__wrapped__ is not rank\n"
        "katzmod.roots.build_root_system.cache_clear()\n"
        "katzmod.cli.main(['rootsys', '--type', 'A', '--rank', '2', 'exponents'])\n"
        "assert t.calls['cli.main'] == 1 and t.calls['roots.build_root_system'] == 1\n"
        "assert katzmod.roots.build_root_system.cache_info().currsize == 1\n"
    )
    src = os.path.join(os.path.dirname(HERE), "src")
    proc = subprocess.run([sys.executable, "-c", script, HERE, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coset-census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
