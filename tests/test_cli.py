"""The command-line surface: flags, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import katzmod
from katzmod import verify
from katzmod.cli import main
from katzmod.roots import SIMPLE_TYPES, _valid_type
from katzmod.subgroups import PRESETS, coset_enumerate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# tests/data/cli_json.jsonl holds the stdout of each of these commands, one
# line each, in this order.  It was written while the adjoint decomposition
# still kept a dense change of basis, whose rank `sl2 decompose` printed; the
# rootsys and `sl2 form` lines while positive roots were still built as
# coordinate tuples; the `classify --symplectic` and `sl2 identities` lines
# while the principal triple was still held as three dense matrices; the
# `subgroup --dims` lines while cosets were still numbered in order of
# definition and relabelled afterwards; the `classify --ht-weights` lines while
# the form filter still solved for sl_k's invariant forms from four generators;
# the `rootsys weyl-dim` and `irreps` lines while the Cartan matrix was still
# written out link by link and the root lengths were searched for in it; the
# `classify --ht-weights` lines without --symplectic while the classification
# endgame still ran through one report function with keyword options.
PINNED = Path(__file__).parent / "data" / "cli_json.jsonl"
PINNED_COMMANDS = ([("classify", "--k", str(k), "--json") for k in range(2, 33)]
                   + [("sl2", "--k", str(k), "decompose", "--json") for k in range(2, 13)]
                   + [("rootsys", "--type", t, "--rank", str(n), action, "--json")
                      for t in SIMPLE_TYPES for n in range(1, 13) if _valid_type(t, n)
                      for action in ("exponents", "dim")]
                   + [("sl2", "--k", str(k), "form", "--json") for k in range(2, 13)]
                   + [("classify", "--k", str(k), "--symplectic", "--json")
                      for k in range(2, 13, 2)]
                   + [("sl2", "--k", str(k), "identities", "--json") for k in range(2, 13)]
                   + [("subgroup", name, "--dims", "--kmax", "20", "--json")
                      for name in ("gamma43", "gamma52", "gamma711")]
                   + [("classify", "--k", str(k), "--ht-weights", f"0,-{k + 1}", "--symplectic",
                       "--json") for k in (2, 4, 6, 8, 10, 12, 30)]
                   + [("rootsys", "--type", t, "--rank", str(n), "weyl-dim", "--weight",
                       ",".join(str(int(j == i)) for j in range(n)), "--json")
                      for t, n in (("B", 3), ("C", 3), ("F", 4), ("G", 2)) for i in range(n)]
                   + [("rootsys", "--type", "F", "--rank", "4", "irreps", "--dim", "26", "--json")]
                   + [("classify", "--k", str(k), "--ht-weights", f"0,-{k + 1}", "--json")
                      for k in (2, 4, 7, 12)])


class TestPinnedJsonOutputs:
    def test_one_line_per_command(self):
        assert len(PINNED.read_text(encoding="utf-8").splitlines()) == len(PINNED_COMMANDS)

    @pytest.mark.parametrize("index", range(len(PINNED_COMMANDS)),
                             ids=["_".join(c).replace("--", "") for c in PINNED_COMMANDS])
    def test_byte_identical_to_reference(self, capsys, index):
        want = PINNED.read_text(encoding="utf-8").splitlines(keepends=True)[index]
        code, out, _ = run(capsys, *PINNED_COMMANDS[index])
        assert code == 0
        assert out == want


class TestClassifyCommand:
    def test_theorem_pipeline(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "4", "--ht-weights", "0,-5",
                           "--symplectic")
        assert code == 0
        assert "GSp_4" in out

    def test_k7_lists_g2(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "7")
        assert code == 0
        for name in ("A_1", "A_6", "B_3", "G_2"):
            assert name in out
        case_lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(case_lines) == 4

    def test_k1_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "classify", "--k", "1")
        assert info.value.code != 0

    def test_symplectic_odd_k_rejected(self, capsys):
        # usage errors found after parsing exit 2 like argparse's own, not 1,
        # which verify-paper keeps for a failed check
        for argv, message in (
                (["classify", "--k", "5", "--symplectic"], "--symplectic requires even k"),
                (["rootsys", "--type", "G", "--rank", "2", "weyl-dim"],
                 "weyl-dim needs --weight c1,c2,..."),
                (["rootsys", "--type", "A", "--rank", "1", "irreps"], "irreps needs --dim K")):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert err == f"error: {message}\n" and out == "", argv

    @pytest.mark.parametrize("argv, code, err", [
        (["classify", "--k", "4", "--symplectic", "--ht-weights", "-5,0"], 0, ""),
        (["rootsys", "--type", "G", "--rank", "2", "weyl-dim", "--weight", "-1,0"], 2,
         "error: weight must be dominant (nonnegative coordinates)\n"),
        (["rootsys", "--type", "A", "--rank", "1", "weyl-dim", "--weight", "-1"], 2,
         "error: weight must be dominant (nonnegative coordinates)\n"),
    ])
    def test_list_value_starting_with_a_minus_sign(self, capsys, argv, code, err):
        # argparse reads a token such as -5,0 as an option unless told
        # otherwise: both spellings give the same answer
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        got = run(capsys, *argv)
        assert got == run(capsys, *joined)
        assert got[0] == code and got[2] == err

    @pytest.mark.parametrize("argv, short", [
        (["classify", "--k", "4", "--ht-weights", "-5,0"], "--ht"),
        (["classify", "--k", "4", "--symplectic", "--ht-weights", "-5,0"], "--ht-w"),
        (["rootsys", "--type", "A", "--rank", "2", "weyl-dim", "--weight", "-1,0"], "--wei"),
        (["rootsys", "--type", "G", "--rank", "2", "weyl-dim", "--weight", "-1,0"], "--w"),
    ])
    def test_abbreviated_flag_before_a_minus_sign(self, capsys, argv, short):
        # argparse accepts a prefix of a flag, with -5,0 as its value too
        abbreviated = argv[:-2] + [short, argv[-1]]
        assert run(capsys, *abbreviated) == run(capsys, *argv)

    def test_ht_echo_lists_distinct_weights(self, capsys):
        # the filter counts distinct weights, so 0,0 is the one weight 0 and
        # keeps A_1; the echo says so
        code, out, _ = run(capsys, "classify", "--k", "4", "--ht-weights", "0,0")
        assert code == 0
        assert "after Hodge-Tate filter (weights [0]): A_1, A_3, C_2\n" in out

    # every line of the text report, one filter combination each
    @pytest.mark.parametrize("argv, want", [
        (["--k", "4"], """classification for k = 4:
  A_1    A_1 acting by Sym^3
  A_3    A_3 = sl_4
  C_2    C_2 = sp_4
"""),
        (["--k", "4", "--ht-weights", "0,-5"], """classification for k = 4:
  A_1    A_1 acting by Sym^3
  A_3    A_3 = sl_4
  C_2    C_2 = sp_4
after Hodge-Tate filter (weights [-5, 0]): A_3, C_2
"""),
        (["--k", "4", "--symplectic"], """classification for k = 4:
  A_1    A_1 acting by Sym^3
  A_3    A_3 = sl_4
  C_2    C_2 = sp_4
after alternating-form filter: A_1, C_2
conclusion: (none)
"""),
        (["--k", "4", "--ht-weights", "0,-5", "--symplectic"], """classification for k = 4:
  A_1    A_1 acting by Sym^3
  A_3    A_3 = sl_4
  C_2    C_2 = sp_4
after Hodge-Tate filter (weights [-5, 0]): A_3, C_2
after alternating-form filter: C_2
conclusion: GSp_4
"""),
        (["--k", "2", "--ht-weights", "0,-3", "--symplectic"], """classification for k = 2:
  A_1    A_1 acting by Sym^1
after Hodge-Tate filter (weights [-3, 0]): A_1
after alternating-form filter: A_1
conclusion: GSp_2
"""),
    ])
    def test_text_report(self, capsys, argv, want):
        assert run(capsys, "classify", *argv) == (0, want, "")

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "classify", "--k", "6", "--json")
        _, out2, _ = run(capsys, "classify", "--k", "6", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert [c["name"] for c in doc["raw_cases"]] == ["A_1", "A_5", "C_3"]


class TestSl2Command:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "sl2", "--k", "6", "decompose")
        assert code == 0
        assert "3, 5, 7, 9, 11" in out

    def test_identities(self, capsys):
        code, out, _ = run(capsys, "sl2", "--k", "8", "identities")
        assert code == 0
        assert "all pass" in out

    def test_form_parity(self, capsys):
        code, out, _ = run(capsys, "sl2", "--k", "7", "form")
        assert code == 0
        assert "symmetric" in out and "antisymmetric" not in out
        code, out, _ = run(capsys, "sl2", "--k", "6", "form")
        assert "antisymmetric" in out

    def test_k_above_maxsize_is_an_error_not_a_traceback(self, capsys):
        for action in ("form", "decompose", "identities"):
            code, out, err = run(capsys, "sl2", "--k", str(2**70), action)
            assert code == 2 and out == "", action
            assert err.startswith("error: ") and "above sys.maxsize" in err, action


class TestRootsysCommand:
    def test_exponents(self, capsys):
        code, out, _ = run(capsys, "rootsys", "--type", "E", "--rank", "8", "exponents")
        assert code == 0
        assert "1, 7, 11, 13, 17, 19, 23, 29" in out

    def test_weyl_dim(self, capsys):
        code, out, _ = run(capsys, "rootsys", "--type", "G", "--rank", "2",
                           "weyl-dim", "--weight", "1,0")
        assert code == 0
        assert "7" in out

    def test_irreps(self, capsys):
        code, out, _ = run(capsys, "rootsys", "--type", "A", "--rank", "1",
                           "irreps", "--dim", "9")
        assert code == 0
        assert "[8]" in out

    def test_invalid_rank(self, capsys):
        code, _, err = run(capsys, "rootsys", "--type", "E", "--rank", "5", "exponents")
        assert code != 0
        assert "not a simple type" in err


class TestSubgroupCommand:
    def test_preset_report(self, capsys):
        code, out, _ = run(capsys, "subgroup", "gamma43")
        assert code == 0
        assert "index: 7" in out
        assert "4, 3" in out
        assert "congruence subgroup: no" in out

    def test_dims_table(self, capsys):
        code, out, _ = run(capsys, "subgroup", "gamma43", "--dims", "--kmax", "8")
        assert code == 0
        assert "dim rho_prim" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "gamma2.json"
        path.write_text(json.dumps({"name": "gamma2",
                                    "generators": [[1, 2, 0, 1], [1, 0, 2, 1]]}))
        code, out, _ = run(capsys, "subgroup", str(path))
        assert code == 0
        assert "index: 6" in out
        assert "congruence subgroup: yes" in out

    @pytest.mark.parametrize("doc, message", [
        ({"name": "g", "generators": 5}, "generators must be a list of matrices"),
        ({"name": "g", "generators": [[1, 1, 0, 1], None]},
         "generator must be a list of four integers, got None"),
        ({"name": "g", "generators": [[1, 1, 0, 1], 7]},
         "generator must be a list of four integers, got 7"),
        ({"name": None, "generators": [[1, 1, 0, 1]]}, "subgroup name must be a string"),
        ("{bad", "Expecting property name"),
        # json.load used to raise RecursionError here, a traceback and exit 1
        pytest.param('{"name": "g", "generators": ' + "[" * 100000 + "]" * 100000 + "}",
                     "nested too deeply", id="generators-nested-100000-deep"),
    ])
    def test_malformed_file_exits_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "subgroup", str(path), "--json")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and message in err

    def test_kmax_below_2_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["subgroup", "gamma43", "--dims", "--kmax", "-3"])
        assert exc.value.code == 2
        assert "k must be at least 2, got -3" in capsys.readouterr().err

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "subgroup", "gamma_missing")
        assert code != 0
        assert "unknown subgroup" in err

    def test_cap_env_override(self, capsys, monkeypatch):
        # gamma711 has index 9: a cap of 3 stops it, the default does not
        monkeypatch.setenv("KATZMOD_COSET_CAP", "3")
        code, out, err = run(capsys, "subgroup", "gamma711")
        assert code == 2 and out == ""
        assert err.startswith("error: index bound exceeded")
        monkeypatch.delenv("KATZMOD_COSET_CAP")
        code, out, err = run(capsys, "subgroup", "gamma711")
        assert (code, err) == (0, "") and "index: 9" in out

    def test_cap_error_names_the_cap_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("KATZMOD_COSET_CAP", " 3 ")
        code, out, err = run(capsys, "subgroup", "gamma711", "--json")
        assert code == 2 and out == ""
        assert err.rstrip("\n").endswith("(cap 3 from KATZMOD_COSET_CAP)")

    def test_cap_error_names_the_default_cap(self, capsys, tmp_path, monkeypatch):
        # T^40000 folds into 120000 cosets before its graph is seen to be
        # incomplete, so it stops at the default cap
        monkeypatch.delenv("KATZMOD_COSET_CAP", raising=False)
        path = tmp_path / "long_cusp.json"
        path.write_text(json.dumps({"name": "long cusp", "generators": [[1, 40000, 0, 1]]}))
        code, out, err = run(capsys, "subgroup", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: index bound exceeded: coset table grew past 100000 ")
        assert err.rstrip("\n").endswith(
            "(default cap 100000; set KATZMOD_COSET_CAP to raise it)")
        # and raising it lets the enumeration prove the index infinite
        monkeypatch.setenv("KATZMOD_COSET_CAP", "120001")
        code, out, err = run(capsys, "subgroup", str(path))
        assert code == 2 and err.startswith("error: infinite index")

    def test_dims_under_a_small_cap(self, capsys, tmp_path, monkeypatch):
        # the cap bounds the subgroup asked about: Gamma_0(2), of index 3, fits
        # in 12 cosets, and its congruence closure defines no coset
        monkeypatch.setenv("KATZMOD_COSET_CAP", "12")
        path = tmp_path / "gamma0_2.json"
        path.write_text(json.dumps({"name": "gamma0_2",
                                    "generators": [[1, 1, 0, 1], [1, 0, 2, 1]]}))
        for extra in ((), ("--dims",)):
            code, out, err = run(capsys, "subgroup", str(path), *extra, "--json")
            assert (code, err) == (0, ""), extra
            assert json.loads(out)["index"] == 3
        # a congruence subgroup is its own closure: no primitive part at any k
        dims = json.loads(out)["dims"]
        assert [row["k"] for row in dims] == list(range(2, 21, 2))
        assert all(row["dim_rho_prim"] == 0 for row in dims)

    def test_infinite_index_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("KATZMOD_COSET_CAP", raising=False)
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"name": "thin", "generators": [[1, 12, 0, 1], [1, 0, 12, 1]]}))
        code, out, err = run(capsys, "subgroup", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: infinite index")
        # no cap would help, so the error names none
        assert "KATZMOD_COSET_CAP" not in err

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5", "", "1e3", "\u00b2", "1_0",
                                       "\uff11\uff12", "\u0667"])
    def test_malformed_cap_env_exits_2(self, capsys, monkeypatch, value):
        # used to report "index bound exceeded" for 0 and -3; int() alone
        # would read 1_0 as 10 and the full-width digits as 12
        monkeypatch.setenv("KATZMOD_COSET_CAP", value)
        code, out, err = run(capsys, "subgroup", "gamma43")
        assert code == 2 and out == ""
        assert "coset cap must be a positive integer" in err
        assert "environment variable KATZMOD_COSET_CAP" in err
        assert "index bound exceeded" not in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "subgroup", "gamma711", "--json")
        doc = json.loads(out)
        assert doc["index"] == 9
        assert doc["cusp_widths"] == [7, 1, 1]
        assert doc["congruence"] is False


class TestMalformedOptionValues:
    """argparse names the option whose value is malformed, and exits 2."""

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--k", "2.5"], "argument --k: k must be an integer, got '2.5'"),
        (["subgroup", "gamma43", "--dims", "--kmax", "abc"],
         "argument --kmax: k must be an integer, got 'abc'"),
        (["classify", "--k", "4", "--ht-weights", "0,,1"],
         "argument --ht-weights: expected comma-separated integers, got '0,,1'"),
        (["rootsys", "--type", "A", "--rank", "2", "weyl-dim", "--weight", "1,x"],
         "argument --weight: expected comma-separated integers, got '1,x'"),
        # int() alone reads an underscore and any script's decimal digits: these
        # used to answer for k = 10, k = 7 and A_10
        (["classify", "--k", "1_0"], "argument --k: k must be an integer, got '1_0'"),
        (["classify", "--k", "\u0667"], "argument --k: k must be an integer, got '\u0667'"),
        (["rootsys", "--type", "A", "--rank", "1_0", "exponents"],
         "argument --rank: expected an integer, got '1_0'"),
        (["rootsys", "--type", "A", "--rank", "2", "irreps", "--dim", "\uff13"],
         "argument --dim: expected an integer, got '\uff13'"),
        (["subgroup", "gamma43", "--dims", "--kmax", " 8"],
         "argument --kmax: k must be an integer, got ' 8'"),
        (["classify", "--k", "4", "--ht-weights", "0,-\u0665"],
         "argument --ht-weights: expected comma-separated integers, got '0,-\u0665'"),
        (["rootsys", "--type", "A", "--rank", "2", "weyl-dim", "--weight", "1,+1"],
         "argument --weight: expected comma-separated integers, got '1,+1'"),
    ])
    def test_usage_error_names_the_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "_k_at_least_2" not in err and "invalid literal" not in err
        assert "_integer" not in err and "invalid int value" not in err


class TestVerifyPaperCommand:
    def test_json_output_is_byte_identical_to_reference(self, capsys):
        # the reference file holds the full `verify-paper --json` output; its
        # `computed` strings are those of the dense (pre-grading) sl2 layer, and
        # the gamma711 dimension targets come from the presets' stated
        # Riemann-Hurwitz data, so every row passes
        reference = Path(__file__).parent / "data" / "verify_paper.json"
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        assert out == reference.read_text(encoding="utf-8")

    @pytest.mark.parametrize("value", ["1", "7", "abc"])
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "dash-O"])
    def test_json_output_ignores_the_coset_cap_variable(self, value, flags):
        # the variable belongs to `katzmod subgroup`: the library reads no
        # environment, so a tiny or malformed cap changes nothing here
        src = os.path.dirname(os.path.dirname(os.path.abspath(katzmod.__file__)))
        env = dict(os.environ, PYTHONPATH=src, KATZMOD_COSET_CAP=value)
        proc = subprocess.run([sys.executable, *flags, "-m", "katzmod", "verify-paper", "--json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        reference = Path(__file__).parent / "data" / "verify_paper.json"
        assert proc.stdout == reference.read_text(encoding="utf-8")

    def test_subgroups_section_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "subgroups")
        assert code == 0
        assert "0 failed" in out

    def test_frobenius_section_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "frobenius")
        assert code == 0

    def test_fault_injection_fails_exponent_check(self, capsys, monkeypatch):
        # negative control: corrupt one expected exponent row and watch the
        # table check go red
        corrupted = dict(verify.EXPONENT_TABLE)
        corrupted[("G", 2)] = (1, 4)
        monkeypatch.setattr(verify, "EXPONENT_TABLE", corrupted)
        code, out, _ = run(capsys, "verify-paper", "--only", "exponents")
        assert code == 1
        assert "FAIL" in out

    def test_fault_injection_fails_dimension_check(self, capsys, monkeypatch):
        # negative control: bring back the old assumption dim rho_prim = k for
        # gamma711 and watch exactly its rows beyond k = 4 go red
        real = verify.dim_rho_prim
        gamma711 = coset_enumerate(PRESETS["gamma711"])
        monkeypatch.setattr(verify, "dim_rho_prim",
                            lambda table, kmax: {k: k for k in range(2, kmax + 1, 2)}
                            if table == gamma711 else real(table, kmax))
        code, out, _ = run(capsys, "verify-paper", "--only", "dimension")
        assert code == 1
        failed = [line[len("[FAIL] "):].split("  expected:")[0].rstrip()
                  for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [f"gamma711: dim rho_prim at k={k}" for k in range(6, 21, 2)]

    def test_exponents_section_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "exponents")
        assert code == 0

    def test_unknown_section(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "verify-paper", "--only", "nonsense")
        assert info.value.code != 0


class TestModuleEntryPoint:
    def test_python_dash_m_runs_verify_paper(self):
        # `python -m katzmod` works from a source checkout, with no install
        src = os.path.dirname(os.path.dirname(os.path.abspath(katzmod.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "katzmod", "verify-paper",
                               "--only", "subgroups"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "3 passed, 0 failed" in proc.stdout
