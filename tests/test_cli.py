import os
import subprocess
import sys
from pathlib import Path

import pytest

import turanmatch
from turanmatch import compress, extremal_graph, parse_graph, serialize_graph
from turanmatch.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extremal_values(capsys):
    assert run(capsys, "extremal", "clique", "--n", "7", "--k", "2", "--s", "2") == (0, "11\n", "")
    assert run(capsys, "extremal", "edges", "--n", "7", "--k", "2") == (0, "11\n", "")
    assert run(capsys, "extremal", "star", "--n", "6", "--k", "2", "--s", "1", "--t", "2") == (0, "30\n", "")
    assert run(capsys, "extremal", "bip", "--n", "4", "--k", "2", "--s", "1", "--t", "2") == (0, "16\n", "")


def test_extremal_flag_and_range_errors(capsys):
    code, out, err = run(capsys, "extremal", "clique", "--n", "7", "--k", "2")
    assert code == 2 and out == "" and err.count("\n") == 1
    code, out, err = run(capsys, "extremal", "clique", "--n", "4", "--k", "2", "--s", "2")
    assert code == 2 and "2k+1" in err
    for argv in (
        ("extremal", "edges", "--n", "7", "--k", "2", "--s", "5", "--t", "9"),
        ("extremal", "clique", "--n", "7", "--k", "2", "--s", "3", "--t", "2"),
        ("extremal", "star", "--n", "7", "--k", "2", "--s", "1"),
        ("scan", "--family", "H-clique", "--n", "7", "--k", "2", "--s", "2", "--t", "4"),
        ("scan", "--family", "bip-f", "--n", "4", "--k", "2", "--s", "1"),
        ("scan", "--family", "H-clique", "--n", "7", "--k", "-1", "--s", "2"),
        ("scan", "--family", "bip-f", "--n", "4", "--k", "-2", "--s", "1", "--t", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "--" in err, argv


def test_scan_csv(capsys):
    code, out, err = run(capsys, "scan", "--family", "H-clique", "--n", "7", "--k", "2", "--s", "2")
    assert code == 0
    assert out == "param,value\n3,11\n4,9\n5,10\n"
    code, out, _ = run(capsys, "scan", "--family", "bip-f", "--n", "4", "--k", "2", "--s", "1", "--t", "2")
    assert code == 0
    assert out == "param,value\n0,4\n1,6\n2,12\n"


def test_nu_and_count(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    assert run(capsys, "nu", "--input", str(path)) == (0, "1\n", "")
    assert run(capsys, "count", "--input", str(path), "--pattern", "clique:2") == (0, "2\n", "")
    assert run(capsys, "count", "--input", str(path), "--pattern", "star:1,2") == (0, "1\n", "")
    bpath = tmp_path / "b.txt"
    bpath.write_text("2 3 6\n1 1\n1 2\n1 3\n2 1\n2 2\n2 3\n")
    assert run(capsys, "count", "--input", str(bpath), "--pattern", "bip:1,2") == (0, "9\n", "")


def test_count_pattern_errors(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n1 2\n")
    for pattern in ("clique", "clique:a", "star:1", "quux:1,2", "clique:1_0", "clique:+2",
                    "clique:-2", "clique:02", "clique: 2", "clique:2,", "star:1,+2", "bip:1,-1"):
        code, out, err = run(capsys, "count", "--input", str(path), "--pattern", pattern)
        assert code == 2 and out == "", pattern
        assert err == "error: --pattern expects clique:S, star:S,T or bip:S,T\n", pattern


def test_shift_single_and_full(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n2 3\n")
    code, out, _ = run(capsys, "shift", "--input", str(path), "--i", "1", "--j", "2")
    assert code == 0 and out == "3 1\n1 3\n"
    code, out, _ = run(capsys, "shift", "--input", str(path), "--full")
    assert code == 0 and out == serialize_graph(compress(parse_graph(path.read_text())))
    code, _, err = run(capsys, "shift", "--input", str(path))
    assert code == 2
    code, _, err = run(capsys, "shift", "--input", str(path), "--full", "--i", "1", "--j", "2")
    assert code == 2


def test_cover_output(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 3\n2 3\n")  # X = {1, 2}, Y = {3}
    code, out, _ = run(capsys, "cover", "--input", str(path), "--bipartite", "2,1")
    assert code == 0 and out == "vertex\nY:1\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 2\n")
    code, _, err = run(capsys, "cover", "--input", str(bad), "--bipartite", "2,1")
    assert code == 2 and "across" in err
    code, out, err = run(capsys, "cover", "--input", str(path), "--bipartite", "2,2")
    assert (code, out, err) == (2, "", "error: file has 3 vertices, parts declare 2+2\n")
    for parts in ("+2,1", "2,+1", "-1,4", "02,1", " 2,1", "2,1 ", "2", "2,1,0", "a,b", "2_0,1"):
        code, out, err = run(capsys, "cover", "--input", str(path), f"--bipartite={parts}")
        assert code == 2 and out == "" and err == "error: --bipartite expects nx,ny\n", parts


def test_flag_numbers_past_the_digit_limit_are_usage_errors(tmp_path, capsys):
    # int() refuses a decimal string longer than the interpreter's limit
    # (4,300 digits by default); the flag's usage line reports it, as the
    # file reader reports such a number as a malformed line
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer-string digit limit")
    huge = "1" * (limit + 1)
    path = tmp_path / "g.txt"
    path.write_text("2 1\n1 2\n")
    assert run(capsys, "count", "--input", str(path), "--pattern", f"clique:{huge}") == (
        2, "", "error: --pattern expects clique:S, star:S,T or bip:S,T\n")
    assert run(capsys, "cover", "--input", str(path), "--bipartite", f"1,{huge}") == (
        2, "", "error: --bipartite expects nx,ny\n")


def test_matching_commands_reach_the_graph_cap(tmp_path, capsys):
    path = tmp_path / "g64.txt"
    path.write_text(serialize_graph(extremal_graph(64, 20, 30)))
    assert run(capsys, "nu", "--input", str(path)) == (0, "20\n", "")
    code, out, _ = run(capsys, "verify", "lemma21", "--n", "40", "--samples", "20")
    assert code == 0
    assert out == ("PASS edge-conservation cases=20 violations=0 seed=0\n"
                   "PASS matching-monotone cases=20 violations=0 seed=0\n")


def test_io_and_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "nu", "--input", str(tmp_path / "missing.txt"))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    code, _, err = run(capsys, "nu", "--input", str(bad))
    assert code == 2 and "self-loop" in err
    code, _, err = run(capsys, "frobnicate")
    assert code == 2 and err.count("\n") == 1
    code, _, err = run(capsys, "extremal", "clique", "--n", "x", "--k", "2", "--s", "2")
    assert code == 2


def test_verify_pass_and_csv(capsys):
    code, out, _ = run(capsys, "verify", "thm12", "--n", "6", "--k", "2", "--s", "2")
    assert code == 0 and out.startswith("PASS max-cliques-vs-formula")
    code, out, _ = run(capsys, "verify", "lemma21", "--n", "3")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["edge-conservation", "matching-monotone"]
    code, out, _ = run(capsys, "verify", "lemma22", "--n", "3", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,cases,violations,seed,status"
    assert lines[1] == "edge-conservation,24,0,,pass"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_verify_random_mode_reports_seed(capsys):
    code, out, _ = run(capsys, "verify", "lemma22", "--n", "8", "--samples", "50", "--seed", "9", "--csv")
    assert code == 0
    assert all(line.split(",")[3] == "9" for line in out.splitlines()[1:])


def test_verify_other_checks(capsys):
    assert run(capsys, "verify", "lemma31", "--n", "5")[0] == 0
    assert run(capsys, "verify", "lemma32", "--n", "5", "--k", "2")[0] == 0
    assert run(capsys, "verify", "koenig", "--n", "3", "--k", "1")[0] == 0
    assert run(capsys, "verify", "thm11", "--n", "5", "--k", "1")[0] == 0
    assert run(capsys, "verify", "thm13", "--n", "5", "--k", "1", "--s", "1", "--t", "2")[0] == 0
    assert run(capsys, "verify", "thm14", "--n", "3", "--k", "1", "--s", "1", "--t", "1")[0] == 0


def test_verify_lemma31_rejects_orders_without_a_case(capsys):
    code, out, err = run(capsys, "verify", "lemma31", "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: verify lemma31 needs --n >= 5, got 4") and err.count("\n") == 1
    code, _, err = run(capsys, "verify", "lemma31", "--n", "4", "--samples", "7")
    assert code == 2 and err == "error: verify lemma31 does not take --samples\n"  # flags first


def test_verify_missing_flags(capsys):
    code, _, err = run(capsys, "verify", "thm12", "--n", "5", "--k", "2")
    assert code == 2 and "--s" in err
    code, _, err = run(capsys, "verify", "lemma32", "--n", "5")
    assert code == 2 and "--k" in err


def test_verify_zero_cases_is_not_a_pass(capsys):
    code, out, _ = run(capsys, "verify", "koenig", "--n", "2", "--k", "3")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines()] == ["EMPTY"] * 4
    assert all("cases=0" in line for line in out.splitlines())
    code, out, _ = run(capsys, "verify", "koenig", "--n", "2", "--k", "3", "--csv")
    assert code == 1
    assert out.splitlines()[1] == "koenig-duality,0,0,,empty"


def test_verify_rejects_flags_it_would_ignore(capsys):
    for argv in (
        ("lemma31", "--n", "5", "--samples", "7"),
        ("lemma32", "--n", "5", "--k", "2", "--samples", "7"),
        ("koenig", "--n", "3", "--k", "1", "--samples", "7"),
        ("thm12", "--n", "5", "--k", "2", "--s", "2", "--samples", "7"),
        ("thm14", "--n", "3", "--k", "1", "--s", "1", "--t", "1", "--samples", "7"),
        ("lemma21", "--n", "4", "--jobs", "2"),
        ("lemma22", "--n", "4", "--jobs", "2"),
        ("lemma31", "--n", "5", "--jobs", "2"),
        ("lemma32", "--n", "5", "--k", "2", "--jobs", "2"),
        ("koenig", "--n", "3", "--k", "1", "--jobs", "2"),
        ("thm11", "--n", "5", "--k", "1", "--jobs", "2"),
        ("thm12", "--n", "5", "--k", "2", "--s", "2", "--jobs", "2"),
        ("thm13", "--n", "5", "--k", "2", "--s", "1", "--t", "2", "--jobs", "2"),
        ("thm14", "--n", "3", "--k", "1", "--s", "1", "--t", "1", "--jobs", "2"),
        ("lemma21", "--n", "8", "--samples", "-5"),
        ("lemma21", "--n", "8", "--samples", "0"),
        ("lemma31", "--n", "5", "--prob", "0.9", "--seed", "5"),
        ("lemma21", "--n", "4", "--seed", "5"),
        ("lemma22", "--n", "4", "--prob", "0.3"),
        ("koenig", "--n", "3", "--k", "1", "--seed", "0"),
        ("thm12", "--n", "5", "--k", "2", "--s", "2", "--prob", "0.5"),
        ("lemma21", "--n", "4", "--k", "2"),
        ("thm11", "--n", "5", "--k", "1", "--s", "2"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_verify_checks_the_formula_range_before_the_scan(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the oracle scan ran before the range check")

    monkeypatch.setattr("turanmatch.cli.oracle.max_over_free", scan)
    monkeypatch.setattr("turanmatch.cli.oracle.max_over_free_bip", scan)
    for argv, message in (
        (("thm11", "--n", "4", "--k", "2"), "2k+1"),
        (("thm12", "--n", "7", "--k", "4", "--s", "2"), "2k+1"),
        (("thm13", "--n", "6", "--k", "3", "--s", "1", "--t", "2"), "2k+1"),
        (("thm14", "--n", "2", "--k", "3", "--s", "1", "--t", "1"), "n >= k"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and message in err, argv


def test_out_of_format_files_exit_2(tmp_path, capsys):
    for name, data in (("plus", b"4 3\n+1 2\n2 3\n3 4\n"), ("crlf", b"4 3\r\n1 2\r\n2 3\r\n3 4\r\n")):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "count", "--input", str(path), "--pattern", "clique:2")
        assert code == 2 and out == "" and "parse" in err, name


def test_python_m_entry_point():
    src = str(Path(turanmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for module in ("turanmatch", "turanmatch.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "extremal", "edges", "--n", "5", "--k", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4\n", ""), module


def test_verify_failure_exit_code(capsys, monkeypatch):
    from turanmatch import oracle

    original = oracle.max_over_free

    def fake(n, k, s, t=None):
        witness = original(n, k, s, t)
        return oracle.Witness(witness.graph, witness.value + 1, witness.params)

    monkeypatch.setattr("turanmatch.cli.oracle.max_over_free", fake)
    code, out, _ = run(capsys, "verify", "thm11", "--n", "5", "--k", "1")
    assert code == 1 and out.startswith("FAIL") and "witness=" in out


def test_verify_failure_prints_a_bipartite_witness(capsys, monkeypatch):
    from turanmatch import oracle

    original = oracle.max_over_free_bip

    def fake(*args):
        witness = original(*args)
        return oracle.Witness(witness.graph, witness.value + 1, witness.params)

    monkeypatch.setattr("turanmatch.cli.oracle.max_over_free_bip", fake)
    assert run(capsys, "verify", "thm14", "--n", "2", "--k", "1", "--s", "1", "--t", "2") == (
        1, "FAIL max-bicliques-vs-formula cases=1 violations=1\n"
           "  oracle=2 formula=1 witness=X=2,Y=2,E=[(1, 1), (1, 2)]\n", "")


def test_verify_lemma32_fails_when_a_graph_fits_no_host(capsys, monkeypatch):
    def narrowed(n, k, ell):  # K_2k ∪ E in place of K_(2k+1) ∪ E
        return extremal_graph(n, k, min(ell, 2 * k))

    monkeypatch.setattr("turanmatch.oracle.extremal_graph", narrowed)
    assert run(capsys, "verify", "lemma32", "--n", "5", "--k", "1") == (
        1, "FAIL shifted-subgraph-cover cases=5 violations=1\n"
           "  G={(1,2) (1,3) (2,3)} fits no host, k=1\n", "")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "scan", "--family", "H-star", "--n", "8", "--k", "3", "--s", "1", "--t", "2")
    second = run(capsys, "scan", "--family", "H-star", "--n", "8", "--k", "3", "--s", "1", "--t", "2")
    assert first == second
    first = run(capsys, "verify", "lemma22", "--n", "6", "--samples", "25", "--seed", "4")
    second = run(capsys, "verify", "lemma22", "--n", "6", "--samples", "25", "--seed", "4")
    assert first == second


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
