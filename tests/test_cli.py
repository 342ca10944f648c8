import csv
import io
import json
import re
import subprocess
import sys

from lefschetz_kit.cli import RunConfig, _inject_findings, dispatch, main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lefschetz_kit.cli", *args],
                          capture_output=True, text=True)


def normalize(text):
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


def test_hilbert_single_degree():
    proc = run_cli("hilbert", "--n", "6", "--a", "2", "--d", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == "lefschetz-kit/1"
    assert report["query"] == "hilbert"
    assert report["result"]["rows"] == [{"d": 3, "power_ci": 20, "aci": 14}]


def test_inject_flip_at_seven():
    proc = run_cli("inject", "--a", "2", "--d", "3",
                   "--n-range", "5..9", "--seeds", "1,2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    verdicts = {r["n"]: r["injective"] for r in report["result"]["rows"]}
    assert verdicts == {5: False, 6: False, 7: True, 8: True, 9: True}
    assert "findings" not in report["result"]


def test_witness_reports_per_seed():
    proc = run_cli("witness", "--d", "3", "--n", "6", "--seeds", "1,2,3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    records = report["result"]["witnesses"]
    assert [r["seed"] for r in records] == [1, 2, 3]
    for r in records:
        assert r["congruence_ok"] is True
        assert r["nonmembership_ok"] is True


def test_paths_small_case():
    proc = run_cli("paths", "--n", "5", "--d", "3")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["a"] == 1
    assert result["t"] == 1
    assert result["closed_form_valid"] is False


def test_initial_piece_matches_combinatorics():
    proc = run_cli("initial", "--n", "6", "--a", "2", "--d", "2")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["count"] == 7
    assert result["quotient_dim"] == 14
    assert result["combinatorial_match"] is True
    assert "x1x2" in result["monomials"]


def test_identical_invocations_are_byte_identical():
    args = ("inject", "--a", "2", "--d", "3", "--n-range", "5..7",
            "--seeds", "1,2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert normalize(first.stdout) == normalize(second.stdout)


def test_csv_and_json_carry_the_same_numbers():
    args = ("hilbert", "--n", "5", "--a", "2", "--d-range", "0..5")
    as_json = json.loads(run_cli(*args).stdout)
    as_csv = run_cli(*args, "--format", "csv").stdout
    reader = csv.DictReader(io.StringIO(as_csv))
    parsed = [{k: int(v) for k, v in row.items()} for row in reader]
    assert parsed == as_json["result"]["rows"]


def test_table_format():
    proc = run_cli("paths", "--n", "6", "--d", "3", "--format", "table")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# paths field=rational")
    assert lines[1].split()[:2] == ["a", "t"]
    assert lines[2].split()[0] == "8"


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("hilbert", "--n", "4", "--a", "2", "--d", "2",
                   "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    report = json.loads(target.read_text())
    assert report["result"]["rows"][0]["power_ci"] == 6


def test_prime_field_flag():
    proc = run_cli("inject", "--a", "2", "--d", "3", "--n-range", "6..7",
                   "--seeds", "1", "--field", "prime:51999971")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["field"] == "prime:51999971"
    verdicts = {r["n"]: r["injective"] for r in report["result"]["rows"]}
    assert verdicts == {6: False, 7: True}


def test_missing_flag_is_invalid_input():
    proc = run_cli("hilbert", "--a", "2")
    assert proc.returncode == 2
    assert "invalid input" in proc.stderr


def test_missing_seeds_is_invalid_input():
    proc = run_cli("witness", "--d", "3", "--n", "6")
    assert proc.returncode == 2


def test_bad_field_is_rejected():
    proc = run_cli("inject", "--a", "2", "--d", "3", "--n-range", "5..6",
                   "--seeds", "1", "--field", "prime:4")
    assert proc.returncode == 2


def test_backwards_range_is_rejected():
    proc = run_cli("hilbert", "--n", "5", "--a", "2", "--d-range", "5..2")
    assert proc.returncode == 2


def test_oversized_witness_is_refused():
    proc = run_cli("witness", "--d", "13", "--n", "24", "--seeds", "1")
    assert proc.returncode == 3
    assert "refusing" in proc.stderr


def test_oversized_matrices_are_refused_before_they_are_built():
    for args in (
        # the degree-4 lift of n=30 squares has 1.1e8 cells
        ("wlp", "--n", "30", "--a", "2", "--seeds", "1"),
        ("inject", "--a", "2", "--d", "12", "--n-range", "40..40",
         "--seeds", "1"),
        # a tenth power of a 30-term linear form has 6.4e8 terms
        ("wlp", "--n", "30", "--a", "10", "--seeds", "1"),
        ("froberg", "--n", "30", "--a", "10", "--seeds", "1"),
        # degree 60 in 10 variables has 5.7e10 monomials
        ("initial", "--n", "10", "--a", "2", "--d", "60"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 3, args
        assert "refusing" in proc.stderr, args


def test_repeated_in_process_calls_match_fresh_processes(capsys):
    # main reuses one parser across calls, also after a parse error
    calls = [
        ("hilbert", "--n", "4", "--a", "2", "--format", "csv"),
        ("inject", "--a", "2", "--d", "3", "--n-range", "5..6", "--seeds",
         "1,2", "--field", "prime:51999971"),
        ("inject", "--a", "2", "--d", "3", "--n-range", "5..6", "--bogus"),
        ("inject", "--a", "2", "--d", "3", "--n-range", "5..6", "--seeds",
         "1,2", "--field", "prime:51999971"),
        ("witness", "--d", "3", "--n", "6"),
        ("paths", "--n", "6", "--d", "3", "--format", "table"),
        ("hilbert", "--n", "4", "--a", "2", "--format", "csv"),
    ]
    for args in calls:
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        # bytes, so the CSV line ends are compared untranslated
        fresh = subprocess.run([sys.executable, "-m", "lefschetz_kit.cli", *args],
                               capture_output=True)
        assert (code, normalize(out)) == (fresh.returncode,
                                          normalize(fresh.stdout.decode())), args


def test_unread_flags_are_rejected():
    # paths computes its conjecture over Q and witness has no field choice
    proc = run_cli("paths", "--n", "6", "--d", "3", "--seeds", "1",
                   "--field", "prime:3")
    assert proc.returncode == 2
    assert "--field" in proc.stderr
    proc = run_cli("witness", "--n", "6", "--d", "3", "--seeds", "1",
                   "--field", "prime")
    assert proc.returncode == 2
    proc = run_cli("hilbert", "--n", "4", "--a", "2", "--seeds", "1")
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr


def test_inject_findings_logic():
    def row(n, injective, met):
        return {"n": n, "dim_below": 1, "dim_at": 1, "rank": 0,
                "injective": injective, "inequality_met": met}

    assert _inject_findings([row(6, False, False)], 2, 3) == []
    assert _inject_findings([row(7, True, False)], 2, 3) == []
    # non-injective above the proven threshold must be flagged
    out = _inject_findings([row(7, False, False)], 2, 3)
    assert len(out) == 1 and "threshold" in out[0]
    # injective inside the proven kernel window must be flagged
    out = _inject_findings([row(5, True, False)], 2, 3)
    assert len(out) == 1 and "kernel range" in out[0]
    # a met inequality without injectivity flags twice for squares
    out = _inject_findings([row(11, False, True)], 2, 3)
    assert len(out) == 2
    out = _inject_findings([row(3, False, False)], 3, 3)
    assert len(out) == 1 and "cubes" in out[0]
    assert _inject_findings([row(3, True, False)], 3, 3) == []


def test_dispatch_in_process():
    code, report = dispatch(RunConfig(subcommand="paths", n=6, d=3))
    assert code == 0
    assert report["result"]["a"] == 8
    assert report["result"]["closed_form_value"] == 8
    code, report = dispatch(RunConfig(subcommand="hilbert", n=6, a=2, d=3))
    assert code == 0
    assert report["result"]["rows"][0] == {"d": 3, "power_ci": 20, "aci": 14}


def test_sweep_subcommand():
    proc = run_cli("sweep", "--a", "2", "--n-range", "3..4", "--seeds", "1",
                   "--format", "csv")
    assert proc.returncode == 0
    reader = csv.DictReader(io.StringIO(proc.stdout))
    rows = list(reader)
    assert {r["n"] for r in rows} == {"3", "4"}
    assert all(r["maximal_rank"] == "True" for r in rows)
