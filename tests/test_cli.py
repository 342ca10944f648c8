import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_kit import paths, quotient
from lefschetz_kit.cli import RunConfig, _inject_findings, dispatch, main
from lefschetz_kit.hilbert import aci_hilbert


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


def test_initial_mismatch_in_characteristic_three():
    # (x1 + ... + x5)^3 is x1^3 + ... + x5^3 modulo 3, so the span leaves
    # no capped pivot and the piece misses the six of the prediction. The
    # prediction is the paper's, over Q, where the dimension is 29, so
    # over F_3, where it is 30, it is not checked
    proc = run_cli("initial", "--n", "5", "--a", "3", "--d", "3",
                   "--field", "prime:3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {
        "monomials": ["x1^3", "x2^3", "x3^3", "x4^3", "x5^3"],
        "count": 5,
        "quotient_dim": 30,
        "combinatorial_match": None,
    }
    proc = run_cli("initial", "--n", "5", "--a", "3", "--d", "3")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert (result["quotient_dim"], result["combinatorial_match"]) == (29, True)


def test_small_prime_inject_cites_no_theorem_about_q():
    # modulo 3 dim_at is 49 and 76 where Q has 48 and 75, and both maps
    # lose rank; the squares threshold is a theorem over Q, so neither
    # row is a finding
    proc = run_cli("inject", "--a", "2", "--d", "3", "--n-range", "8..9",
                   "--seeds", "1", "--field", "prime:3")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert [(r["n"], r["dim_at"], r["injective"]) for r in result["rows"]] \
        == [(8, 49, False), (9, 76, False)]
    assert "findings" not in result


def test_small_prime_sweep_reports_the_degrees_of_q(capsys):
    # the sweep runs degrees 1 to ceil((n + 2) / 2) - 1, where A vanishes
    # over Q; modulo 3 degree 4 is nonzero but is not swept
    degrees = {}
    for field in ("rational", "prime:3"):
        assert main(["wlp", "--n", "5", "--a", "2", "--seeds", "1,2",
                     "--field", field]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        degrees[field] = [r["d"] for r in result["degrees"]]
    assert degrees == {"rational": [1, 2, 3], "prime:3": [1, 2, 3]}


def test_verify_rational_reports_the_rows_of_q(capsys):
    # modulo 3 both maps lose rank and dim_at is 49 and 76; --verify-rational
    # reports Q's rows under the field of the query, and only JSON says
    # whether the prime agreed
    query = ["inject", "--a", "2", "--d", "3", "--seeds", "1",
             "--verify-rational"]
    assert main([*query, "--n-range", "8..9", "--field", "prime:3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == "prime:3"
    assert report["result"]["rational_confirmed"] is False
    assert [(r["n"], r["dim_at"], r["injective"])
            for r in report["result"]["rows"]] == [(8, 48, True), (9, 75, True)]
    assert main([*query, "--n-range", "8..9", "--field", "prime:3",
                 "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# inject field=prime:3 seeds=1"
    assert [line.split()[2] for line in lines[2:]] == ["48", "75"]
    assert "rational_confirmed" not in "\n".join(lines)
    assert main([*query, "--n-range", "5..7", "--field", "prime:51999971"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["rational_confirmed"] is True
    assert [r["injective"] for r in result["rows"]] == [False, False, True]


def test_verify_rational_needs_a_prime_field(monkeypatch, capsys):
    # over Q there is nothing to verify, so the flag is refused before any
    # form is drawn rather than silently ignored
    def draw(*args, **kwargs):
        raise AssertionError("a form was drawn before the refusal")

    monkeypatch.setattr(quotient, "random_linear_form", draw)
    query = ["inject", "--a", "2", "--d", "3", "--n-range", "5..5",
             "--seeds", "1", "--verify-rational"]
    for field in ([], ["--field", "rational"]):
        assert main([*query, *field]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: invalid input: inject --verify-rational needs "
                       "a prime --field\n")


def test_paths_touch_with_seeds_is_invalid_input(monkeypatch, capsys):
    # the conjecture is stated for the strict count, which agrees would
    # compare whatever --boundary says, so the pair is refused before any
    # walk runs or any form is drawn
    def draw(*args, **kwargs):
        raise AssertionError("a walk ran or a form was drawn before the refusal")

    monkeypatch.setattr(quotient, "_draw_coefficients", draw)
    monkeypatch.setattr(paths, "path_counts", draw)
    assert main(["paths", "--n", "6", "--d", "3", "--seeds", "1",
                 "--boundary", "touch"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: invalid input: paths --seeds compares the strict "
                   "count and takes no --boundary touch\n")


def test_initial_flags_a_dropped_pivot(monkeypatch, capsys):
    real = quotient._reduce_spec

    def span(spec, d, field_tag):
        basis, piv = real(spec, d, field_tag)
        return basis, piv[:-1]

    monkeypatch.setattr(quotient, "_reduce_spec", span)
    assert main(["initial", "--n", "6", "--a", "2", "--d", "2"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["count"] == 6
    assert result["combinatorial_match"] is False
    assert result["findings"] == [
        "echelon initial piece differs from the combinatorial prediction"]


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


def test_out_to_an_unopenable_path_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["hilbert", "--n", "3", "--a", "2", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.parent.exists()


def test_prime_field_flag():
    proc = run_cli("inject", "--a", "2", "--d", "3", "--n-range", "6..7",
                   "--seeds", "1", "--field", "prime:51999971")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["field"] == "prime:51999971"
    verdicts = {r["n"]: r["injective"] for r in report["result"]["rows"]}
    assert verdicts == {6: False, 7: True}


def test_missing_flag_is_invalid_input(capsys):
    proc = run_cli("hilbert", "--a", "2")
    assert proc.returncode == 2
    assert "invalid input" in proc.stderr
    # bad n or a, where the default degree range is empty
    for n, a in ((-1, 2), (3, 0), (3, -2), (0, 2), (3, 1)):
        assert main(["hilbert", "--n", str(n), "--a", str(a)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid input:"), (n, a)
    # below a = 2 the quotient vanishes from degree 1, so a sweep would
    # print an empty table
    for args in (("wlp", "--n", "3", "--a", "1"),
                 ("sweep", "--a", "1", "--n-range", "2..3"),
                 ("wlp", "--n", "1", "--a", "2")):
        assert main([*args, "--seeds", "1"]) == 2, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err == "error: invalid input: need n >= 2 and a >= 2\n", args
    # hilbert reads one of --d and --d-range, so passing both is refused
    # rather than leaving one unread
    assert main(["hilbert", "--n", "4", "--a", "2", "--d", "3",
                 "--d-range", "1..2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid input:")
    assert "--d " in err and "--d-range" in err


def test_missing_seeds_is_invalid_input():
    proc = run_cli("witness", "--d", "3", "--n", "6")
    assert proc.returncode == 2


def test_bad_field_is_rejected():
    proc = run_cli("inject", "--a", "2", "--d", "3", "--n-range", "5..6",
                   "--seeds", "1", "--field", "prime:4")
    assert proc.returncode == 2


def test_field_prime_zero_is_rejected():
    # FieldTag(0) is Q, so prime:0 must not fall through to a rational run
    proc = run_cli("wlp", "--n", "4", "--a", "2", "--seeds", "1",
                   "--field", "prime:0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "prime:P needs a prime P" in proc.stderr


def test_backwards_range_is_rejected():
    proc = run_cli("hilbert", "--n", "5", "--a", "2", "--d-range", "5..2")
    assert proc.returncode == 2


def test_oversized_witness_is_refused():
    proc = run_cli("witness", "--d", "13", "--n", "24", "--seeds", "1")
    assert proc.returncode == 3
    assert "refusing" in proc.stderr


def test_oversized_matrices_are_refused_before_they_are_built():
    for args in (
        # the degree-5 span of n = 30 squares has 5.8e8 cells
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


def test_oversized_inject_and_froberg_build_no_span(monkeypatch, capsys):
    # inject and froberg run every n or every degree, and wlp and sweep every
    # degree they are sure to reach, so a shape beyond the guard there is
    # refused from n, a and the form count alone, before the first power of
    # a linear form, cokernel spec or span is built
    built = []

    def span(spec, d, field_tag):
        built.append((spec.n, d))
        raise AssertionError("a span was built before the refusal")

    def build(*args):
        raise AssertionError("a power or cokernel spec was built before the "
                             "refusal")

    quotient._default_form.cache_clear()
    monkeypatch.setattr(quotient, "_span_echelon", span)
    monkeypatch.setattr(quotient, "_reduce_spec", span)
    monkeypatch.setattr(quotient, "form_power", build)
    # froberg raises its seeded coefficients to the a-th power here
    monkeypatch.setattr(quotient, "_linear_powers", build)
    monkeypatch.setattr(quotient, "_cokernel_spec", build)
    for args in (
        # the degree-6 span at n = 18 has 5.7e7 cells
        ("inject", "--a", "2", "--d", "6", "--n-range", "10..30", "--seeds", "1"),
        # the degree-7 span has 2.6e8 cells
        ("froberg", "--n", "16", "--a", "4", "--seeds", "1"),
        # A vanishes from degree 9 on, and the degree-8 span has 1.0e8 cells
        ("wlp", "--n", "16", "--a", "2", "--seeds", "1"),
        # the same span at n = 16, refused before n = 10 is swept
        ("sweep", "--a", "2", "--n-range", "10..16", "--seeds", "1"),
        # the degree-13 span has 9.9e7 cells
        ("wlp", "--n", "9", "--a", "9", "--seeds", "1"),
    ):
        assert main(list(args)) == 3, args
        assert "refusing" in capsys.readouterr().err, args
    assert built == []


def test_map_rank_of_dimension_zero_builds_no_span(monkeypatch, capsys):
    # degree 11 lies above the top degree 9 of the squares quotient at
    # n = 16, and degree 20 above the top degree 15 at n = 30, so the closed
    # form gives dim_below = dim_at = 0 and the rank is 0; the cokernel span
    # of the first has 2 C(15, 9) x C(15, 11) cells, seconds of elimination,
    # and that of the second is far above the guard
    def span(*args):
        raise AssertionError("a span was built")

    monkeypatch.setattr(quotient, "_span_echelon", span)
    monkeypatch.setattr(quotient, "_reduce_spec", span)
    for n, d, field in ((16, 11, "prime:51999971"), (16, 11, "prime"),
                        (16, 11, "rational"), (30, 20, "prime:51999971")):
        t0 = time.perf_counter()
        code = main(["inject", "--a", "2", "--d", str(d), "--n-range", f"{n}..{n}",
                     "--seeds", "1", "--field", field])
        elapsed = time.perf_counter() - t0
        assert code == 0, (n, d, field)
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert rows == [{"n": n, "dim_below": 0, "dim_at": 0, "rank": 0,
                         "injective": True, "inequality_met": False}], field
        assert elapsed < 1, (n, d, field, elapsed)


def test_refused_froberg_builds_no_form(monkeypatch, capsys):
    # the powers' terms are checked first, then the span of every degree
    def build(*args):
        raise AssertionError("a form was built before the refusal")

    monkeypatch.setattr(quotient, "form_power", build)
    monkeypatch.setattr(quotient, "_linear_powers", build)
    for args, line in (
        (("froberg", "--n", "24", "--a", "5", "--seeds", "1"),
         "the cells of the 600 x 2028600 span in degree 7 would number "
         "1217160000"),
        (("froberg", "--n", "30", "--a", "10", "--seeds", "1"),
         "the terms of power 10 of a 30-term linear form would number "
         "635745396"),
    ):
        assert main(list(args)) == 3, args
        assert capsys.readouterr().err == (
            f"error: refusing an oversized computation: {line}, above the "
            "guard of 50000000\n"), args


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
    def row(n, injective, met, a=2, d=3):
        # the dimensions of Q, where the thresholds are proven
        return {"n": n, "dim_below": aci_hilbert(n, a, d - 1),
                "dim_at": aci_hilbert(n, a, d), "rank": 0,
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
    out = _inject_findings([row(3, False, False, a=3)], 3, 3)
    assert len(out) == 1 and "cubes" in out[0]
    assert _inject_findings([row(3, True, False, a=3)], 3, 3) == []
    # a row whose dimensions are not those of Q, as over a small prime,
    # draws no finding from a theorem over Q
    for key in ("dim_below", "dim_at"):
        other = {**row(11, False, True), key: row(11, False, True)[key] + 1}
        assert _inject_findings([other], 2, 3) == []


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


def test_sweep_draws_each_form_once(monkeypatch, capsys):
    # the rank table draws each n's seeded forms once, for the guards and
    # the ranks alike: 3 values of n times 2 seeds
    drawn = []
    real = quotient.random_linear_form

    def counted(n, seed, index=None):
        drawn.append((n, seed))
        return real(n, seed, index)

    monkeypatch.setattr(quotient, "random_linear_form", counted)
    assert main(["sweep", "--a", "2", "--n-range", "3..5", "--seeds", "1,2"]) == 0
    capsys.readouterr()
    assert drawn == [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]


@pytest.mark.parametrize("a, ns, field", [
    (2, (3, 6), "rational"),
    (3, (4, 6), "prime:51999971"),
])
def test_sweep_blocks_are_the_wlp_payloads(a, ns, field, capsys):
    common = ["--a", str(a), "--seeds", "1,2", "--field", field]
    assert main(["sweep", *common, "--n-range", f"{ns[0]}..{ns[1]}"]) == 0
    blocks = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert [b["n"] for b in blocks] == list(range(ns[0], ns[1] + 1))
    for block in blocks:
        assert main(["wlp", *common, "--n", str(block["n"])]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert block == {"n": block["n"], **payload}


_SEEDS = st.lists(st.integers(1, 10**6), min_size=1, max_size=2,
                  unique=True).map(lambda s: ",".join(map(str, s)))
_FIELDS = st.sampled_from(("rational", "prime", "prime:51999971"))


def _draw_query(sub, draw):
    """Small argv of the subcommand sub, with the integers drawn."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    if sub == "initial":
        return ["--n", num(1, 5), "--a", num(2, 4), "--d", num(0, 5),
                "--field", draw(st.sampled_from(("rational", "prime:3")))]
    if sub == "hilbert":
        extra = draw(st.sampled_from(([], ["--d", "2"], ["--d-range", "1..3"])))
        return ["--n", num(1, 5), "--a", num(2, 4)] + extra
    if sub == "froberg":
        return ["--n", num(2, 5), "--a", num(2, 3), "--seeds", draw(_SEEDS),
                "--field", draw(_FIELDS)]
    if sub == "wlp":
        return ["--n", num(2, 4), "--a", num(2, 3), "--seeds", draw(_SEEDS),
                "--field", draw(_FIELDS)]
    if sub == "sweep":
        lo = draw(st.integers(2, 4))
        return ["--a", "2", "--n-range", f"{lo}..{lo + 1}",
                "--seeds", draw(_SEEDS), "--field", draw(_FIELDS)]
    if sub == "inject":
        lo = draw(st.integers(3, 6))
        return ["--a", "2", "--d", num(2, 3), "--n-range", f"{lo}..{lo + 2}",
                "--seeds", draw(_SEEDS), "--field", draw(_FIELDS)]
    if sub == "witness":
        return ["--n", num(4, 6), "--d", "3", "--seeds", draw(_SEEDS)]
    # --seeds compares the strict count, so it goes with --boundary strict
    seeds = draw(st.sampled_from(([], ["--seeds", draw(_SEEDS)])))
    boundary = "strict" if seeds else draw(st.sampled_from(("strict", "touch")))
    return ["--n", num(3, 8), "--d", num(2, 3), "--boundary", boundary] + seeds


def _json_rows(report):
    """The rows of a JSON report that its CSV flattens, as dicts keyed by
    the CSV column names."""
    result = report["result"]
    query = report["query"]
    if query in ("hilbert", "inject"):
        return result["rows"]
    if query == "wlp":
        return result["degrees"]
    if query == "sweep":
        return [{"n": block["n"], **r} for block in result["rows"]
                for r in block["degrees"]]
    if query == "witness":
        return result["witnesses"]
    if query == "paths":
        return [{**result, **result.get("conjecture", {})}]
    if query == "froberg":
        pred = result["predicted"]
        return [{"d": d, "predicted": pred[d] if d < len(pred) else "",
                 "exact": x} for d, x in enumerate(result["exact"])]
    return [{"monomial": m} for m in result["monomials"]]


@pytest.mark.parametrize("sub", ["initial", "hilbert", "froberg", "wlp",
                                 "sweep", "inject", "witness", "paths"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_rows_are_the_json_rows(sub, data):
    argv = [sub] + _draw_query(sub, data.draw)
    outs = []
    for fmt in ("json", "csv"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            outs.append((main(argv + ["--format", fmt]), buf.getvalue()))
    (code, text), (csv_code, csv_text) = outs
    assert csv_code == code, argv
    report = json.loads(text)
    reader = csv.DictReader(io.StringIO(csv_text))
    rows = _json_rows(report)
    # a JSON null is an empty CSV cell
    assert list(reader) == [{k: "" if r[k] is None else str(r[k])
                             for k in reader.fieldnames} for r in rows], argv
