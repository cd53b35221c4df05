"""Command-line interface: parsing, verbs, formats, exit codes."""

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from treefactor import ExponentOverflow, FormMismatch, Polynomial, Verdict
from treefactor.cli import ParseError, main, parse_spec


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_spec_families():
    g = parse_spec("K4")
    assert g.kind == "plain" and g.n == 4
    g = parse_spec("K3xK4xK2")
    assert g.kind == "product" and g.dims == (3, 4, 2)
    g = parse_spec("K3(2)")
    assert g.kind == "plain" and all(e.multiplicity == 2 for e in g.edges)
    g = parse_spec("Q3")
    assert g.kind == "cube" and g.n == 8
    g = parse_spec("T:3,1,1,1")
    assert g.kind == "threshold" and g.degree_sequence == (3, 1, 1, 1)


def test_parse_spec_error_positions():
    with pytest.raises(ParseError) as err:
        parse_spec("")
    assert err.value.pos == 0
    with pytest.raises(ParseError) as err:
        parse_spec("Z4")
    assert err.value.pos == 0
    with pytest.raises(ParseError) as err:
        parse_spec("Qx")
    assert err.value.pos == 1
    with pytest.raises(ParseError) as err:
        parse_spec("K3xJ4")
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_spec("T:3,a")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_spec("K0")


def test_count_text_and_json(capsys):
    rc, out, _ = run(capsys, "count", "K4")
    assert rc == 0 and out == "16\n"
    rc, out, _ = run(capsys, "count", "Q3")
    assert rc == 0 and out == "384\n"
    rc, out, _ = run(capsys, "count", "K3(2)")
    assert rc == 0 and out == "12\n"
    rc, out, _ = run(capsys, "count", "T:3,1,1,1")
    assert rc == 0 and out == "1\n"
    rc, out, _ = run(capsys, "count", "--json", "K4")
    assert rc == 0 and json.loads(out) == {"count": "16"}


def test_count_disconnected_is_zero(capsys):
    rc, out, _ = run(capsys, "count", "T:1,1,0")
    assert rc == 0 and out == "0\n"


def test_enumerate_default_statistics(capsys):
    rc, out, _ = run(capsys, "enumerate", "K3")
    assert rc == 0
    assert out == "x1^2*x2*x3 + x1*x2^2*x3 + x1*x2*x3^2\n"
    rc, out, _ = run(capsys, "enumerate", "Q2")
    assert rc == 0
    assert out == "q1^2*q2*x1 + q1*q2^2*x2 + q1^2*q2*x1^-1 + q1*q2^2*x2^-1\n"
    rc, out, _ = run(capsys, "enumerate", "T:3,1,1,1")
    assert rc == 0
    assert out == "x1^3*y2*y3*y4\n"


def test_enumerate_brute_matches_determinant(capsys):
    rc, det_out, _ = run(capsys, "enumerate", "K4")
    rc2, brute_out, _ = run(capsys, "enumerate", "--brute", "K4")
    assert rc == rc2 == 0
    assert det_out == brute_out


def test_enumerate_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "enumerate", "--json", "Q2")
    assert rc == 0
    poly = Polynomial.from_json(out.strip())
    rc, text, _ = run(capsys, "enumerate", "Q2")
    assert poly.render() == text.strip()


def test_enumerate_reduce_choice_is_irrelevant(capsys):
    rc, base, _ = run(capsys, "enumerate", "K4")
    for r, s in [(1, 1), (1, 2), (4, 4)]:
        rc, out, _ = run(capsys, "enumerate", "--reduce", f"{r},{s}", "K4")
        assert rc == 0 and out == base
    rc, _, err = run(capsys, "enumerate", "--reduce", "5,1", "K4")
    assert rc == 2 and "error" in err


def test_enumerate_reduce_needs_exactly_two_indices(capsys):
    for text in ("1,2,3", "1"):
        rc, out, err = run(capsys, "enumerate", "--reduce", text, "K4")
        assert (rc, out) == (2, "")
        assert err == "error: --reduce takes two 1-based indices R,S\n"
    # an empty value is an error too, not the default choice
    rc, out, err = run(capsys, "enumerate", "--reduce", "", "K4")
    assert (rc, out) == (2, "")
    assert err == "error: expected comma-separated integers for --reduce\n"


def test_enumerate_flag_conflicts(capsys):
    rc, _, err = run(capsys, "enumerate", "--brute", "--weights", "cayley", "K3")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "enumerate", "--brute", "--reduce", "1,1", "K3")
    assert rc == 2 and "error" in err


def test_enumerate_stat_family_mismatch(capsys):
    rc, _, err = run(capsys, "enumerate", "--stat", "inout", "Q2")
    assert rc == 2 and "error" in err


def test_enumerate_disconnected_is_zero(capsys):
    rc, out, _ = run(capsys, "enumerate", "T:1,1,0")
    assert rc == 0 and out == "0\n"
    rc, out, _ = run(capsys, "enumerate", "--brute", "T:1,1,0")
    assert rc == 0 and out == "0\n"


def test_spectrum_text_lines(capsys):
    rc, out, _ = run(capsys, "spectrum", "K2xK3")
    assert rc == 0
    assert out == "0\t1\n2*q1\t1\n3*q2\t2\n2*q1 + 3*q2\t2\n"
    rc, out, _ = run(capsys, "spectrum", "K4")
    assert rc == 0 and out == "0\t1\n4*q1\t3\n"
    # thickened edges scale the eigenvalues
    rc, out, _ = run(capsys, "spectrum", "K3(2)")
    assert rc == 0 and out == "0\t1\n6*q1\t2\n"


def test_spectrum_drops_size_one_factors(capsys):
    # a K1 factor keeps the others' direction variables and adds no row
    rc, out, _ = run(capsys, "spectrum", "K1xK1xK2")
    assert rc == 0 and out == "0\t1\n2*q3\t1\n"
    rc, out, _ = run(capsys, "spectrum", "K2(3)xK1xK3")
    assert rc == 0 and out == "0\t1\n6*q1\t1\n3*q3\t2\n6*q1 + 3*q3\t2\n"
    rc, out, _ = run(capsys, "spectrum", "K1")
    assert rc == 0 and out == "0\t1\n"
    # 2 rows, not 2**17 of which all but 2 have multiplicity 0
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "spectrum", "x".join(["K2"] + ["K1"] * 16))
    assert rc == 0 and out == "0\t1\n2*q1\t1\n"
    assert time.perf_counter() - t0 < 1.0


def test_spectrum_json(capsys):
    rc, out, _ = run(capsys, "spectrum", "--json", "K2xK3")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[1]["multiplicity"] == 1
    assert rows[3]["multiplicity"] == 2


def test_spectrum_rejects_threshold(capsys):
    rc, _, err = run(capsys, "spectrum", "T:3,1,1,1")
    assert rc == 2 and "error" in err


def test_verify_text_verdict_lines(capsys):
    rc, out, _ = run(capsys, "verify", "cayley", "--n", "4")
    assert rc == 0 and out == "cayley:n=4: Verified\n"
    rc, out, _ = run(capsys, "verify", "threshold-null", "--lam", "3,3,2,2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) >= 2
    assert all(": Verified" in line for line in lines)
    assert lines == sorted(lines)


def test_verify_json_zeroes_timings(capsys):
    rc, out, _ = run(capsys, "verify", "divisibility", "--json", "--dims", "2,2")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(r["elapsed_ms"] == 0.0 for r in rows)
    assert all(r["status"] == "Verified" for r in rows)


def test_verify_output_byte_identical_across_runs(capsys):
    rc1, out1, _ = run(capsys, "verify", "directions", "--json", "--dims", "2,3")
    rc2, out2, _ = run(capsys, "verify", "directions", "--json", "--dims", "2,3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc1, out1, _ = run(capsys, "enumerate", "--json", "Q2")
    rc2, out2, _ = run(capsys, "enumerate", "--json", "Q2")
    assert out1 == out2


def test_verify_refuted_exits_one(capsys, monkeypatch):
    import treefactor.cli as cli

    bad = Verdict("cayley:n=4", "Refuted", "x1", 1.0)
    monkeypatch.setattr(cli, "verify_cayley", lambda n: bad)
    rc, out, _ = run(capsys, "verify", "cayley", "--n", "4")
    assert rc == 1
    assert out == "cayley:n=4: Refuted -- x1\n"


def test_exponent_overflow_exits_two(capsys, monkeypatch):
    import treefactor.cli as cli
    from treefactor import ExponentOverflow

    def overflow(n):
        raise ExponentOverflow("exponent 268435456 of x1 is outside [-2**28, 2**28)")

    monkeypatch.setattr(cli, "verify_cayley", overflow)
    rc, out, err = run(capsys, "verify", "cayley", "--n", "4")
    assert rc == 2 and out == ""
    assert err == "error: exponent 268435456 of x1 is outside [-2**28, 2**28)\n"


def test_verify_usage_errors(capsys):
    rc, _, err = run(capsys, "verify", "cube-null", "--n", "2", "--set", "1")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "directions", "--dims", "2,zz")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "threshold", "--lam", "2,2,1,1")
    assert rc == 2 and "error" in err


_SIZE_1_LISTED = "size-1 factors add no edges; each one's x(i,1) is listed to the 2(N - 1), N the vertex count"


def test_verify_with_no_claim_exits_two(capsys):
    # a run that checks nothing says so instead of exiting 0 without a verdict
    empty = "error: nothing to check: the input gives no claim\n"
    for lam in ("0", "1,1"):
        assert run(capsys, "verify", "threshold-null", "--lam", lam) == (2, "", empty), lam
    warned = f"warning: {_SIZE_1_LISTED}\n"
    for dims in ("1", "1,1"):
        assert run(capsys, "verify", "divisibility", "--json", "--dims", dims) == (2, "", warned + empty), dims


def test_library_warnings_print_as_one_line_each(capsys):
    # no source path or line of the library reaches the user; stdout and
    # the exit code are those of a run without the warning
    for argv, warning, last in [
            (("verify", "divisibility", "--dims", "1,3"), _SIZE_1_LISTED, "divides:dims=1x3:factor=x(2,3)^1: Verified"),
            (("conjecture-scan", "--dims", "1,3"), _SIZE_1_LISTED, "nonneg:dims=1x3: Verified -- min coefficient 1 at 1"),
            (("verify", "directions", "--dims", "1,3"), "size-1 factors contribute nothing and were stripped",
             "directions:dims=1x3: Verified")]:
        rc, out, err = run(capsys, *argv)
        assert (rc, out.splitlines()[-1], err) == (0, last, f"warning: {warning}\n"), argv


def test_cube_null_names_the_fault(capsys):
    # an out-of-range direction is named with the range; a short subset by its size
    rc, out, err = run(capsys, "verify", "cube-null", "--n", "3", "--set", "1,5")
    assert rc == 2 and out == ""
    assert err == "error: direction 5 is outside 1..3\n"
    rc, out, err = run(capsys, "verify", "cube-null", "--n", "3", "--set", "2")
    assert rc == 2 and out == ""
    assert err == "error: need a direction subset of size at least 2\n"
    # a bad dimension is named before any direction is checked against it
    rc, out, err = run(capsys, "verify", "cube-null", "--n", "-2", "--set", "1,2")
    assert rc == 2 and out == ""
    assert err == "error: hypercube dimension n=-2 must be at least 1\n"


def test_decoupled_null_names_the_fault(capsys):
    rc, out, err = run(capsys, "verify", "decoupled-null", "--dims", "2,3", "--dir", "3")
    assert rc == 2 and out == ""
    assert err == "error: direction 3 is outside 1..2\n"
    # a size-1 direction has no nullvector to check
    rc, out, err = run(capsys, "verify", "decoupled-null", "--dims", "1,3", "--dir", "1")
    assert rc == 2 and out == ""
    assert err == "error: direction needs at least two coordinate values\n"


def test_verify_divisibility_refuted_exits_one(capsys, monkeypatch):
    # a factor that does not divide is a Refuted verdict, not a crash
    import treefactor.verify as verify

    real = verify.decoupled_enumerator_factors

    def claimed(dims):
        *factors, (base, exp) = real(dims)
        return [*factors, (base, exp + 1)]

    monkeypatch.setattr(verify, "decoupled_enumerator_factors", claimed)
    rc, out, err = run(capsys, "verify", "divisibility", "--dims", "2,3")
    assert rc == 1 and err == ""
    assert out.split("\n")[0] == (
        "divides:dims=2x3:factor=(x(2,1) + x(2,2) + x(2,3))^2: Refuted -- -q1^2*x(1,1)^4*x(2,1)*x(2,2)^2*x(2,3)")


def test_conjecture_scan_text_and_json(capsys):
    rc, out, _ = run(capsys, "conjecture-scan", "--dims", "2,2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "note: quotient has 4 terms"
    assert lines[1].startswith("nonneg:dims=2x2: Verified -- min coefficient 1 at ")
    rc, out, _ = run(capsys, "conjecture-scan", "--json", "--dims", "2,2")
    row = json.loads(out)
    assert row["quotient_terms"] == 4
    assert row["elapsed_ms"] == 0.0
    assert row["status"] == "Verified"


def test_cap_exceeded_exits_three(capsys):
    rc, _, err = run(capsys, "enumerate", "--brute", "--cap", "100", "K6")
    assert rc == 3 and "error" in err


def test_determinant_past_its_image_cap_exits_three(capsys):
    # K40's determinant is refused from the image's size, before any elimination
    rc, out, err = run(capsys, "enumerate", "K40")
    assert rc == 3 and out == ""
    assert err.startswith("error: the 39x39 determinant's Kronecker image needs ")
    assert err.endswith(" bits, past the bound of 1048576\n")


def test_negative_cap_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "enumerate", "--brute", "--cap", "-1", "K3")
    assert rc == 2 and out == ""
    assert err.endswith("error: argument --cap: a tree cap cannot be negative: -1\n")
    rc, out, err = run(capsys, "enumerate", "--brute", "--cap", "abc", "K3")
    assert rc == 2 and err.endswith("error: argument --cap: invalid int value: 'abc'\n")
    rc, out, _ = run(capsys, "enumerate", "--brute", "--cap", "3", "K3")
    assert rc == 0 and out


def test_spec_errors_exit_two(capsys):
    rc, _, err = run(capsys, "count", "T:2,2,1,1")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "count", "K0")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "count", "Zebra")
    assert rc == 2 and "error" in err


def test_zero_multiplicity_is_rejected(capsys):
    for argv in (["count", "K2(0)"], ["count", "K3xK2(0)"], ["enumerate", "--brute", "K2(0)"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: edge multiplicity must be at least 1\n"


def test_usage_error_from_argparse(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["enumerate", "K3", "--stat", "nosuch"]) == 2
    capsys.readouterr()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    rc, out, _ = run(capsys, "count", "--out", str(target), "K4")
    assert rc == 0
    assert out == ""
    assert target.read_text() == "16\n"


def test_out_that_cannot_be_written_exits_two(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x.txt"
    rc, out, err = run(capsys, "count", "K4", "--out", str(missing))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "No such file or directory" in err and str(missing) in err
    rc, out, err = run(capsys, "verify", "cayley", "--n", "4", "--out", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err
    assert "Traceback" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treefactor", "count", "K4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "16\n"


# Every verb with and without --json, all eight verify targets, and exit
# codes 0, 2 and 3 from the library's own inputs.
_TRANSCRIPT = [line.split() for line in """
count K4
count --json K4
count K3(2)
count Q3
count T:3,1,1,1
count --json K2xK3
count T:1,1,0
count K1
count K2(2)xK3
count Zebra
count K0
count Qx
count T:2,2,1,1
enumerate K3
enumerate --json K3
enumerate Q2
enumerate --json Q2
enumerate T:3,1,1,1
enumerate K2xK3
enumerate K3(2)
enumerate --weights direction K2xK3
enumerate --weights generic K3
enumerate --brute K4
enumerate --brute --json K2xK2
enumerate --brute --stat inout T:3,1,1,1
enumerate --reduce 1,2 K4
enumerate --reduce 5,1 K4
enumerate --reduce 1,2,3 K4
enumerate --brute --weights cayley K3
enumerate --brute --reduce 1,1 K3
enumerate --stat inout Q2
enumerate T:1,1,0
enumerate --brute T:1,1,0
enumerate --brute --cap 100 K6
enumerate --brute --cap 100 --json K6
spectrum K2xK3
spectrum --json K2xK3
spectrum K4
spectrum K3(2)
spectrum --json Q3
spectrum K2(2)xK3
spectrum T:3,1,1,1
verify cayley --n 4
verify cayley --json --n 5
verify cayley --n 1
verify directions --dims 2,3
verify directions --json --dims 2,2,2
verify directions --dims 2,zz
verify divisibility --dims 2,2
verify divisibility --json --dims 2,3
verify cube --n 2
verify cube --json --n 3
verify cube --brute --n 2
verify threshold --lam 3,1,1,1
verify threshold --json --lam 3,3,2,2
verify threshold --lam 2,2,1,1
verify cube-null --n 3 --set 1,2
verify cube-null --json --n 3 --set 1,2,3
verify cube-null --n 2 --set 1
verify decoupled-null --dims 2,3 --dir 1
verify decoupled-null --json --dims 2,3 --dir 2
verify decoupled-null --dims 2,3 --dir 3
verify threshold-null --lam 3,3,2,2
verify threshold-null --json --lam 4,2,2,1,1
conjecture-scan --dims 2,2
conjecture-scan --json --dims 2,3
conjecture-scan --dims 0
conjecture-scan --dims x
""".strip().split("\n")]

# Usage errors and help that argparse writes itself.
_ARGPARSE_TRANSCRIPT = [[], ["nosuch"], ["verify"], ["verify", "nosuch"], ["verify", "--help"],
                        ["--help"], ["verify", "cayley"], ["enumerate", "K3", "--stat", "nosuch"]]

# Exit code 1 and the remaining error paths, through patched library calls.
_PATCHED_TRANSCRIPT = [line.split() for line in """
verify cayley --n 4
verify cayley --json --n 4
verify directions --dims 2,3
verify cube --n 2
conjecture-scan --dims 2,2
conjecture-scan --json --dims 2,2
""".strip().split("\n")]


def _transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _argparse_text(text):
    # Python 3.13 drops the quotes around choices and wraps usage lines
    # differently, so argparse's own text is compared word by word
    return " ".join(text.replace("'", "").split())


def test_cli_transcript_digest(monkeypatch):
    import treefactor.cli as cli

    digest = hashlib.sha256()

    def record(argv, rc, out, err):
        digest.update(json.dumps([argv, rc, out, err]).encode() + b"\n")

    for argv in _TRANSCRIPT:
        record(argv, *_transcript(argv))
    for argv in _ARGPARSE_TRANSCRIPT:
        rc, out, err = _transcript(argv)
        record(argv, rc, _argparse_text(out), _argparse_text(err))

    def overflow(n):
        raise ExponentOverflow("exponent 268435456 of x1 is outside [-2**28, 2**28)")

    def mismatch(dims):
        raise FormMismatch("the two direction-count expansions disagree")

    monkeypatch.setattr(cli, "verify_cayley", lambda n: Verdict(f"cayley:n={n}", "Refuted", "x1", 1.5))
    monkeypatch.setattr(cli, "verify_directions", mismatch)
    monkeypatch.setattr(cli, "verify_cube", lambda n, use_brute: overflow(n))
    monkeypatch.setattr(cli, "conjecture_scan", lambda dims: (
        Verdict("nonneg:dims=2x2", "Refuted", "min coefficient -1 at x2", 2.5), Polynomial.parse("x1 - x2")))
    for argv in _PATCHED_TRANSCRIPT:
        record(argv, *_transcript(argv))
    assert digest.hexdigest() == "209dbb8d51e73b528bc8d7e292885a06084de38898aa9aeaf762540c64c53d4a"
