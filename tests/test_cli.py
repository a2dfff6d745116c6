"""Command-line behavior: output, exit codes, report files."""

import json
import os
import sys
import time

import pytest

from deltan.cli import main


def test_ideals_command(capsys):
    assert main(["ideals", "Z12"]) == 0
    out = capsys.readouterr().out
    assert "6 ideals" in out
    assert "generators (2)" in out


def test_ideals_infinite_backend(capsys):
    assert main(["ideals", "ZZ"]) == 2
    assert "not enumerated" in capsys.readouterr().err


def test_a_zz_generator_that_cannot_be_factored_exits_2_before_any_row(capsys):
    assert main(["classify", "ZZ", "(1000000000039)", "--delta", "d1"]) == 2
    assert main(["classify", "ZZ", "(6)", "--delta", "d+((1000000000039))"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == 2 * (
        "error: cannot factor 1000000000039: trial division by the primes below "
        "10^6 leaves a part of at least 10^12\n")
    # the longest literal the DSL reads, with no prime factor below 10^6
    start = time.perf_counter()
    assert main(["classify", "ZZ", f"({10 ** 4299 + 1})", "--delta", "d1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: cannot factor a 4300-digit integer")
    for n in (999999999989, 2 ** 4000, 10 ** 4299):
        assert main(["classify", "ZZ", f"({n})", "--delta", "d1"]) == 0
        assert "prime: " + ("true" if n == 999999999989 else "false") in capsys.readouterr().out


def test_a_zz_literal_that_cannot_be_factored_exits_2_though_a_product_may_form_it(capsys):
    # the square of a prime near 10^12 is an ideal when a product of accepted
    # ideals forms it, never as a literal; this prime's square is formed by no test
    assert main(["classify", "ZZ", f"({999999999959 ** 2})"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot factor {999999999959 ** 2}")


@pytest.mark.parametrize("spec, count", [("Z1024 x Z4", 33), ("Z4 x Z1024", 33),
                                         ("Z64 x Z64", 49)])
def test_ideals_of_a_large_product_are_the_pairs_of_its_factors_ideals(capsys, spec, count):
    # an ideal of R1 x R2 is I1 x I2, so Z_n x Z_m has d(n) d(m) of them
    assert main(["ideals", spec]) == 0
    assert capsys.readouterr().out.startswith(f"ideal lattice of {spec} ({count} ideals):\n")


def test_oversized_rings_exit_2_before_allocating(capsys):
    assert main(["ideals", "Z100000"]) == 2
    assert main(["ideals", "Z10[x]/(x^9)"]) == 2
    assert main(["ideals", "Z10000000[x]/(2x+1)"]) == 2
    err = capsys.readouterr().err
    assert err.count("limited to 4096") == 2 and "Traceback" not in err
    assert "leading coefficient 2 is not a unit mod 10000000" in err


def test_polynomial_element_of_a_localization(capsys):
    # x names the image of x under Z4[x]/(x^2) -> loc(Z4[x]/(x^2),{1}), as in quot(...)
    assert main(["classify", "Z4[x]/(x^2)", "(x)"]) == 0
    base = capsys.readouterr().out.splitlines()
    assert main(["classify", "loc(Z4[x]/(x^2),{1})", "(x)"]) == 0
    captured = capsys.readouterr()
    local = captured.out.splitlines()
    assert captured.err == ""
    assert local[:2] == ["ring: loc(Z4[x]/(x^2),{1}) (16 elements)",
                         "ideal: (x) (4 elements)"]
    assert base[1] == "ideal: (x) (4 elements)"
    assert local[2:] == base[2:] and "n-ideal: true" in local


@pytest.mark.parametrize("command, message", [
    # a polynomial is held densely: these would take 10^5 and 10^8 coefficients
    (["ideals", "Z2[x]/(x^100000)"], "exponent 100000 is above 4096 at 1:10"),
    (["ideals", "Z2[x]/(x^99999999)"], "exponent 99999999 is above 4096 at 1:10"),
    # (10^4300)^3 has more digits than an int may be printed with
    (["ideals", "Z" + "9" * 4300 + "[x]/(x^3)"], "^3 elements; table-backed rings"),
    # literals past the int/str conversion limit
    (["ideals", "Z" + "9" * 5000], "integer literal of 5000 digits; at most 4300 are read"),
    (["classify", "Z6", "(" + "9" * 5000 + ")"], "integer literal of 5000 digits"),
], ids=["exponent-100000", "exponent-99999999", "size-of-4300-digit-base",
        "ring-literal", "element-literal"])
def test_oversized_numbers_exit_2_with_one_line(capsys, command, message):
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    import deltan.cli

    def broken(args):
        raise RuntimeError("table missing")

    monkeypatch.setattr(deltan.cli, "_cmd_ideals", broken)
    assert main(["ideals", "Z6"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: table missing\n"
    assert "Traceback" not in captured.out


def test_classify_z6_quasi_with_witness(capsys):
    assert main(["classify", "Z6", "(0)", "--delta", "d1"]) == 0
    out = capsys.readouterr().out
    assert "quasi n-ideal: false  (witness: a=2, b=3)" in out
    assert "delta-n-ideal (definition): false" in out
    assert "delta-n-ideal (ideal_pairs): false" in out


def test_classify_integer_example(capsys):
    assert main(["classify", "ZZ", "(5)", "--delta", "d+((3))"]) == 0
    out = capsys.readouterr().out
    assert "delta-n-ideal (definition): true" in out
    assert "prime: true" in out


def test_classify_improper_ideal(capsys):
    """The whole ring gets its five flag rows, then one refusal on stderr."""
    for ring in ("Z6", "ZZ"):
        assert main(["classify", ring, "(1)"]) == 2
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "ring", "ideal", "proper", "prime", "maximal", "primary", "superfluous"]
        assert captured.err == ("error: this ideal class is defined for proper ideals only; "
                                "got the whole ring\n")


def test_classify_bad_delta_prints_no_half_report(capsys):
    assert main(["classify", "Z6", "(2)", "--delta", "d9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected '+' or '*'")


def test_parse_error_exit_code(capsys):
    assert main(["classify", "Z6 )", "(0)"]) == 2
    assert "expected" in capsys.readouterr().err


def test_unknown_claim(capsys):
    assert main(["explain", "nope"]) == 2
    assert main(["verify", "--claims", "nope"]) == 2


def test_explain(capsys):
    assert main(["explain", "rem-product-obstruction"]) == 0
    out = capsys.readouterr().out
    assert "claim: rem-product-obstruction" in out
    assert "statement:" in out


def test_explain_prints_the_kind_of_a_self_test_and_the_notes_of_a_claim(capsys):
    assert main(["explain", "selftest-z6-all-n-ideals"]) == 0
    out = capsys.readouterr().out
    assert "\nkind: deliberately inverted self-test of the witness machinery\n" in out
    assert main(["explain", "audit-example-unit-ideal"]) == 0
    out = capsys.readouterr().out
    assert "\nnote: flagged: the motivating example of a delta-n-but-not-n" in out
    assert "kind:" not in out


def test_verify_subset_and_json(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc = main(["verify", "--claims", "ex-z6-zero-not-n,audit-example-unit-ideal",
               "--json", str(out1)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "total failures: 0" in text
    rc2 = main(["verify", "--claims", "ex-z6-zero-not-n,audit-example-unit-ideal",
                "--json", str(out2)])
    assert rc2 == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert [rec["claim_id"] for rec in payload] == ["ex-z6-zero-not-n",
                                                    "audit-example-unit-ideal"]


def test_verify_default_corpus_exits_zero(default_verification):
    rc, out, _, _ = default_verification
    assert rc == 0
    assert "total failures: 0" in out
    assert "selftest" not in out


def test_verify_selftest_exits_nonzero(capsys):
    rc = main(["verify", "--claims", "selftest-z6-all-n-ideals"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_verify_corpus_file(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("# tiny corpus\nZ6\nZ8\n")
    rc = main(["verify", "--claims", "thm-four-equivalents", "--corpus", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total failures: 0" in out


def test_witness_cap_flag(capsys):
    rc = main(["verify", "--claims", "selftest-z6-all-n-ideals", "--witness-cap", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.count("witness:") == 1


def test_ideals_of_a_1024_element_product(capsys):
    assert main(["ideals", "Z32 x Z32"]) == 0
    out = capsys.readouterr().out
    assert "(36 ideals)" in out
    assert out.count("generators") == 36


def test_closed_stdout_exits_141_without_a_message():
    """A reader that stops after one line, as ``deltan ideals ... | head -1`` does."""
    import fcntl
    import os
    import subprocess
    import sys
    from pathlib import Path

    read_fd, write_fd = os.pipe()
    # a one-page pipe: the 64-ideal listing (about 6 KB) cannot fit, so the
    # command is still writing when the read end closes
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltan.cli", "ideals", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    first = b""
    while not first.endswith(b"\n"):
        chunk = os.read(read_fd, 1)
        if not chunk:
            break
        first += chunk
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert first == b"ideal lattice of Z2 x Z2 x Z2 x Z2 x Z2 x Z2 (64 ideals):\n"
    assert (proc.returncode, err) == (141, b"")


def test_a_closed_stdout_in_this_process_exits_141_and_points_stdout_at_devnull(
        monkeypatch, capsys):
    """The same contract through ``main`` in this process: the reader of the
    pipe is gone before the first row, so the flush that ends the command fails."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    stdout = os.fdopen(write_fd, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["ideals", "Z4096"]) == 141
    monkeypatch.undo()
    stdout.close()  # its descriptor is devnull now, so the unwritten rows go there
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name, reason", [("missing.txt", "No such file or directory"),
                                          ("", "Is a directory")])
def test_unreadable_corpus_file_exits_2_with_one_line(tmp_path, capsys, name, reason):
    path = tmp_path / name
    assert main(["verify", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read corpus file {path}: {reason}\n"


def test_infinite_ring_in_a_corpus_file_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("Z6\nZZ\n")
    assert main(["verify", "--corpus", str(path)]) == 2
    assert capsys.readouterr().err == "error: corpus files may contain finite rings only\n"


def test_ring_listed_twice_in_a_corpus_file_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("Z4xZ9\nZ6\nZ4 x Z9\n")
    assert main(["verify", "--corpus", str(path), "--claims", "thm-existence"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: corpus file {path}: ring Z4 x Z9 on line 3 "
                            "is already listed on line 1\n")


def _no_run(monkeypatch):
    import deltan.cli

    def run_claims(**kwargs):
        raise AssertionError("the claims ran")
    monkeypatch.setattr(deltan.cli, "run_claims", run_claims)


def test_unwritable_json_report_fails_before_the_claims_run(tmp_path, monkeypatch, capsys):
    _no_run(monkeypatch)
    target = tmp_path / "no-such-dir" / "r.json"
    assert main(["verify", "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write report file {target}: "
                            "No such file or directory\n")
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_file_that_fails_its_write_exits_2(capsys):
    # /dev/full opens but refuses every write: the error surfaces at the flush on
    # close, after the run, and is refused as an unwritable path is
    assert main(["verify", "--claims", "thm-existence", "--json", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert "thm-existence" in captured.out
    assert captured.err == ("error: cannot write report file /dev/full: "
                            "No space left on device\n")


@pytest.mark.parametrize("value, message", [("-3", "must be at least 0, got -3"),
                                            ("x", "invalid count value: 'x'")])
def test_witness_cap_must_be_a_count(monkeypatch, capsys, value, message):
    _no_run(monkeypatch)
    assert main(["verify", "--witness-cap", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --witness-cap: {message}\n")


def test_witness_cap_zero_counts_failures_without_witnesses(capsys):
    assert main(["verify", "--claims", "selftest-z6-all-n-ideals", "--witness-cap", "0"]) == 1
    out = capsys.readouterr().out
    assert "failures=3" in out and "witness:" not in out


def test_unknown_claim_id_leaves_the_report_file_alone(tmp_path, monkeypatch, capsys):
    _no_run(monkeypatch)
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    assert main(["verify", "--claims", "thm-existence,no-such-claim", "--json", str(target)]) == 2
    assert capsys.readouterr().err == "error: unknown claim id 'no-such-claim'\n"
    assert target.read_text() == "old report\n"


@pytest.mark.parametrize("claims, message", [
    ("", "unknown claim id ''"),
    ("thm-existence,thm-existence", "claim id 'thm-existence' is listed twice"),
    ("thm-existence,ex-z6-zero-not-n,thm-existence", "claim id 'thm-existence' is listed twice")])
def test_an_empty_or_repeated_claim_id_exits_2_and_leaves_the_report_file_alone(
        tmp_path, monkeypatch, capsys, claims, message):
    # "" ran every claim, and a repeated id was reported twice
    from deltan.errors import DeltanError
    from deltan.verifier import run_claims
    with pytest.raises(DeltanError, match=f"^{message}$"):
        run_claims(claim_ids=claims.split(","))
    _no_run(monkeypatch)
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    assert main(["verify", "--claims", claims, "--json", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert target.read_text() == "old report\n"


def test_every_refusal_of_the_cli_lock_writes_one_stderr_line(monkeypatch, capsys):
    """The hand-written queries of the lock, lines 913-942, all but line 935
    refusals, and an argument that begins with '-': argparse's own errors wrote
    their usage lines too."""
    from test_cli_lock import _queries
    monkeypatch.setenv("COLUMNS", "80")
    refused = 0
    for argv in _queries()[912:942] + [["classify", "Z9", "-x)"]]:
        code, err = main(argv), capsys.readouterr().err
        if code != 0:
            refused += 1
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, argv
            assert err.endswith("\n"), argv
    assert refused == 30


def test_the_process_parser_answers_after_an_argparse_error(monkeypatch, capsys):
    # main builds its parser once per process, so a usage error must leave it
    # answering the next query as a fresh process does
    import os
    import subprocess
    import sys
    from pathlib import Path

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (["verify", "--witness-cap", "-1"], ["classify", "Z6", "(2)"]):
        fresh = subprocess.run([sys.executable, "-m", "deltan.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert main(argv) == fresh.returncode
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0


def test_help_twice_in_one_process(capsys):
    outputs = []
    for _ in range(2):
        assert main(["--help"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("usage: deltan")
