"""Command-line behaviour: records, formats, exit codes, config."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import relprime as rp
from relprime import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


def test_count_f(capsys):
    code, out, err = run(capsys, "count", "f", "--set", "1..4")
    assert code == 0
    (record,) = json_lines(out)
    assert record["function"] == "f"
    assert record["spec"] == "1..4"
    assert record["result"] == "11"
    assert "elapsed_ms" in record


def test_count_phi_union(capsys):
    code, out, _ = run(capsys, "count", "phi", "--set", "1..2 + 5..6", "--n", "6")
    assert code == 0
    assert json_lines(out)[0]["result"] == "12"


def test_count_tuple_functions(capsys):
    code, out, _ = run(capsys, "count", "T", "--n", "4", "--k", "2", "--m", "6")
    assert code == 0
    record = json_lines(out)[0]
    assert record["result"] == "5"
    assert (record["n"], record["k"], record["m"]) == (4, 2, 6)


def test_json_round_trips_byte_identically(capsys):
    _, out, _ = run(capsys, "count", "phik", "--set", "ap(3,4,6)", "--n", "30", "--k", "2")
    line = out.splitlines()[0]
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_result_is_a_decimal_string(capsys):
    _, out, _ = run(capsys, "count", "f", "--set", "1..300")
    record = json_lines(out)[0]
    assert isinstance(record["result"], str)
    assert int(record["result"]) > 2**290


def test_tsv_output(capsys):
    code, out, _ = run(capsys, "count", "T", "--n", "4", "--k", "2", "--m", "6", "--tsv")
    assert code == 0
    assert out == "T\t\t4\t2\t6\t5\n"
    _, out, _ = run(capsys, "count", "f", "--set", "1..4", "--tsv")
    assert out == "f\t1..4\t\t\t\t11\n"


def test_record_bytes_are_pinned(capsys):
    # key order included; elapsed_ms is the one field that varies
    cases = [
        (("count", "phi", "--set", "1..2+5..6", "--n", "6"),
         '{"function":"phi","spec":"1..2+5..6","n":6,"result":"12","elapsed_ms":_}\n',
         "phi\t1..2+5..6\t6\t\t\t12\n"),
        (("verify", "T", "--n", "4", "--k", "2", "--m", "6"),
         '{"function":"T","n":4,"k":2,"m":6,"result":"5","verified":true,"elapsed_ms":_}\n',
         "T\t\t4\t2\t6\t5\n"),
        (("seq", "phik", "2..3", "--k", "2"),
         '{"function":"phik","spec":"1..2","n":2,"k":2,"result":"1","elapsed_ms":_}\n'
         '{"function":"phik","spec":"1..3","n":3,"k":2,"result":"3","elapsed_ms":_}\n',
         "phik\t1..2\t2\t2\t\t1\nphik\t1..3\t3\t2\t\t3\n"),
    ]
    for argv, json_out, tsv_out in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert re.sub(r'"elapsed_ms":[0-9.]+}', '"elapsed_ms":_}', out) == json_out
        code, out, _ = run(capsys, *argv, "--tsv")
        assert code == 0
        assert out == tsv_out


def test_verify_flag_and_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "f", "--set", "ap(3,4,5)")
    assert code == 0
    assert json_lines(out)[0]["verified"] is True
    code, out, _ = run(capsys, "count", "G", "--n", "8", "--k", "3", "--verify")
    assert code == 0
    assert json_lines(out)[0]["verified"] is True
    code, out, _ = run(capsys, "verify", "phi", "--set", "1..18", "--n", "30")
    assert code == 0
    assert json_lines(out)[0]["verified"] is True


_SPEC = "1..6 + ap(9,4,3)"
_X = rp.parse_set_spec(_SPEC)

# function -> (flags, the library call the CLI must agree with)
_REGISTRY_CASES = {
    "f": (["--set", _SPEC], lambda: rp.f(_X)),
    "fk": (["--set", _SPEC, "--k", "3"], lambda: rp.f_k(_X, 3)),
    "phi": (["--set", _SPEC, "--n", "35"], lambda: rp.phi(_X, 35)),
    "phik": (["--set", _SPEC, "--n", "35", "--k", "3"], lambda: rp.phi_k(_X, 35, 3)),
    "S": (["--n", "7", "--k", "3", "--m", "6"], lambda: rp.s_count(7, 3, 6)),
    "G": (["--n", "7", "--k", "3"], lambda: rp.g_count(7, 3)),
    "L": (["--n", "7", "--k", "3", "--m", "6"], lambda: rp.l_count(7, 3, 6)),
    "H": (["--n", "7", "--k", "3"], lambda: rp.h_count(7, 3)),
    "T": (["--n", "7", "--k", "3", "--m", "6"], lambda: rp.t_count(7, 3, 6)),
}


def _first(n):
    return rp.parse_set_spec(f"1..{n}")


# function -> (seq flags, the library value seq must give at n)
_SEQ_CASES = {
    "f": ([], lambda n: rp.f(_first(n))),
    "fk": (["--k", "2"], lambda n: rp.f_k(_first(n), 2)),
    "phi": ([], lambda n: rp.phi(_first(n), n)),
    "phik": (["--k", "2"], lambda n: rp.phi_k(_first(n), n, 2)),
    "S": (["--k", "3", "--m", "6"], lambda n: rp.s_count(n, 3, 6)),
    "G": (["--k", "3"], lambda n: rp.g_count(n, 3)),
    "L": (["--k", "3", "--m", "6"], lambda n: rp.l_count(n, 3, 6)),
    "H": (["--k", "3"], lambda n: rp.h_count(n, 3)),
    "T": (["--k", "2", "--m", "6"], lambda n: rp.t_count(n, 2, 6)),
}


@pytest.mark.parametrize("name", sorted(cli._FUNCTIONS))
def test_every_function_counts_and_verifies(capsys, name):
    flags, library = _REGISTRY_CASES[name]
    code, out, _ = run(capsys, "count", name, *flags)
    assert code == 0
    assert json_lines(out)[0]["result"] == str(library())
    code, out, _ = run(capsys, "verify", name, *flags)
    assert code == 0
    (record,) = json_lines(out)
    assert record["result"] == str(library())
    assert record["verified"] is True
    seq_flags, value_at = _SEQ_CASES[name]
    code, out, _ = run(capsys, "seq", name, "1..3", *seq_flags)
    assert code == 0
    assert [r["result"] for r in json_lines(out)] == [str(value_at(n)) for n in (1, 2, 3)]


def test_verify_mismatch_exits_6(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "brute_f", lambda X, budget=None: 999)
    code, out, err = run(capsys, "verify", "f", "--set", "1..4")
    assert code == 6
    assert json_lines(out)[0]["verified"] is False
    assert "disagrees" in err


def test_usage_errors_exit_2(capsys):
    cases = [
        ("count", "f"),  # missing --set
        ("count", "f", "--set", "1..4", "--m", "6"),  # stray flag
        ("count", "T", "--n", "4", "--k", "2"),  # missing --m
        ("count", "T", "--set", "1..4", "--n", "4", "--k", "2", "--m", "6"),
        ("count", "f", "--set", "1..oops"),
        ("seq", "f", "10..1"),
        ("seq", "f", "abc"),
        ("seq", "f", "0..3"),
        ("seq", "f", "1.." + "9" * 5000),  # past int()'s digit limit
        ("seq", "f", "ap(5,2,3)"),  # a range has step 1
        ("seq", "f", "1..3 + 5..7"),  # and one part
        ("seq", "f", "1..5 + 3..7"),  # overlapping or not
        ("seq", "f", "1..5", "--k", "2"),
        ("seq", "G", "1..5"),  # missing --k
        ("seq", "f", "1..5", "--check-mod3"),
        ("seq", "phi", "3..5", "--check-nonsquare"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("relprime:"), argv


def test_bad_flag_values_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "phi", "--set", "1..4", "--n", "zero"])
    assert info.value.code == 2
    capsys.readouterr()


def test_integer_past_the_digit_limit_in_a_set_exits_2(capsys):
    # int() refuses more than 4300 digits with a ValueError of its own
    code, out, err = run(capsys, "count", "f", "--set", "1.." + "9" * 5000)
    assert code == 2
    assert out == ""
    assert err.startswith("relprime: bad term")
    # the term is shown by its head and its length, not echoed whole
    assert len(err) < 400
    assert "(5003 characters)" in err


def test_overlap_exits_3(capsys):
    code, _, err = run(capsys, "count", "f", "--set", "1..5 + 3..4")
    assert code == 3
    assert "both contain" in err


def test_budget_exits_4(capsys):
    code, _, err = run(capsys, "verify", "f", "--set", "1..30", "--budget-subsets", "20")
    assert code == 4
    assert "budget" in err
    code, _, _ = run(capsys, "verify", "S", "--n", "200", "--k", "4", "--m", "6")
    assert code == 4


def test_subset_class_ceiling_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(rp._kernels, "_SUBSET_CLASSES", 10)
    code, out, err = run(capsys, "verify", "f", "--set", "1..20")
    assert (code, out) == (4, "")
    assert err == "relprime: the subset walk over 20 elements needs more than 10 (gcd, size) classes\n"


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (MemoryError, 4, "relprime: out of memory"),
        (KeyboardInterrupt, 130, "relprime: interrupted"),
    ],
)
def test_memory_error_and_interrupt_exit_cleanly(capsys, monkeypatch, raised,
                                                 code, message):
    def fail(X):
        raise raised

    monkeypatch.setattr(cli.counting, "f", fail)
    status, out, err = run(capsys, "count", "f", "--set", "1..4")
    assert status == code
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        # a sieve to 10^20 is past the largest array numpy can index
        ("count", "G", "--n", str(10**20), "--k", "2"),
        ("count", "fk", "--set", f"1..{10**20}", "--k", "3"),
        # the modulus walk never sieves, but 2^(10^20) has too many digits
        ("count", "phi", "--set", f"1..{10**20}", "--n", "6"),
    ],
    ids=("G", "fk", "phi"),
)
def test_sizes_too_large_to_represent_exit_4(capsys, argv):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert err.startswith("relprime: too large to represent")
    assert "Traceback" not in err


def test_result_past_the_digit_limit_exits_4(capsys):
    # f([1, 20000]) has 20000 bits, past str()'s 4300-digit limit
    start = perf_counter()
    code, out, err = run(capsys, "count", "f", "--set", "1..20000")
    assert perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert err.startswith("relprime: too large to represent")
    assert "4300 digits" in err and "20000 bits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("L", "--n", "1000000", "--k", "1000000", "--m", "6"),
        ("H", "--n", "1000000", "--k", "1000000"),
        ("T", "--n", "2000000", "--k", "1000000", "--m", "6"),
    ],
    ids=("L", "H", "T"),
)
def test_costly_binomial_weights_exit_4_at_once(capsys, argv):
    # about 2*10^7 bits passes the result bound, but one C(2*10^6, 10^6)
    # would take over half a minute
    start = perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.endswith("whose work passes the limit of 274877906944\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("S", "--n", "1048576", "--k", "8000000", "--m", "6"),
        ("G", "--n", "1048576", "--k", "8000000"),
    ],
    ids=("S", "G"),
)
def test_costly_power_weights_exit_4_at_once(capsys, argv):
    # 21 * 8*10^6 bits is under the 2^28-bit result bound, but one
    # 349525^8000000 would take minutes
    start = perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == ("relprime: counting 8000000-tuples over [1, 1048576] may take power "
                   "weights of 168000000 bits, past the limit of 4194304\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("G", "--n", "1000000000", "--k", "2"),
         "a Möbius sieve to 1000000000 passes the limit of 16777216"),
        (("f", "--set", "1000000000..1000100000"),
         "a Möbius sieve to 1000100000 passes the limit of 16777216"),
        (("f", "--set", "ap(1,1000,100000)"),
         "a Möbius sieve to 99999001 passes the limit of 16777216"),
        (("G", "--n", "1000", "--k", "419430"),
         "counting 419430-tuples over [1, 1000] may take 31 weights of up to "
         "4194300 bits, whose work passes the limit of 16777216"),
        (("S", "--n", "1000", "--k", "419430", "--m", "30030"),
         "counting 419430-tuples over [1, 1000] may take 15 weights of up to "
         "4194300 bits, whose work passes the limit of 16777216"),
    ],
    ids=("G-sieve", "f-interval-sieve", "f-ap-sieve", "G-weights", "S-weights"),
)
def test_oversized_walks_exit_4_at_once(capsys, argv, message):
    # each ran for seconds or took the host's memory before it was refused
    start = perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert perf_counter() - start < 1.0
    assert (code, out, err) == (4, "", f"relprime: {message}\n")


@pytest.mark.parametrize(
    "argv, bits",
    [
        (("G", "--n", "10", "--k", "100000000000000000000"), 4 * 10**20),
        (("S", "--n", "10", "--k", "100000000", "--m", "6"), 4 * 10**8),
    ],
    ids=("G", "S"),
)
def test_wide_tuple_results_exit_4_at_once(capsys, argv, bits):
    # 10 has 4 bits, so 10^k has at most 4k; both are refused before q^k
    start = perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == (f"relprime: counting {argv[4]}-tuples over [1, 10] may give a result "
                   f"of {bits} bits, past the limit of 268435456\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # 2^20000 tuples: past str()'s 4300 digits, so never shown
        (("G", "--n", "2", "--k", "20000"), "more than 10^4000 tuples to enumerate"),
        # few tuples, but C(n+k, k) - 1 or C(n+1, k) - 1 prefixes on the way
        (("H", "--n", "2", "--k", "100000"), "5000150000 prefixes of 100001 tuples to build"),
        (("L", "--n", "3", "--k", "4000", "--m", "6"),
         "10682674000 prefixes of 8006001 tuples to build"),
        (("T", "--n", "100000", "--k", "99999", "--m", "6"),
         "5000049999 prefixes of 100000 tuples to build"),
        (("T", "--n", "20000", "--k", "19999", "--m", "6"),
         "200009999 prefixes of 20000 tuples to build"),
        (("H", "--n", "2", "--k", "8000"), "32012000 prefixes of 8001 tuples to build"),
    ],
    ids=("G-digits", "H-deep", "L-deep", "T-deep", "T-20000", "H-8000"),
)
def test_tuple_budget_counts_prefixes_and_refuses_at_once(capsys, argv, message):
    start = perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == f"relprime: {message} exceeds the budget of 10000000\n"


def test_budget_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_SUBSETS, "3")
    code, _, _ = run(capsys, "verify", "f", "--set", "1..5")
    assert code == 4
    code, out, _ = run(capsys, "verify", "f", "--set", "1..5", "--budget-subsets", "10")
    assert code == 0
    assert json_lines(out)[0]["verified"] is True


def test_budget_tuples_flag_and_config(tmp_path, capsys):
    # S(20, 3, 6) walks 20^3 = 8000 tuples
    argv = ("verify", "S", "--n", "20", "--k", "3", "--m", "6")
    code, out, err = run(capsys, *argv, "--budget-tuples", "100")
    assert code == 4
    assert out == ""
    assert err == "relprime: 8000 tuples to enumerate exceeds the budget of 100\n"
    config = tmp_path / "settings.conf"
    config.write_text("budget_tuples = 100\n")
    code, _, err = run(capsys, *argv, "--config", str(config))
    assert code == 4
    assert "budget of 100" in err
    # the flag beats the config
    code, out, _ = run(capsys, *argv, "--config", str(config), "--budget-tuples", "10000")
    assert code == 0
    assert json_lines(out)[0]["verified"] is True


def test_budget_env_beats_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_BUDGET_SUBSETS, raising=False)
    config = tmp_path / "settings.conf"
    config.write_text("budget_subsets = 12\n")
    code, _, _ = run(capsys, "verify", "f", "--set", "1..5", "--config", str(config))
    assert code == 0
    monkeypatch.setenv(cli.ENV_BUDGET_SUBSETS, "3")
    code, out, err = run(capsys, "verify", "f", "--set", "1..5", "--config", str(config))
    assert code == 4
    assert out == ""
    assert err == "relprime: |X| = 5 exceeds the subset budget of 3\n"


def test_seq_f_values(capsys):
    code, out, _ = run(capsys, "seq", "f", "1..10")
    assert code == 0
    records = json_lines(out)
    assert [r["n"] for r in records] == list(range(1, 11))
    assert [int(r["result"]) for r in records] == [1, 2, 5, 11, 26, 53, 116, 236, 488, 983]
    assert all(r["spec"] == f"1..{r['n']}" for r in records)


def test_seq_checks_pass(capsys):
    code, _, _ = run(capsys, "seq", "phi", "3..20", "--check-mod3")
    assert code == 0
    code, _, _ = run(capsys, "seq", "f", "2..25", "--check-nonsquare")
    assert code == 0


def test_seq_check_failure_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(cli.counting, "phi", lambda X, n: 7)
    code, _, err = run(capsys, "seq", "phi", "3..5", "--check-mod3")
    assert code == 5
    assert "phi(3) = 7" in err
    monkeypatch.setattr(cli.counting, "f", lambda X: 49)
    code, _, err = run(capsys, "seq", "f", "2..4", "--check-nonsquare")
    assert code == 5
    assert "perfect square" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("abc", "cannot parse term 'abc'"),
        ("10..1", "bad term '10..1': empty interval 10..1"),
        ("0..3", "bad term '0..3': first term must be positive, got 0"),
        ("1..3 + 5..7", "cannot parse range '1..3 + 5..7'; expected lo..hi"),
    ],
)
def test_seq_range_errors_use_the_set_grammar(capsys, spec, message):
    code, out, err = run(capsys, "seq", "f", spec)
    assert (code, out, err) == (2, "", f"relprime: {message}\n")


def test_seq_range_past_the_digit_limit_exits_2_at_once(capsys):
    start = perf_counter()
    code, out, err = run(capsys, "seq", "f", "1.." + "9" * 5000)
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("relprime: bad term '1..9999")
    assert "(5003 characters)" in err and len(err) < 400


@pytest.mark.parametrize(
    "spec, ns", [("1 .. 4", [1, 2, 3, 4]), ("ap(5,1,3)", [5, 6, 7])])
def test_seq_range_is_a_set_term(capsys, spec, ns):
    code, out, _ = run(capsys, "seq", "f", spec)
    assert code == 0
    assert [r["n"] for r in json_lines(out)] == ns


def test_seq_tuple_function(capsys):
    code, out, _ = run(capsys, "seq", "S", "1..6", "--k", "2", "--m", "6")
    assert code == 0
    records = json_lines(out)
    assert [r["n"] for r in records] == list(range(1, 7))
    assert all(r["k"] == 2 and r["m"] == 6 for r in records)
    from relprime import s_count

    assert [int(r["result"]) for r in records] == [s_count(n, 2, 6) for n in range(1, 7)]


def test_config_file(tmp_path, capsys):
    config = tmp_path / "settings.conf"
    config.write_text("# defaults\noutput = tsv\nbudget_subsets = 5\n")
    code, out, _ = run(capsys, "count", "f", "--set", "1..4", "--config", str(config))
    assert code == 0
    assert out.startswith("f\t1..4\t")
    code, _, _ = run(capsys, "verify", "f", "--set", "1..9", "--config", str(config))
    assert code == 4
    # flags beat config: json again, budget widened
    code, out, _ = run(
        capsys, "verify", "f", "--set", "1..9", "--config", str(config),
        "--json", "--budget-subsets", "12",
    )
    assert code == 0
    assert json_lines(out)[0]["verified"] is True


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("colour = blue\n")
    code, _, err = run(capsys, "count", "f", "--set", "1..4", "--config", str(bad))
    assert code == 2
    assert "unknown key" in err
    code, _, _ = run(capsys, "count", "f", "--set", "1..4", "--config", str(tmp_path / "missing.conf"))
    assert code == 2
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"output = json\n\xff\xfe\x80\n")
    code, out, err = run(capsys, "count", "f", "--set", "1..5", "--config", str(binary))
    assert code == 2
    assert out == ""
    assert err.startswith("relprime: cannot read config")


@pytest.mark.parametrize(
    "line, message",
    [
        ("budget_subsets 5", "expected key=value, got 'budget_subsets 5'"),
        ("output = xml", "output must be json or tsv"),
        ("budget_tuples = 0", "budget_tuples: expected a positive integer, got '0'"),
    ],
)
def test_config_line_errors_exit_2(tmp_path, capsys, line, message):
    config = tmp_path / "c1.conf"
    config.write_text(line + "\n")
    code, out, err = run(capsys, "verify", "f", "--set", "1..5", "--config", str(config))
    assert (code, out, err) == (2, "", f"relprime: {config}:1: {message}\n")


def test_bad_budget_environment_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_SUBSETS, "abc")
    code, out, err = run(capsys, "verify", "f", "--set", "1..5")
    assert (code, out) == (2, "")
    assert err == "relprime: RELPRIME_BUDGET_SUBSETS: expected an integer, got 'abc'\n"


def test_seq_records_stream_in_order(capsys):
    _, out, _ = run(capsys, "seq", "G", "1..8", "--k", "3", "--tsv")
    ns = [int(line.split("\t")[2]) for line in out.splitlines()]
    assert ns == sorted(ns) == list(range(1, 9))


_NINES = "9" * 4000


@pytest.mark.parametrize(
    "spec, code",
    [
        (f"{_NINES}..1", 2),  # the empty interval names both bounds
        (f"5..6 + {_NINES}..{_NINES}9", 4),  # the sieve limit
        (f"{_NINES}..{_NINES}9 + {_NINES}5..{_NINES}7", 3),  # the two parts and the witness
    ],
    ids=("empty", "sieve", "overlap"),
)
def test_messages_shorten_long_integers(capsys, spec, code):
    status, out, err = run(capsys, "count", "f", "--set", spec)
    assert status == code
    assert out == ""
    assert err.startswith("relprime:")
    assert len(err) < 400
    assert re.search(r"\.\.\. \(400[0-9] characters\)", err)


def test_flag_values_shorten_long_integers(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "G", "--n", "9" * 5000, "--k", "2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --n: expected an integer, got '{'9' * 40}... (5000 characters)'" in err
    assert len(err) < 800  # argparse prints the usage lines too


def test_closed_pipe_exits_141_silently():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "relprime.cli", "seq", "G", "1..20000", "--k", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = child.stdout.readline()
    child.stdout.close()  # the reader goes away after one record
    err = child.stderr.read()
    assert child.wait(timeout=60) == 141
    assert json.loads(first)["n"] == 1
    assert err == b""
