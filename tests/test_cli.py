import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from divmono import cli, curves, gl2
from divmono.cli import main
from divmono.frobenius import enumerate_data
from divmono.obstruction import INDEX_MAX, N_MAX, P_MAX, TABLE_N_MAX, TABLE_P_MAX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def interrupt_after(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`, so
    that a hang fails the test instead of stalling the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSigma:
    def test_table_one_matrix(self, capsys):
        code, out, _ = run(capsys, "sigma", "--p", "2", "--a", "1", "--b", "1")
        assert code == 0
        assert "[[1, 1], [-2, 0]]" in out
        assert "delta_pi=-7" in out and "delta_end=-7" in out and "delta=1" in out

    def test_table_four_matrix(self, capsys):
        code, out, _ = run(capsys, "sigma", "--p", "7", "--a", "0", "--b", "2")
        assert code == 0
        assert "[[1, 2], [-4, -1]]" in out

    def test_large_prime(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "sigma", "--p", "1000000000000000003",
                           "--a", "1", "--b", "1")
        assert code == 0 and "p=1000000000000000003 a_p=1 b_p=1" in out
        assert time.perf_counter() - start < 1

    def test_prime_past_the_primality_limit_exits_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--p", "3317044064679887385961981",
                           "--a", "1", "--b", "1")
        assert code == 2 and "primality" in err

    def test_hasse_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--p", "2", "--a", "3", "--b", "1")
        assert code == 2
        assert "Hasse" in err


class TestTest:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "test", "--p", "2", "--a", "1", "--b", "1", "--n", "11")
        assert code == 0
        assert "obstruction" in out
        assert "num_primes=1320" in out and "irred_supply=99" in out

    def test_red_entry_vanishes_under_index2(self, capsys):
        _, out, _ = run(capsys, "test", "--p", "2", "--a", "0", "--b", "1",
                        "--n", "5", "--image", "index2")
        assert "no_obstruction" in out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_supply_too_long_to_print_is_a_token(self, capsys, fmt):
        # I_994008(11) has about a million digits; the bound decides it
        # without computing it
        start = time.perf_counter()
        code, out, err = run(capsys, "test", "--p", "11", "--a", "6", "--b", "1",
                             "--n", "997", "--format", fmt)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        if fmt == "text":
            assert "residue_degree=994008 " in out and "irred_supply=>=10^4300)" in out
        else:
            rows = (list(csv.DictReader(io.StringIO(out))) if fmt == "csv"
                    else json.loads(out)["verdicts"])
            assert [r["irred_supply"] for r in rows] == [">=10^4300"]
        assert elapsed < 0.05, f"{elapsed:.3f} s"

    @pytest.mark.parametrize("p,a,n", [("11", "6", "997"), ("2", "1", "99999999999973")])
    def test_supply_is_a_token_when_the_digit_limit_is_off(self, capsys, p, a, n):
        # with no int-to-str limit, D falls back to CPython's default; the
        # exact supplies have about a million and 10^13 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with interrupt_after(5):
                code, out, err = run(capsys, "test", "--p", p, "--a", a, "--b", "1", "--n", n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        assert "irred_supply=>=10^4300)" in out

    def test_non_coprime_exits_2(self, capsys):
        code, _, err = run(capsys, "test", "--p", "3", "--a", "0", "--b", "1", "--n", "6")
        assert code == 2
        assert "coprime" in err

    def test_inconsistent_index2_image_exits_2(self, capsys):
        # |GL2(Z/2Z)| = 6 and pi has order 2 mod 2: an odd count of 3 primes
        code, out, err = run(capsys, "test", "--p", "3", "--a", "0", "--b", "1",
                             "--n", "2", "--image", "index2")
        assert (code, out) == (2, "")
        assert err == ("error: index-2 image assumption is inconsistent at n=2: "
                       "order 2 does not divide 3\n")

    def test_n_past_the_limit_exits_2(self, capsys):
        # a prime n that trial division would never finish factorizing
        start = time.perf_counter()
        code, _, err = run(capsys, "test", "--p", "2", "--a", "1", "--b", "1",
                           "--n", "1000000000000000003")
        assert code == 2 and "n must be <=" in err
        assert time.perf_counter() - start < 1


class TestTable:
    def test_text_contains_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "2", "--n-max", "30")
        assert code == 0
        assert "a_p=1 b_p=1: 11" in out
        assert "a_p=-1 b_p=1: 11, 23" in out
        assert "*5" in out  # red marker in the a_p=0 row

    def test_text_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--p", "3", "--n-max", "60")
        _, second, _ = run(capsys, "table", "--p", "3", "--n-max", "60")
        assert first == second

    def test_csv_row_count_matches_verdicts(self, capsys):
        _, out, _ = run(capsys, "table", "--p", "11", "--n-max", "100", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows, "expected some obstructed entries"
        assert all(r["p"] == "11" for r in rows)
        _, json_out, _ = run(capsys, "table", "--p", "11", "--n-max", "100",
                             "--format", "json")
        record = json.loads(json_out)
        assert len(record["verdicts"]) == len(rows)

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "table", "--p", "5", "--n-max", "60", "--format", "json")
        record = json.loads(out)
        assert record["schema_version"] == "1"
        assert record["command"] == "table"
        assert record["inputs"] == {"p": 5, "n_max": 60}
        assert json.loads(json.dumps(record)) == record
        for v in record["verdicts"]:
            assert list(v) == ["p", "a_p", "b_p", "n", "residue_degree",
                               "num_primes", "irred_supply", "classification"]

    def test_n_max_past_the_limit_exits_2(self, capsys):
        # at 10^9 one row of p = 23 takes about 9 s
        start = time.perf_counter()
        code, _, err = run(capsys, "table", "--p", "23", "--n-max", str(TABLE_N_MAX + 1))
        assert code == 2 and "n_max must be <=" in err
        assert time.perf_counter() - start < 1

    def test_p_past_the_limit_exits_2(self, capsys):
        # the rows grow like sqrt(p); 1000003 is the least prime past the limit
        start = time.perf_counter()
        code, _, err = run(capsys, "table", "--p", "1000003", "--n-max", "999")
        assert code == 2 and f"p must be <= {TABLE_P_MAX}" in err
        assert time.perf_counter() - start < 1


# a safe prime n = 2q' + 1 just below N_MAX, the slowest q - 1 to factorize
SAFE_PRIME = "99999999995927"


def clear_gl2_caches():
    """Empty every cache of the gl2 module, so that a scan starts cold."""
    for value in vars(gl2).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class TestCurve:
    def test_daniels_confirmed(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "daniels", "--t", "3",
                           "--n", "11", "--p-max", "2")
        assert code == 0
        assert "p=2 a_p=-1: CONFIRMED" in out

    def test_uv_confirmed(self, capsys):
        _, out, _ = run(capsys, "curve", "--family", "uv", "--u", "1", "--v", "2",
                        "--n", "11", "--p-max", "2")
        assert "p=2 a_p=0: CONFIRMED" in out

    def test_explicit_coefficients_with_skips(self, capsys):
        code, out, _ = run(capsys, "curve", "--a1", "0", "--a2", "0", "--a3", "0",
                           "--a4", "0", "--a6", "1", "--n", "11", "--p-max", "3")
        assert code == 0
        assert "p=2: skipped (bad reduction)" in out
        assert "p=3: skipped (bad reduction)" in out

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "daniels", "--n", "11",
                           "--p-max", "2")
        assert code == 2
        assert "--t" in err

    def test_p_max_past_the_limit_exits_2(self, capsys):
        # counting points at every prime up to 2 * 10^4 takes over 10 s
        start = time.perf_counter()
        code, _, err = run(capsys, "curve", "--family", "daniels", "--t", "3",
                           "--n", "11", "--p-max", "10001")
        assert code == 2 and "p_max must be <=" in err
        assert time.perf_counter() - start < 1

    def test_n_past_the_limit_exits_2(self, capsys):
        # p = 2 divides n, so no verdict is made; n is still checked up front
        code, _, err = run(capsys, "curve", "--family", "daniels", "--t", "3",
                           "--n", "2000000000000000", "--p-max", "2")
        assert code == 2 and f"n must be <= {N_MAX}" in err


    @pytest.mark.parametrize("argv, flag", [
        (["--family", "daniels", "--t", "3", "--a1", "5"], "--a1"),
        (["--family", "uv", "--u", "1", "--v", "2", "--s", "4"], "--s"),
        (["--a1", "0", "--a2", "0", "--a3", "0", "--a4", "0", "--a6", "1", "--t", "7"],
         "--t"),
    ])
    def test_stray_flag_exits_2(self, capsys, argv, flag):
        # a coefficient with --family, another family's parameter, or a
        # family parameter without --family
        code, out, err = run(capsys, "curve", *argv, "--n", "11", "--p-max", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} ")

    def test_safe_prime_n_scan_within_5_s(self, capsys):
        # q - 1 = 2 * 49999999997963 needs trial division to 7 * 10^6
        clear_gl2_caches()
        with interrupt_after(5):
            code, _, _ = run(capsys, "curve", "--family", "daniels", "--t", "3",
                             "--n", SAFE_PRIME, "--p-max", "200")
        assert code == 0

    def test_safe_prime_n_scan_factorizes_q_minus_1_once(self, capsys, monkeypatch):
        clear_gl2_caches()
        factorize, seen = gl2.factorize, []

        def counted(m):
            seen.append(m)
            return factorize(m)
        monkeypatch.setattr(gl2, "factorize", counted)
        code, out, _ = run(capsys, "curve", "--family", "daniels", "--t", "3",
                           "--n", SAFE_PRIME, "--p-max", "13")
        assert code == 0 and out.count("[b=") > 1
        assert seen.count(int(SAFE_PRIME) - 1) == 1

    @pytest.mark.parametrize("argv", [
        ["--a1", "0", "--a2", "0", "--a3", "0", "--a4", "7" * 1501, "--a6", "0",
         "--n", "11", "--p-max", "3"],
        ["--family", "daniels", "--t", "3" * 2201, "--n", "11", "--p-max", "3",
         "--format", "csv"],
    ])
    def test_discriminant_past_the_digit_limit_exits_2(self, capsys, argv):
        # the text line carries disc, which CPython would refuse to print
        code, out, err = run(capsys, "curve", *argv)
        assert (code, out) == (2, "")
        assert "discriminant has more than 4300 digits" in err


class TestTheoremCommands:
    def test_supersingular(self, capsys):
        code, out, _ = run(capsys, "supersingular", "--p", "7")
        assert code == 0
        assert "orders (2, 2)" in out
        assert "obstructed" in out

    def test_supersingular_rejects_small_p(self, capsys):
        code, _, err = run(capsys, "supersingular", "--p", "3")
        assert code == 2
        assert "p > 3" in err

    def test_supersingular_composite_p_says_not_prime(self, capsys):
        # the same words as sigma, test and table
        code, out, err = run(capsys, "supersingular", "--p", "9")
        assert (code, out, err) == (2, "", "error: p = 9 is not prime\n")

    def test_supersingular_past_the_limit_exits_2(self, capsys):
        # the least prime with p + 1 > 10^14
        start = time.perf_counter()
        code, _, err = run(capsys, "supersingular", "--p", "100000000000031")
        assert code == 2 and "n = p + 1 must be <=" in err
        assert time.perf_counter() - start < 1

    def test_corollary(self, capsys):
        code, out, _ = run(capsys, "corollary", "--index", "1")
        assert code == 0
        assert "p=5" in out

    def test_corollary_past_the_limit_exits_2(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "corollary", "--index", str(INDEX_MAX + 1))
        assert code == 2 and "index must be <=" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv, keys", [
        (("supersingular", "--p", "7"),
         ["orders", "num_primes_full", "irred_supply", "obstructed"]),
        (("corollary", "--index", "1"),
         ["prime", "exact_lhs", "irred_supply", "bound_prime"]),
    ])
    def test_json_keys_follow_the_result_fields(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == ["schema_version", "command", "inputs", *keys]


@pytest.mark.parametrize("argv, text_rows", [
    (("table", "--p", "7", "--n-max", "200"), 0),
    (("curve", "--family", "daniels", "--t", "3", "--n", "24", "--p-max", "60"), 0),
    (("test", "--p", "2", "--a", "1", "--b", "1", "--n", "11"), 1),  # its text line
])
def test_verdict_rows_are_built_only_where_printed(capsys, monkeypatch, argv, text_rows):
    # a row computes its supply, so text builds none beyond test's line,
    # and CSV builds each of its rows once
    calls, row = [], cli._verdict_row
    monkeypatch.setattr(cli, "_verdict_row", lambda v: calls.append(v) or row(v))
    assert run(capsys, *argv)[0] == 0 and len(calls) == text_rows
    calls.clear()
    _, out, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and len(calls) == len(rows)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # a CLI process pays for every module its import pulls in; measured
    # against a bare interpreter in the same environment, whose start-up
    # may already have loaded either module
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import sys; before = set(sys.modules); import divmono.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# psi_13: the least strong pseudoprime to the first 13 prime bases, where
# is_prime stops deciding
PSI_13 = 3317044064679887385961981
# Integers at every boundary of the CLI: each limit and one past it. P_MAX
# itself is left out: a valid curve scan to P_MAX takes 1.2-3 s by design,
# past the budget of this whole test. Small integers make valid calls common.
EDGES = [0, 1, -1, 2, N_MAX, N_MAX + 1, INDEX_MAX, INDEX_MAX + 1, P_MAX + 1,
         TABLE_N_MAX, TABLE_N_MAX + 1, TABLE_P_MAX, TABLE_P_MAX + 1, PSI_13]
edge = (st.sampled_from(EDGES) | st.integers(-12, 12)).map(str)
# curve coefficients whose discriminant may pass 4300 digits
coefficient = edge | st.builds(lambda digits, sign: str(sign * (10 ** (digits - 1) + 7)),
                               st.integers(1400, 4300), st.sampled_from([1, -1]))
FORMATS = {"sigma": ("text", "json"), "test": ("text", "csv", "json"),
           "table": ("text", "csv", "json"), "curve": ("text", "csv", "json"),
           "supersingular": ("text", "json"), "corollary": ("text", "json")}


def joined(*parts):
    """One argv list from strategies of argv lists."""
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


def flags(**values):
    return joined(*(value.map(lambda v, flag=f"--{name.replace('_', '-')}": [flag, v])
                    for name, value in values.items()))


# half the (p, a, b) are admissible, so that sigma and test reach a verdict
datum = flags(p=edge, a=edge, b=edge) | st.sampled_from(
    [["--p", str(d.p), "--a", str(d.a_p), "--b", str(d.b_p)]
     for p in (2, 3, 5, 7, 11) for d in enumerate_data(p)])
family = st.sampled_from(sorted(curves.FAMILIES)).flatmap(lambda name: joined(
    st.just(["--family", name]),
    flags(**{param: coefficient for param in curves.FAMILIES[name][1]})))

ARGS = {
    "sigma": datum,
    "test": joined(datum, flags(n=edge, image=st.sampled_from(["full", "index2"]))),
    "table": flags(p=edge, n_max=edge),
    "curve": joined(family | flags(a1=coefficient, a2=coefficient, a3=coefficient,
                                   a4=coefficient, a6=coefficient),
                    flags(n=edge, p_max=edge)),
    "supersingular": flags(p=edge),
    "corollary": flags(index=edge),
}


@pytest.mark.parametrize("command", list(ARGS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exit_code_contract(command, data):
    """Any integers at the boundaries, any format: exit 0, 2 or 3, with no
    exception but argparse's SystemExit(2), within 5 s a call."""
    argv = [command, *data.draw(ARGS[command]),
            "--format", data.draw(st.sampled_from(FORMATS[command]))]
    out, err = io.StringIO(), io.StringIO()
    try:
        with interrupt_after(5), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
        assert code == 2, argv
    assert code in (0, 2, 3), argv
