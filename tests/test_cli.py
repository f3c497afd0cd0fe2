"""Command-line interface: formats, determinism, exit codes."""

import ast
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import oracles
import pytest

import bellgamma
from bellgamma import (cli, kernel, numerics, parser, partition_sum, saddle,
                       sequences, values, verify)
from bellgamma.bell import bell_ladder
from bellgamma.exponents import corollary_exponent

# The environment of a `python -m bellgamma.cli` child: the package is
# found where this process found it, installed or not.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (os.path.dirname(os.path.dirname(bellgamma.__file__)),
                  os.environ.get("PYTHONPATH")))))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_approx_text(capsys):
    code, out, err = run_cli(capsys, "approx", "--a", "3", "--mu", "1",
                             "--n", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "a=3 mu=1 n=2"
    assert lines[1] == "p = 13/2"
    assert lines[2] == "q = 11"
    assert lines[3] == "p/q = 0.5909090909090909090909090909090909090909"
    assert lines[4] == "err_log10 = -1.86349"
    assert lines[5] == "predicted_log10 = -2.28153"


def test_approx_json(capsys):
    code, out, _ = run_cli(capsys, "approx", "--a", "2", "--mu", "1",
                           "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == "1/1" and data["q"] == "2"
    assert data["p_over_q"].startswith("0.5000000000")
    assert data["err_log10"] == pytest.approx(-1.112294584506738)
    assert data["predicted_log10"] == pytest.approx(-1.737177927613007)


def test_approx_second_combination(capsys):
    code, out, _ = run_cli(capsys, "approx", "--a", "3", "--mu", "2",
                           "--n", "1")
    assert code == 0
    assert "p = 18" in out and "q = 2" in out


def test_approx_csv(capsys):
    code, out, _ = run_cli(capsys, "approx", "--a", "2", "--mu", "1",
                           "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"
    assert lines[1].startswith("2,1,3,59,3,34,")


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"
    assert len(lines) == 7
    assert lines[1] == "2,1,0,0,1,1,-0.238662,0"
    assert lines[2].startswith("2,1,1,1,1,2,")
    assert lines[6].startswith("2,1,5,13396,15,1546,")


def test_table_range_step(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "3", "--mu", "1",
                           "--n", "0:9:3")
    assert code == 0
    ns = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert ns == ["0", "3", "6", "9"]


def test_table_qn_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:4", "--qn-ratio")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",qn_ratio")
    # no prediction at n = 0: empty cell
    assert lines[1].endswith(",")
    ratio = float(lines[4].rsplit(",", 1)[1])
    assert 0.5 < ratio < 2.0


def test_table_qn_ratio_reads_each_row_once(capsys, monkeypatch):
    # the ratio column reuses q_n from the row, with no second kernel row
    calls = []
    real = kernel.row
    monkeypatch.setattr(kernel, "row",
                        lambda *args: calls.append(args[:2]) or real(*args))
    code, _, _ = run_cli(capsys, "table", "--a", "3", "--mu", "2",
                         "--n", "10:40:10", "--qn-ratio")
    assert code == 0
    assert calls == [(3, n) for n in (10, 20, 30, 40)]


@pytest.mark.parametrize("a, mu, spec, env", [
    pytest.param(a, mu, spec, None, id="%d-%d-%s" % (a, mu, spec))
    for a, mu, spec in [
        (3, 2, "10:40:10"), (4, 3, "0:241:30"), (2, 1, "7:7"),
        (8, 7, "0:24:6"),
        # rows whose own digits spread from 50 to 93 (json reads ints of
        # up to 4300 digits: n = 1300 is the last that fits at a = 2)
        (2, 1, "100:1300:300")]] + [
    # with BELLGAMMA_DIGITS=120, rows whose own digits spread from 120 to
    # 164
    pytest.param(3, 2, "0:600:100", "120", id="3-2-0:600:100-env120")])
def test_table_builds_its_rows_over_one_harmonic_table(a, mu, spec, env,
                                                       capsys, monkeypatch):
    # every listed row over the harmonic table of the last, measured at
    # the deepest row's digits, with the same reduced p, q and err_log as
    # the row measured on its own at its own digits
    if env is None:
        monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    else:
        monkeypatch.setenv("BELLGAMMA_DIGITS", env)
    calls = []
    real = kernel.harmonic_halves
    monkeypatch.setattr(kernel, "harmonic_halves",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "table", "--a", str(a), "--mu", str(mu),
                           "--n", spec, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert calls == [(a, rows[-1]["n"], mu)]
    args = SimpleNamespace(a=a, mu=mu, digits=None,
                           env_digits=int(env or 50))
    for r in rows:
        one = sequences.convergence_row(
            a, mu, r["n"], sequences._row_digits(args, r["n"]))
        assert (r["p_num"], r["p_den"], r["q"]) == (one.p_num, one.p_den,
                                                    one.q)
        assert r["err_log10"] == one.err_log / numerics.LN10


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "3", "--mu", "2",
                           "--n", "1:3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[0]["p_num"] == 18 and rows[0]["p_den"] == 1
    assert rows[1]["q"] == 11


def test_table_text_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["a", "mu", "n", "p_num", "p_den", "q",
                                "err_log10", "predicted_log10"]
    assert len(lines) == 4


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:3", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0].startswith("a,mu,n,")
    assert len(text.splitlines()) == 5


def test_out_unopenable_is_usage_error(tmp_path, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(sequences, "convergence_row",
                        lambda *args: computed.append(args))
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                             "--n", "0:3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert computed == []  # nothing was computed before the failure


def test_constants_output(capsys):
    code, out, _ = run_cli(capsys, "constants", "--digits", "30",
                           "--zeta-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma = 0.577215664901532860606512090082"
    assert lines[1] == "zeta(2) = 1.644934066848226436472415166646"
    assert lines[2] == "zeta(3) = 1.202056903159594285399738161511"


def test_constants_env_digits(capsys, monkeypatch):
    monkeypatch.setenv("BELLGAMMA_DIGITS", "12")
    code, out, _ = run_cli(capsys, "constants", "--zeta-max", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["name,value", "gamma,0.577215664902",
                                "zeta(2),1.644934066848"]


def test_constants_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("BELLGAMMA_DIGITS", "zero")
    code, _, err = run_cli(capsys, "constants")
    assert code == 2
    assert "BELLGAMMA_DIGITS" in err


@pytest.mark.parametrize("argv", [
    "roots --a 3",
    "asymptotics --a 3",
    "verify --suite bell",
    "constants --digits 30",
    "approx --a 3 --mu 1 --n 5 --digits 30",
])
def test_commands_that_do_not_read_env_digits_ignore_it(argv, capsys,
                                                        monkeypatch):
    # BELLGAMMA_DIGITS is only the default of approx, table and constants:
    # an explicit --digits wins, and the other commands never read it
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    code, want, _ = run_cli(capsys, *argv.split())
    assert code == 0
    monkeypatch.setenv("BELLGAMMA_DIGITS", "zero")
    assert run_cli(capsys, *argv.split()) == (0, want, "")


def test_verify_bell_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bell")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "3/3 checks passed"


def test_verify_tail_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tail",
                           "--digits", "15")
    assert code == 0
    assert out.splitlines()[-1] == "3/3 checks passed"


def test_verify_lemma1_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1",
                           "--a", "3", "--nmax", "5")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"


def test_verify_lemma1_builds_each_f_once(capsys, monkeypatch):
    # n runs outside mu, so one kernel row and one integer F_{n,.} per n
    # serve every mu, with no cache; the SymPoly oracle is never built.
    calls = []
    real = kernel.row
    monkeypatch.setattr(kernel, "row", lambda a, n, halves: calls.append(
        (a, n, len(halves[1]))) or real(a, n, halves))
    f_all = oracles._f_sym_all
    f_all.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1",
                           "--a", "4", "--nmax", "40")
    assert code == 0 and out.splitlines()[-1] == "3/3 checks passed"
    assert calls == [(4, n, 3) for n in range(41)]
    assert f_all.cache_info().misses == 0


@pytest.mark.parametrize("argv, passed, rows", [
    ("verify --suite integrality --a 5 --nmax 30", "5/5", [(5, 30, 4)]),
    ("verify --suite recurrences --nmax 40", "12/12",
     [(2, 40, 1), (3, 40, 2), (4, 40, 3)]),
], ids=["integrality", "recurrences"])
def test_verify_integrality_builds_one_store(argv, passed, rows, capsys,
                                             monkeypatch):
    # one table of scaled harmonic numbers per a serves the rows of q and
    # of every p of that a
    calls = []
    real = kernel.harmonic_halves
    monkeypatch.setattr(kernel, "harmonic_halves",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.splitlines()[-1] == passed + " checks passed"
    assert calls == rows


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(partition_sum, "suite_bell",
                        lambda cfg: [("forced failure", False)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "bell")
    assert code == 1
    assert "FAIL forced failure" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_internal_error_exit_code(capsys, monkeypatch):
    # any other exception is a fault of the program: exit 4 with its
    # traceback on stderr and nothing on stdout, since exit 1 means a
    # failed verification
    def fault(args):
        raise ZeroDivisionError("forced fault")

    monkeypatch.setattr(sequences, "cmd_approx", fault)
    code, out, err = run_cli(capsys, "approx", "--a", "3", "--mu", "2",
                             "--n", "5")
    assert code == 4 and out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nZeroDivisionError: forced fault\n")


def test_oserror_in_a_command_is_internal_error(capsys, monkeypatch):
    # only a failed write of the output is "cannot write output" (exit
    # 2): an OSError the command itself raises is a fault, exit 4 with
    # its traceback, and stdout is left as it was
    def fault(args):
        raise FileNotFoundError(2, "forced fault", "missing.txt")

    monkeypatch.setattr(sequences, "cmd_approx", fault)
    code, out, err = run_cli(capsys, "approx", "--a", "3", "--mu", "2",
                             "--n", "5")
    assert code == 4 and out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nFileNotFoundError: [Errno 2] forced fault: "
                        "'missing.txt'\n")
    print("still written")
    assert capsys.readouterr().out == "still written\n"


def test_each_suite_lives_in_the_module_its_table_names():
    # verify --suite accepts the suites of verify's table, and suite_<name>
    # is defined there and in no other module of the package
    assert (list(verify.SUITES) == list(cli._SUITES)
            == list(verify.SUITE_FLAGS))
    src = os.path.dirname(bellgamma.__file__)
    defined = set()
    for fname in os.listdir(src):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                tree = ast.parse(fh.read())
            defined |= {(fname[:-3], stmt.name) for stmt in tree.body
                        if isinstance(stmt, ast.FunctionDef)
                        and stmt.name.startswith("suite_")}
    assert defined == {(module, "suite_" + name)
                       for name, module in verify.SUITES.items()}
    for name, module in verify.SUITES.items():
        target = importlib.import_module("bellgamma." + module)
        assert callable(getattr(target, "suite_" + name))


def _csc_coefficient_off(real):
    def csc_power_coeffs(m, nmax):
        return [c + Fraction(1, 10 ** 12) * (i == 3)
                for i, c in enumerate(real(m, nmax))]
    return csc_power_coeffs


def _core_coefficient_off(real):
    # c_2 of (z/(e^z - 1))^3 off by one: D more in the row over D
    def _core_row(m, order):
        d, row = real(m, order)
        return d, [c + d * (m == 3 and k == 2) for k, c in enumerate(row)]
    return _core_row


def _rivoal_tap_typo(real):
    # 106 n^2 in the second tap, where Rivoal has 105
    def tap(n):
        return (8 * n + 27) * (24 * n ** 3 + 106 * n ** 2 + 124 * n + 25)

    def make_paper_recurrences():
        specs = real()
        for name in ("rivoal_q", "rivoal_p"):
            c = specs[name].coeffs
            specs[name] = specs[name]._replace(coeffs=(c[0], tap) + c[2:])
        return specs
    return make_paper_recurrences


def _tail_first_term_off(real):
    # the k = 0 term taken as (n+1)^-(a-1), not (n+1)^-a
    def _tail_ratio(a, u, n, digits):
        extra = Fraction((-1) ** (a - 1) * n, (n + 1) ** a)
        total = Fraction(*real(a, u, n, digits)) + extra
        return total.numerator, total.denominator
    return _tail_ratio


def _tail_first_term_n(real):
    # the k = 0 term taken as n^-a, not (n+1)^-a
    def _tail_ratio(a, u, n, digits):
        extra = (-1) ** (a - 1) * (Fraction(1, n ** a)
                                   - Fraction(1, (n + 1) ** a))
        total = Fraction(*real(a, u, n, digits)) + extra
        return total.numerator, total.denominator
    return _tail_ratio


def _harmonic_scale_doubled(real):
    # D returned as 2D, so that p_{n,mu} = D^mu p_{n,mu} / (2D)^mu
    def harmonic_halves(a, n_hi, mu_max):
        d, hi, lo = real(a, n_hi, mu_max)
        return 2 * d, hi, lo
    return harmonic_halves


# Every suite can fail: one small error in one production function, and
# `verify --suite <suite>` prints FAIL on the lines listed (counted from
# 0) and PASS on the others, and exits 1.  Each line of the bernoulli,
# tail and saddle suites fails under one mutant at least.
@pytest.mark.parametrize("suite, module, name, mutant, failing", [
    ("bernoulli", "bernoulli", "csc_power_coeffs", _csc_coefficient_off,
     {5}),
    ("bernoulli", "bernoulli", "_core_row", _core_coefficient_off,
     {0, 1, 3, 4, 5}),
    # B_n^{(m)}(x) taken at x (1 + 10^-12): no longer an Appell sequence
    ("bernoulli", "bernoulli", "bernoulli_at",
     lambda real: lambda n, m, x: real(n, m, x * Fraction(10 ** 12 + 1,
                                                          10 ** 12)),
     {0, 1, 2, 3, 4, 5}),
    ("recurrences", "recurrences", "make_paper_recurrences", _rivoal_tap_typo,
     None),
    ("recurrences", "kernel", "weights",
     lambda real: lambda a, n: [w + (k == 1)
                                for k, w in enumerate(real(a, n))],
     None),
    # the tables' common denominator wrong: only the inhomogeneous
    # relations a2_p1, a3_p2 and a4_p3 see it
    ("recurrences", "kernel", "harmonic_halves", _harmonic_scale_doubled,
     {4, 7, 11}),
    ("integrality", "kernel", "harmonic_halves", _harmonic_scale_doubled,
     None),
    ("lemma1", "lemma1", "_deriv_coeff",
     lambda real: lambda a, m: real(a, m) + (m == 2), None),
    ("bell", "bell", "_binomials",
     lambda real: lambda j: (1, 4, 7, 4, 1) if j == 4 else real(j), None),
    ("tail", "tail", "_tail_ratio", _tail_first_term_off, {0, 1, 2}),
    ("tail", "tail", "_tail_ratio", _tail_first_term_n, {0, 1, 2}),
    ("saddle", "saddle", "saddle_roots",
     lambda real: lambda a, u, n: [
         r._replace(re=r.re + 1e-7 * (k == 0))
         for k, r in enumerate(real(a, u, n))],
     {0, 1, 2}),
], ids=["csc-coefficient", "core-power", "bernoulli-argument", "rivoal-tap",
        "kernel-weight", "recurrence-scale", "harmonic-scale",
        "lemma1-coefficient", "bell-binomial", "tail-first-term",
        "tail-first-term-n-power", "saddle-root"])
def test_every_suite_can_fail(suite, module, name, mutant, failing, capsys,
                              monkeypatch):
    target = importlib.import_module("bellgamma." + module)
    monkeypatch.setattr(target, name, mutant(getattr(target, name)))
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1 and "\nFAIL " in "\n" + out
    if failing is not None:
        lines = out.splitlines()[:-1]
        assert {i for i, line in enumerate(lines)
                if line.startswith("FAIL ")} == failing, out


def test_asymptotics_json(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "--a", "4", "--kind",
                           "corollary", "--n", "100", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["b"] == ["-4", "-3/2", "-5/8", "-1/4"]
    assert rows[0]["value_at_n"] == pytest.approx(-98.4675299443404)


def test_asymptotics_all_kinds_csv(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "--a", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,kind,m,b_m"
    assert lines[1] == "3,theorem-linear-form,1,-3"
    assert len(lines) == 10


def test_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "--a", "2", "--u", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,re,im,residual_over_n,seed_distance"
    assert len(lines) == 3
    for line in lines[1:]:
        k, re, im, res, dist = line.split(",")
        assert abs(float(re) - 1.0) < 0.01
        assert float(res) < 1e-10


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--a", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all("re" in r and "im" in r for r in rows)


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "approx", "--a", "9", "--mu", "1",
                           "--n", "2")
    assert code == 2 and "--a out of range" in err
    code, _, err = run_cli(capsys, "approx", "--a", "3", "--mu", "3",
                           "--n", "2")
    assert code == 2 and "mu" in err
    code, _, err = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "5:1")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:10:0")
    assert code == 2
    code, _, err = run_cli(capsys, "roots", "--a", "3", "--u", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "roots", "--a", "3", "--n", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    # flags these commands never read: argparse rejects them
    "verify --suite tail --format json",
    "roots --a 3 --digits 30",
    "asymptotics --a 3 --digits 30",
    # flags verify has, but this suite never reads
    "verify --suite tail --nmax 5",
    "verify --suite tail --a 4",
    "verify --suite recurrences --a 4",
    "verify --suite recurrences --digits 40",
    "verify --suite lemma1 --digits 40",
    "verify --suite integrality --digits 40",
    "verify --suite bernoulli --nmax 5",
    "verify --suite bell --a 3",
    "verify --suite saddle --digits 40",
])
def test_unread_flags_are_usage_errors(argv, capsys):
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert ("unrecognized arguments" in err
            or err.startswith("error: --%s is not read by the %s suite"
                              % (argv.split()[-2][2:], argv.split()[2])))


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["nothere"])


# sha256 of "code\0stdout\0stderr" with COLUMNS=80, as argparse printed
# them when it parsed every command line: help, usage and the exit code
# must not change by a byte.
PARSER_DIGESTS = {
    "--help":
        "ab516fda7dd7fcc5880976cbe0dd9db6e3018fc82b14a0ad394ecadcf7f16744",
    "approx --help":
        "24fcad4c65c643eeb6ce94ed2e53fc11d632565aeab5bc68ad77d7b6af878ab0",
    "table --help":
        "7653f7d176c6f51dd2ded36372687ee37e97c95ff4cc281490e4229504c99324",
    "verify --help":
        "176da61840d6af911bf3a6996008884dd6966ebb227096d67a7c32d1c83a28b0",
    "constants --help":
        "8130f8f2a03bcc1356ad0e8a58440c2cfad073a902c576b028400e1a1df0fe1b",
    "asymptotics --help":
        "296a3bad781146037be9d1da24f81f356c6d668cab431e65d67cf7818f1f8c2c",
    "roots --help":
        "0698bbd46ecbc37cc6ced5fe628a0a037d78543b6458d57dbd64d39d29fe9657",
    "": "699dc3a51c2773f7611388fe3bef3fb004e5721b1f58b92dbc1a667a1ce0fd04",
    "nothere":
        "994d93b696db45fd9417e36287d7e5f9c30fd37d899fe8301d0d827dcd015866",
    "approx --a 3 --mu 1":
        "35ebd50f4b9a0c054f029b35a220c165d91c4d9a81f7fa189ffa48a0b821be87",
    "approx --a x --mu 1 --n 5":
        "c09efa630acac99af4ccdb3ecbe65b1036951cbdb34ebbefcd64f53d4689c83b",
    "verify --suite nonsense":
        "70856cdf29abbcbb4f1c066c2da4b0b8d161e1979a6ec798e5900621e8399133",
    "roots --a 3 --digits 30":
        "6379909e4ab1287e81e18ec364c2492e54c05d882a74f63d46d964b0a379a73b",
    "approx --a 3 --mu 1 --n 5 --bogus":
        "467a1eea2e4453245733e37cf87939cc8e6d87c2c75f73a5a08e85d857fe3123",
    "table --a 2 --mu 1 --n 0:5 --format xml":
        "3b6aef0009e9e58bef9b6d0c69f95a8516e0483b276983686b47d243ea739dad",
    "approx --a 3 --mu 1 --n " + "9" * 5000:
        "d6fd5ab5df51f6b830568369ffefda92d7915b9f2957413050374e9a7ba4fbf1",
}


@pytest.mark.parametrize("argv", sorted(PARSER_DIGESTS),
                         ids=lambda argv: argv[:40] or "(none)")
def test_parser_digests_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    digest = hashlib.sha256(("%s\0%s\0%s" % (code, out, err)).encode())
    assert digest.hexdigest() == PARSER_DIGESTS[argv]


@pytest.mark.parametrize("argv, canonical", [
    ("approx --a=3 --mu 1 --n 5", "approx --a 3 --mu 1 --n 5"),
    ("approx --a 3 --mu 1 --n 5 --dig 30",
     "approx --a 3 --mu 1 --n 5 --digits 30"),
    ("constants --dig 30", "constants --digits 30"),
    ("approx --a 3 --mu 1 --n 4 --n 5", "approx --a 3 --mu 1 --n 5"),
])
def test_argparse_spellings_print_the_canonical_output(argv, canonical,
                                                       capsys):
    # spellings argparse accepts beyond one exact flag and one value each
    assert run_cli(capsys, *argv.split()) == run_cli(capsys,
                                                     *canonical.split())


def test_precision_exit_code(capsys):
    code, _, err = run_cli(capsys, "approx", "--a", "3", "--mu", "1",
                           "--n", "50", "--digits", "2")
    assert code == 3
    assert err.startswith("precision failure")
    # the message names the row that failed and its working digits; the
    # difference lies within its radius, so the digits suggested are
    # those that resolve the predicted error
    assert "a=3 mu=1 n=50" in err and "22 digits" in err
    assert err.rstrip().endswith(
        "raise digits to %d" % sequences.auto_digits(
            corollary_exponent(3, 50)))


@pytest.mark.parametrize("argv", [
    "approx --a 3 --mu 1 --n 39 --digits 1",
    "approx --a 3 --mu 2 --n 33 --digits 3",
    "approx --a 2 --mu 1 --n 100 --digits 2",
    "table --a 3 --mu 2 --n 0:1000:250 --digits 40",
])
def test_precision_failure_names_digits_that_pass(argv, capsys):
    # The difference is resolved but its radius is too wide for err_log:
    # the message names the least digits that pass, and they do.  A
    # table names the most that any of its failing rows needs, so one
    # retry passes every row.
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    head, _, digits = err.rstrip().rpartition(" raise digits to ")
    assert head.startswith("precision failure: ")
    args = argv.split()
    args[args.index("--digits") + 1] = digits
    code, _, err = run_cli(capsys, *args)
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    "approx --a 2 --mu 1 --n 400 --digits 5",
    "table --a 4 --mu 2 --n 0:100:100 --digits 10",
])
def test_difference_within_radius_names_the_predicted_digits(argv, capsys,
                                                             monkeypatch):
    # The difference is at most its radius, so no k passes from it: the
    # message names auto_digits of the failing row's prediction, and the
    # request passes at those digits.
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    match = re.fullmatch(r"precision failure: a=(\d+) mu=\d+ n=(\d+): "
                         r"difference of (\d+) units at \d+ digits, "
                         r"radius (\d+); raise digits to (\d+)\n", err)
    a, n, units, radius, digits = map(int, match.groups())
    assert units <= radius
    assert digits == sequences.auto_digits(corollary_exponent(a, n))
    args = argv.split()
    args[args.index("--digits") + 1] = str(digits)
    code, _, err = run_cli(capsys, *args)
    assert code == 0 and err == ""


def test_table_a8_at_two_digits_is_certified(capsys, monkeypatch):
    # The widest radius, a = 8 and mu = 7, still certifies every row at
    # two digits, and each err_log10 matches mpmath.
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    code, out, err = run_cli(capsys, "table", "--a", "8", "--mu", "7",
                             "--n", "0:40:1", "--digits", "2",
                             "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(41))
    with mpmath.workdps(80):
        alpha = bell_ladder([mpmath.euler] + [
            math.factorial(m - 1) * (8 + (-1) ** m * 7) * mpmath.zeta(m)
            for m in range(2, 8)])[7]
        for r in rows:
            ratio = mpmath.mpf(r["p_num"]) / r["p_den"] / r["q"]
            true = float(mpmath.log10(abs(alpha - ratio)))
            assert abs(r["err_log10"] - true) <= 1e-6 * max(1, abs(true))


@pytest.mark.parametrize("argv", [
    "approx --a 8 --mu 1 --n 55083",
    "table --a 8 --mu 1 --n 0:55083:55083",
    "approx --a 3 --mu 1 --n " + str(10 ** 22),
    "approx --a 3 --mu 1 --n " + str(10 ** 400),
    # with --digits, past 2 * 10000 digits: these ended in lcm_upto's
    # OverflowError (exit 1) once n reached 2^63
    "approx --a 3 --mu 1 --n 9223372036854775808 --digits 50",
    "table --a 3 --mu 1 --n 0:9223372036854775808 --digits 50",
    "approx --a 8 --mu 7 --n " + str(10 ** 400) + " --digits 9980",
    # the last row is checked first, so a huge range is never listed
    "table --a 3 --mu 1 --n 0:" + str(10 ** 22),
])
def test_rows_past_the_digit_limit_fail_before_any_row(argv, capsys,
                                                       monkeypatch):
    # auto digits past 9980, explicit digits whose row needs more than
    # twice the oracles' limit, or a predicted exponent past a double,
    # exit 3 before the kernel builds a row that could not be measured
    def no_row(*args):
        raise AssertionError("kernel row built: %r" % (args[:2],))

    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    monkeypatch.setattr(kernel, "row", no_row)
    words = argv.split()
    code, out, err = run_cli(capsys, *words)
    n = words[words.index("--n") + 1].split(":")[-1]
    assert code == 3 and out == ""
    assert err.startswith("precision failure: a=%s mu=%s n=%s: "
                          % (words[2], words[4], n))
    assert "digits, more than the 9980" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int->str digit limit in this Python")
def test_numbers_past_the_int_str_limit_are_usage_errors(capsys):
    # argparse cannot read an int longer than the limit: exit 2, not a
    # traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--a", "3", "--mu", "1", "--n", "9" * 5000])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # each exited 1 with a traceback before --n was range-checked
    ("roots", "--a", "8", "--u", "3", "--n", str(10 ** 300)),
    ("roots", "--a", "2", "--u", "0", "--n", str(10 ** 300)),
    ("asymptotics", "--a", "3", "--kind", "corollary", "--n", str(10 ** 400)),
    # log n! overflows a double, and the default kinds include theorem-qn
    ("asymptotics", "--a", "3", "--n", str(10 ** 306)),
    ("asymptotics", "--a", "5", "--kind", "theorem-qn", "--n", str(10 ** 306)),
])
def test_large_n_is_usage_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --n ")


def test_asymptotics_large_n_in_range(capsys):
    # log n! is lgamma(n + 1), so theorem-qn at 10^7 returns at once,
    # and the other kinds reach 10^306
    code, out, _ = run_cli(capsys, "asymptotics", "--a", "3", "--kind",
                           "theorem-qn", "--n", str(10 ** 7))
    assert code == 0
    n = 10 ** 7  # the closed form of test_qn_log_asymptotic_a3_closed_form
    want = (math.lgamma(n + 1) + 3 * n ** (2 / 3) - n ** (1 / 3) + 1 / 3
            - (2 / 3) * math.log(n) - 0.5 * math.log(3)
            - math.log(2 * math.pi))
    assert math.isclose(json.loads(out)[0]["value_at_n"], want,
                        rel_tol=1e-12)
    for kind in ("corollary", "theorem-linear-form"):
        code, out, _ = run_cli(capsys, "asymptotics", "--a", "3", "--kind",
                               kind, "--n", str(10 ** 306))
        assert code == 0 and math.isfinite(json.loads(out)[0]["value_at_n"])


def test_sweep_rows_never_take_the_full_scale_ln(capsys, monkeypatch):
    # err_log is printed as a double, so BigFix.ln_float settles every row
    # of these benchmark requests at 40 working digits
    import importlib.util
    import itertools
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def full_ln(x):
        raise AssertionError("BigFix.ln called at scale %d" % x.scale)

    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    monkeypatch.setattr(numerics.BigFix, "ln", full_ln)
    for argv in itertools.islice(workloads.requests("sweep", 1), 60):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv


def test_roots_refine_up_to_n_max():
    # the bound roots accepts: every a and u still refine at it
    from bellgamma.saddle import root_report
    n = saddle._ROOTS_N_MAX
    for a in range(2, 9):
        for u in range(-a, a + 1):
            assert len(root_report(a, u, n)) == a


def test_row_digits_leave_room_for_guard(capsys, monkeypatch):
    # approx and table evaluate at digits + 20, so 9981 and up would fail
    # in the oracles (exit 3) after the row was computed
    code, out, err = run_cli(capsys, "approx", "--a", "2", "--mu", "1",
                             "--n", "10", "--digits", "10000")
    assert (code, out, err) == (2, "", "error: --digits out of range 1..9980\n")
    code, _, err = run_cli(capsys, "table", "--a", "2", "--mu", "1",
                           "--n", "0:3", "--digits", "9981")
    assert code == 2 and "--digits" in err
    monkeypatch.setenv("BELLGAMMA_DIGITS", "9981")
    code, _, err = run_cli(capsys, "approx", "--a", "2", "--mu", "1",
                           "--n", "3")
    assert code == 2 and "BELLGAMMA_DIGITS" in err
    monkeypatch.setenv("BELLGAMMA_DIGITS", "10000")
    args = parser.build_parser(cli._FLAGS).parse_args(
        ["constants", "--digits", "10000"])
    cli._check_args(args)  # constants keeps the oracles' full range


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int->str digit limit in this Python")
def test_main_restores_int_str_limit(capsys):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        for argv in (["constants", "--digits", "20"],
                     ["approx", "--a", "9", "--mu", "1", "--n", "2"],
                     ["approx", "--a", "3", "--mu", "1", "--n", "50",
                      "--digits", "2"]):
            run_cli(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            cli.main(["nothere"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [
    ["approx", "--a", "3", "--mu", "2", "--n", "100"],
    ["table", "--a", "4", "--mu", "3", "--n", "0:200:40"],
])
def test_rows_compute_each_constant_once(argv, capsys, monkeypatch):
    # Every row is measured against one computation of each constant,
    # made at the deepest precision needed.
    computed = []  # (digits,) for gamma, (m, digits) for zeta(m)
    for name in ("_gamma_mantissa", "_zeta_mantissa"):
        def counted(*args, fn=getattr(numerics, name)):
            computed.append(args)
            return fn(*args)
        monkeypatch.setattr(numerics, name, counted)
    code, _, _ = run_cli(capsys, *argv)
    mu = int(argv[argv.index("--mu") + 1])
    assert code == 0
    assert [c[:-1] for c in computed] == [()] + [(m,) for m in range(2, mu + 1)]
    assert len({c[-1] for c in computed}) == 1


def test_rows_evaluate_once(capsys, monkeypatch):
    # one p/q rounding and one logarithm per row, and one alpha ladder
    # for all of them
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    from_ratio = numerics.BigFix.from_ratio
    monkeypatch.setattr(numerics.BigFix, "from_ratio", staticmethod(
        counted("from_ratio", from_ratio)))
    monkeypatch.setattr(numerics.BigFix, "ln_float", counted(
        "ln_float", numerics.BigFix.ln_float))
    monkeypatch.setattr(sequences, "bell_ladder", counted(
        "ladder", sequences.bell_ladder))
    code, out, _ = run_cli(capsys, "table", "--a", "5", "--mu", "4",
                           "--n", "0:100:20")
    assert code == 0 and len(out.splitlines()) == 7
    assert sorted(calls) == (["from_ratio"] * 6 + ["ladder"]
                             + ["ln_float"] * 6)


def test_subprocess_determinism():
    cmd = [sys.executable, "-m", "bellgamma.cli", "table", "--a", "3",
           "--mu", "2", "--n", "0:12:4"]
    one = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, check=True)
    two = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, check=True)
    assert one.stdout == two.stdout
    assert one.stdout.decode().count("\n") == 5


def test_approx_past_int_str_limit():
    # q_1548 for a = 2 has 4301 digits, one past Python's default limit
    env = dict(CHILD_ENV)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    out = subprocess.run(
        [sys.executable, "-m", "bellgamma.cli", "approx", "--a", "2",
         "--mu", "1", "--n", "1548"], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    line = out.stdout.splitlines()[2]
    assert line.startswith("q = ")
    digits = line[len("q = "):]
    assert len(digits) == 4301
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == values.q_at(2, 1548)


# Each command loads only what it runs.  random and typing are left out:
# `site` may load them before the package is imported.  No command loads
# json (common._json prints it), and no well-formed command line loads
# argparse or what it loads to print messages, nor the fallback module
# that builds the argparse parser (cli._read_argv reads it).
_PARSER = {"bellgamma.parser", "argparse", "gettext", "locale"}
_NEVER = {"bellgamma.verify", "bellgamma.bernoulli", "dataclasses",
          "logging"} | _PARSER
# BigFix and the constants load only for approx, table and constants:
# the tail suite rounds its sums from integer pairs
_NO_BIGFIX = {"bellgamma.numerics"}
# fractions and the modules it loads: only the commands that print or
# check a Fraction load them
_NO_FRACTIONS = {"fractions", "decimal", "numbers"}
# approx and table run the q/p rows and the convergence measurement only;
# alpha_mu is a Bell ladder over the BigFix constants, not a SymPoly, and
# p_{n,mu} an integer pair.
_ROWS = {"bellgamma.sequences", "bellgamma.kernel", "bellgamma.bell",
         "bellgamma.exponents"}
_ROWS_NEVER = _NEVER | _NO_FRACTIONS | {
    "bellgamma.recurrences", "bellgamma.lemma1", "bellgamma.tail",
    "bellgamma.symring", "bellgamma.saddle", "bellgamma.asymptotics",
    "bellgamma.partition_sum", "bellgamma.constants", "cmath"}
# approx runs one row; only table loads the table command
_APPROX_NEVER = _ROWS_NEVER | {"bellgamma.table"}
_TABLE = _ROWS | {"bellgamma.table"}
# asymptotics and roots work in double precision from their own series
_FLOAT_NEVER = {"bellgamma.sequences", "bellgamma.bernoulli"} | _NO_BIGFIX
# roots and the saddle suite take c_m as integer pairs
_ROOTS_NEVER = _FLOAT_NEVER | _NO_FRACTIONS | {"bellgamma.asymptotics"}
_ROOTS = {"bellgamma.exponents", "bellgamma.saddle"}


@pytest.mark.parametrize("argv, absent, present", [
    ("approx --a 3 --mu 1 --n 5",
     _NEVER | _NO_FRACTIONS | {"bellgamma.saddle", "bellgamma.asymptotics",
                               "bellgamma.table"},
     {"bellgamma.sequences"}),
    ("constants --digits 30",
     _NEVER | _NO_FRACTIONS
     | {"bellgamma.sequences", "bellgamma.symring", "bellgamma.kernel",
        "bellgamma.bell", "bellgamma.asymptotics", "bellgamma.exponents",
        "bellgamma.table", "json"},
     {"bellgamma.numerics", "bellgamma.constants"}),
    ("verify --suite bell",
     {"dataclasses", "logging", "json", "bellgamma.bernoulli",
      "bellgamma.sequences", "bellgamma.kernel", "bellgamma.symring",
      "bellgamma.asymptotics"} | _NO_BIGFIX,
     {"bellgamma.verify", "bellgamma.bell", "bellgamma.partition_sum"}),
    ("table --a 3 --mu 2 --n 0:20:10",
     _NO_FRACTIONS | {"bellgamma.lemma1", "bellgamma.verify",
                      "bellgamma.saddle", "bellgamma.asymptotics"},
     {"bellgamma.sequences", "bellgamma.table"}),
    ("verify --suite lemma1 --a 3 --nmax 2",
     {"dataclasses", "logging"} | _NO_BIGFIX,
     {"bellgamma.lemma1", "fractions"}),
    ("verify --suite saddle", _ROOTS_NEVER, _ROOTS),
    ("verify --suite bernoulli",
     {"bellgamma.sequences", "bellgamma.kernel"} | _NO_BIGFIX,
     {"bellgamma.bernoulli"}),
    ("approx --a 4 --mu 3 --n 100", _APPROX_NEVER, _ROWS),
    ("table --a 2 --mu 1 --n 0:40:20 --qn-ratio", _ROWS_NEVER, _TABLE),
    ("verify --suite tail --digits 30",
     _NO_FRACTIONS | _NO_BIGFIX | {"bellgamma.symring", "bellgamma.kernel",
                                   "bellgamma.bell", "bellgamma.sequences"},
     {"bellgamma.tail"}),
    ("verify --suite recurrences --nmax 8",
     {"bellgamma.symring", "bellgamma.sequences", "bellgamma.bernoulli"}
     | _NO_BIGFIX | _NO_FRACTIONS,
     {"bellgamma.recurrences"}),
    ("asymptotics --a 5 --n 1000", _FLOAT_NEVER,
     {"bellgamma.asymptotics"}),
    ("roots --a 3", _ROOTS_NEVER, _ROOTS),
    ("verify --suite lemma1 --a 4 --nmax 3",
     {"bellgamma.sequences"} | _NO_BIGFIX, {"bellgamma.lemma1"}),
    ("verify --suite integrality --a 3 --nmax 5",
     {"bellgamma.sequences", "bellgamma.symring"} | _NO_BIGFIX
     | _NO_FRACTIONS,
     {"bellgamma.kernel"}),
    ("constants --digits 20 --zeta-max 3",
     {"bellgamma.sequences", "bellgamma.bell"} | _NO_FRACTIONS,
     {"bellgamma.numerics", "bellgamma.constants"}),
    ("approx --a 3 --mu 2 --n 40 --format csv", _APPROX_NEVER, _ROWS),
    ("approx --a 3 --mu 2 --n 40 --format json", _APPROX_NEVER, _ROWS),
    ("table --a 3 --mu 1 --n 0:40:20 --format text", _ROWS_NEVER, _TABLE),
    ("table --a 4 --mu 2 --n 0:40:20 --qn-ratio --format json",
     _ROWS_NEVER, _TABLE),
    ("roots --a 5 --u 2 --format json", _ROOTS_NEVER, _ROOTS),
    ("asymptotics --a 4 --format json",
     {"bellgamma.saddle", "cmath"} | _NO_BIGFIX,
     {"bellgamma.asymptotics"}),
])
def test_command_loads_only_what_it_runs(argv, absent, present):
    code, err, loaded = _modules_after(argv)
    assert code == 0 and err == ""
    assert not loaded & (absent | {"json", "bellgamma.cli"} | _PARSER)
    assert present <= loaded


def _run_as_main(argv: str):
    """(exit code, stdout, stderr, the modules loaded) of one run of the
    front end as `python -m bellgamma.cli` runs it, as __main__: a
    module importing bellgamma.cli would compile it a second time."""
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('bellgamma.cli', run_name='__main__',\n"
             "                     alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "sys.stdout.write('\\n' + ' '.join(sys.modules) + '\\n')\n"
             "sys.exit(code)\n")
    out = subprocess.run([sys.executable, "-c", probe] + argv.split(),
                         env=CHILD_ENV, capture_output=True, text=True)
    text, _, loaded = out.stdout[:-1].rpartition("\n")
    return out.returncode, text, out.stderr, set(loaded.split())


def _modules_after(argv: str):
    """(exit code, stderr, the modules loaded) of _run_as_main(argv)."""
    code, _, err, loaded = _run_as_main(argv)
    return code, err, loaded


# No approx or table request compiles a function it cannot call: the
# partition-sum oracle, the argparse fallback, the constants command,
# the linear-form exponent, the library's q/p values and the checks of
# the commands that are neither are defined in modules neither loads,
# and the table command in one approx does not load.
_ROWS_UNCALLED = {"bell_eval_partitions", "partitions",
                  "partition_multinomial", "build_parser", "cmd_constants",
                  "linform_exponent", "q_seq", "p_seq", "q_at", "p_at",
                  "check_verify", "check_constants", "check_asymptotics",
                  "check_roots"}


@pytest.mark.parametrize("argv, uncalled", [
    ("approx --a 5 --mu 3 --n 60 --format json",
     _ROWS_UNCALLED | {"cmd_table"}),
    ("approx --a 2 --mu 1 --n 30 --format csv",
     _ROWS_UNCALLED | {"cmd_table"}),
    ("table --a 4 --mu 3 --n 0:240:30", _ROWS_UNCALLED),
    ("table --a 3 --mu 2 --n 0:40:20 --qn-ratio --format text",
     _ROWS_UNCALLED),
])
def test_rows_compile_no_function_they_cannot_call(argv, uncalled):
    code, err, loaded = _modules_after(argv)
    assert code == 0 and err == ""
    # the front end runs as __main__, so its file is not under its name
    paths = [cli.__file__] + [importlib.util.find_spec(name).origin
                              for name in loaded
                              if name.split(".")[0] == "bellgamma"]
    defined = set()
    for path in paths:
        with open(path) as fh:
            defined |= {stmt.name for stmt in ast.parse(fh.read()).body
                        if isinstance(stmt, ast.FunctionDef)}
    assert not defined & uncalled


@pytest.mark.parametrize("argv, message", [
    ("verify --suite tail --a 3", "--a is not read by the tail suite"),
    ("verify --suite integrality --nmax -1", "--nmax must be nonnegative"),
    ("verify --suite recurrences --nmax 5",
     "--nmax too small for the recurrence suite"),
    ("constants --zeta-max 30", "--zeta-max out of range 2..20"),
    ("asymptotics --a 3 --n 0", "--n must be positive"),
    ("asymptotics --a 3 --kind corollary --n %d" % 10 ** 309,
     "--n out of range 1..1.79769e+308"),
    ("asymptotics --a 3 --n %d" % 10 ** 306,
     "--n too large for theorem-qn: log n! overflows a double"),
    ("roots --a 3 --u 4", "--u must satisfy |u| <= a"),
    ("roots --a 3 --n 10", "--n must be at least 1000"),
    ("roots --a 3 --n %d" % (10 ** 63 + 1), "--n must be at most 10^63"),
    ("approx --a 3 --mu 1 --n -1", "--n must be nonnegative"),
    ("table --a 3 --mu 1 --n 5:2",
     "n range must be ascending and nonnegative"),
    ("table --a 3 --mu 1 --n 0:x",
     "bad n range '0:x'; expected start:stop[:step]"),
])
def test_command_check_fails_before_out_file(argv, message, tmp_path,
                                             capsys):
    # each command's own checks run before --out is opened: exit 2 with
    # the message alone, and no file
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(target))
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert not target.exists()


def test_abbreviated_flag_reads_through_the_fallback():
    # --form is read by argparse, from the fallback module, to the
    # namespace --format gives, so the output is byte for byte the same
    code, out, err, loaded = _run_as_main(
        "approx --a 3 --mu 2 --n 40 --form json")
    assert code == 0 and err == ""
    assert {"bellgamma.parser", "argparse"} <= loaded
    direct = _run_as_main("approx --a 3 --mu 2 --n 40 --format json")
    assert direct[:3] == (0, out, "") and not direct[3] & _PARSER


@pytest.mark.parametrize("argv, exit_code", [
    ("approx --a 3 --mu 2 --n 40", 0), ("approx --a 9 --mu 2 --n 40", 2)])
def test_process_exit_freezes_the_collector(capsys, argv, exit_code):
    # run as __main__, the front end exits by SystemExit with main's code
    # after gc.freeze(), so the collections at interpreter exit have
    # nothing to traverse; main called in process leaves the collector
    # of its caller as it was
    probe = ("import gc, runpy\n"
             "try:\n"
             "    runpy.run_module('bellgamma.cli', run_name='__main__',\n"
             "                     alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    print(exc.code, gc.get_freeze_count())\n")
    out = subprocess.run([sys.executable, "-c", probe] + argv.split(),
                         env=CHILD_ENV, capture_output=True, text=True)
    assert out.returncode == 0
    code, frozen = map(int, out.stdout.splitlines()[-1].split())
    assert code == exit_code and frozen > 0
    before = gc.get_freeze_count()
    assert run_cli(capsys, *argv.split())[0] == exit_code
    assert gc.get_freeze_count() == before


def test_console_script_runs_what_the_main_block_runs():
    # the bellgamma script and `python -m bellgamma.cli` exit by the same
    # function of the front end, called with no argument
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    block, = [stmt for stmt in tree.body if isinstance(stmt, ast.If)
              and ast.unparse(stmt.test) == "__name__ == '__main__'"]
    stmt, = block.body
    call = stmt.value
    assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    assert not call.args and not call.keywords
    assert scripts == {"bellgamma": "bellgamma.cli:" + call.func.id}


@pytest.mark.parametrize("argv", [
    "approx --a 9 --mu 1 --n 5", "approx --a 3 --mu 3 --n 5",
    "approx --a 3 --mu 1 --n -1", "approx --a 3 --mu 1 --n 5 --digits 9990",
    "table --a 9 --mu 1 --n 0:5", "table --a 3 --mu 1 --n 5:2",
    "table --a 3 --mu 1 --n 0:5 --digits 0",
])
def test_usage_errors_load_only_the_front_end(argv):
    # the range checks, --digits against the row guard too, need common
    # alone; the front end itself runs as __main__, not as bellgamma.cli
    code, err, loaded = _modules_after(argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert {m for m in loaded if m.startswith("bellgamma")} == {
        "bellgamma", "bellgamma.common"}
    assert not loaded & (_PARSER | {"fractions"})


def test_importing_cli_loads_no_parser():
    # the front end loads module common alone: no command code, no
    # BigFix, and neither fractions nor what it loads
    probe = "import sys, bellgamma.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV,
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    loaded = set(out.stdout.split())
    assert "bellgamma.cli" in loaded and not loaded & (_PARSER | {"json"})
    assert {m for m in loaded if m.startswith("bellgamma")} == {
        "bellgamma", "bellgamma.cli", "bellgamma.common"}
    assert not loaded & {"fractions", "decimal", "__future__"}


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, to_stdout", [
    ("approx --a 3 --mu 2 --n 10", True),
    ("constants --digits 20 --out /dev/full", False),
    ("constants --digits 3000 --zeta-max 4", True),  # past the buffer
])
def test_write_failure_is_usage_error(argv, to_stdout):
    # a full disk or a closed pipe is exit 2 with one line, no traceback:
    # exit 1 means a failed verification.  Buffered stdout keeps the text
    # it could not write, so is tried buffered and unbuffered.
    for unbuffered in ("", "1"):
        for sink in ("full", "pipe") if to_stdout else ("null",):
            if sink == "pipe":  # the reader has gone before the write
                read_end, fd = os.pipe()
                os.close(read_end)
            else:
                fd = os.open("/dev/full" if sink == "full" else os.devnull,
                             os.O_WRONLY)
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "bellgamma.cli"] + argv.split(),
                    env=dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered),
                    stdout=fd, stderr=subprocess.PIPE, text=True)
            finally:
                os.close(fd)
            case = (sink, unbuffered, out.stderr)
            assert out.returncode == 2, case
            assert out.stderr.startswith("error: cannot write output: "), case
            assert out.stderr.count("\n") == 1, case


# sha256 of stdout as printed by earlier versions of the package, with
# BELLGAMMA_DIGITS unset: the first 14 when every single value was read
# from an O(n^2) table, the next 25 before `kernel` and `cli` lost their
# pass-through layers, the next while lemma 1 was still checked over
# Fraction, the next while the constants were Euler-Maclaurin sums, the
# next two while lemma 1 built each row twice, the next two while
# err_log was taken at the full working scale and json printed by
# json.dumps, the next three while each row was evaluated at two guard
# scales and main lifted Python's int->str limit, and the last four
# while p_{n,mu}, c_m and b_m(a) were computed as Fractions.  Refactors
# must not change a byte.  The exceptions: `verify --suite recurrences --nmax
# 120`, pinned since its one Rivoal line compares p_n/q_n with gamma,
# where two lines had compared the recurrence with its own values;
# `verify --suite tail`, pinned since its lines bound the first term
# two-sided, where they had bounded |sum| by e/(n+1)^a; and the roots
# lines but `roots --a 2 --u 2 --format json`, pinned since Newton's
# iteration stops at the rounding level of p(t), where it had stopped at
# |p(t)| < 1e-10 n, often at the seed (every printed digit now agrees
# with mpmath).
OUTPUT_DIGESTS = {
    "table --a 2 --mu 1 --n 0:200:25":
        "ab6f72a1adbccc505348b1153c139e151f48901f1332dda05378272096dc0cc7",
    "table --a 2 --mu 1 --n 150:300:30 --format json":
        "e9b360f60582e3cec7dad0c2ffbf8ec252048ca619c14934d3d26c6a3f41387e",
    "table --a 3 --mu 1 --n 0:160:20 --format csv":
        "938c4e01dbe5f38f34c5081ea053804e1b77f9c37723107e558afefa57e4c03a",
    "table --a 3 --mu 2 --n 0:1000:100":
        "565e05378f48cae19f5eea7cb46ebdbe75bb5d7f6a6d5c14ac09e23efc76b5c7",
    "table --a 3 --mu 2 --n 90:180:15 --qn-ratio":
        "322cdfd431c865131c12579aebdeca0055c4dc78f2ac9fb1b58a054c52e9f45e",
    "table --a 4 --mu 3 --n 0:120:15 --format json":
        "6ae9dbbc48610d0de80cd05fe230c1462a01158a958f5ff6a77da47509da075d",
    "table --a 4 --mu 2 --n 60:120:20 --qn-ratio --format csv":
        "5f5e4fa64428fa3cbaa99c36de380ef8729475ab632b3f3282d6cd530911856a",
    "approx --a 5 --mu 4 --n 400":
        "9e25b45e47fa9e892e6c289d18377e532124b84ce39f911d9ccf3f5d3cf64e5f",
    "approx --a 6 --mu 3 --n 150 --format json":
        "60782636ade541db3008833938ac09e3bf555acc66870db0a6bffe70dfc298e3",
    "approx --a 7 --mu 6 --n 90 --format csv":
        "531913e361b5d1e12d4bb2b81082916edf31fb351b5d40392d33655141745dce",
    "approx --a 8 --mu 1 --n 200":
        "1143f80ebfb756f5acb8c34773a33611099986009e179f73306cb6739283bdf1",
    "verify --suite integrality --a 8":
        "773179a6fdfde134718c563b1f1b869d9037837addb2b0547d13d6e82228f043",
    "verify --suite lemma1 --a 5":
        "e0fbb624bfda565fe6d7c09479446940959c2aba873b53271547b2656892f66f",
    "verify --suite recurrences --nmax 120":
        "ee7ed0385c8d92b1dd61b9ffb249f3e17d22f747ecd89c157efc2749b39311f6",
    "table --a 2 --mu 1 --n 0:60:10 --format text":
        "ed0725b0d2ad1398ae2dc0a03ef4f5d6e0fd32e9a149565e0107365717ff1b0a",
    "table --a 3 --mu 2 --n 20:80:20 --qn-ratio --format text":
        "a8ac9cbd2691ef73bb239d50a8d17b5d27723047d2d0944ae70ca3c55fa84674",
    "constants":
        "8da80c2ad7bd3ebafc796fc850e70aeeea14ce77b7070a3cfbf638b7d3bf5a79",
    "constants --digits 80 --zeta-max 7 --format csv":
        "1e28da3445727bed05ab722a5a4df12bdbeb9f38d2e2b84c470705223dcb67ab",
    "constants --digits 120 --zeta-max 4 --format json":
        "2c4b83ba5547bc5ade8216d99b7fe313e065d157d4b3f306383a5d7479ba0395",
    "asymptotics --a 5":
        "d7763bd7f749d38de726f7aac1149c651373bf6987b9a1af3130fcd4e8917e61",
    "asymptotics --a 4 --n 1000":
        "2fe029e7ad402f02aaed3f9098c09ada6c4b7e4bbe95644eadd117d04e23c8ee",
    "asymptotics --a 6 --kind theorem-qn --n 250":
        "d3fdcdaeefaaf09c374ae47c3b06ecd2301087c2966134847c566f628760ec60",
    "asymptotics --a 3 --format csv":
        "b2a0126783e4b0d64a99bfa20c4c78102cbb51a2c72d4c8cee2055c73d355983",
    "asymptotics --a 7 --n 300 --format csv":
        "642442f1c869d51069bd5890c163eb139363380170a1e242c2cb7ad0d41d2e80",
    "asymptotics --a 5 --format text":
        "c417213b0ac8e7af1641f5169d0e3e105b1bbe0d0d31c97840794580d514ccb7",
    "asymptotics --a 8 --kind corollary --n 5000 --format text":
        "470db94ea6cfb685b38560eeb2b07988c4fb4e5ccd14cfd6724c459f437e4fc2",
    "asymptotics --a 2 --n 40 --format text":
        "59920b605f6fda842ca27535de1314a235ee5bc49fd7fd4b70456ba5894eee54",
    "roots --a 3 --u 1 --format csv":
        "8c36896a8cad03ff65fcdf5802bb5ba5f53d3f30a5d050ed64ef3c02cfc02d5b",
    "roots --a 6 --u 0 --n 1000 --format csv":
        "bcc98f9c4ed3d9adc46fd745a5c12d86d199997729a9f3dc065bb74ef7c80922",
    "roots --a 5 --u -3 --n 1000 --format json":
        "5eaeddf0165e99ad53784d6fe2f40a845991743dfb24841b9cafddc0ae5e7c89",
    "roots --a 2 --u 2 --format json":
        "6627f98367283b36f93082fb07b73c4d87fe142b6f78fff1f4c385132fa5f800",
    "roots --a 4 --u 2 --n 100000000":
        "c5347b9a6ea41b52a50b5c190258b6f26c4c51a6895a059c090bee79d2f4ef32",
    "roots --a 7 --u 7":
        "93b1742460850d112574690a3091ea83d7bb21be2bd4d866f78db724f4073bdc",
    "verify --suite bernoulli":
        "55f7ac7ae27fc7aa0eab44489d8549738c077c604f4e731698d2fbae5a4ee0d0",
    "verify --suite bell":
        "b7d2db39dbb91be171bdd0e640f94a68629e18f6d6c936d2551f476b52981bb6",
    "verify --suite tail":
        "05af1d218411e7b6b9af6de0a1ba2ce38bc081d7c062e4483230c75d030e5557",
    "verify --suite saddle":
        "efc8f87946a8a697f227cd19a5e77fa2125dd605876bff933b83f0e34b51b858",
    "constants --digits 1000 --zeta-max 4 --format json":
        "9940dac56f2fde701a589a153660728bb62e180df83b9d3d07c95dc9658651b3",
    "constants --digits 300 --zeta-max 20 --format csv":
        "de375ef6d96a118997f53e76a4f3319d8f315706449c5c1a847b6689189ecf95",
    "verify --suite lemma1 --a 8 --nmax 24":
        "5d04bc56181c87963650e5963db39bc6fb6186c85e91bab79758f91e8d306661",
    "constants --digits 2000 --zeta-max 9 --format csv":
        "e6b5d829e401cde36e6b152c845502c832ae243582d7a1467dd9300aee6e586a",
    "table --a 8 --mu 7 --n 0:40:5 --format json":
        "32b305a99a68b79fe90c89682b59338ebee023a0944419915e58aa40a538b1b7",
    "verify --suite lemma1 --a 8 --nmax 12":
        "db22feb3c231b552fbfa788c1a6522e49949ba888ed1f2fe49b8b0f181748f0c",
    "table --a 3 --mu 2 --n 0:60:20 --qn-ratio --format json":
        "8b6806c51c3a16abb64347a3037d3a23a7c9b08c1063e938327310a0fb5ee839",
    "approx --a 3 --mu 2 --n 300 --digits 3000 --format json":
        "8b32e2f38965ca2080c9c5ed184c4cc5e83474d41e59cd4156e89ec44cce568c",
    "table --a 8 --mu 7 --n 0:300:50 --format json":
        "0a2fbabfe1cf7c48f1ba65c2c7401a11fcdc8b6ad6a692d074aa7741feec6fc5",
    "table --a 5 --mu 4 --n 0:20:2 --digits 4":
        "a2f11c6998a7a25ea2d3e08e9c7249f84666e962758568a708311cd6a5e98e97",
    "approx --a 2 --mu 1 --n 1600":
        "f90774f937e814360996fd1d119106cec141afb9095ed70c78d5639374f9844f",
    "roots --a 8 --u -3 --n 1000000000 --format json":
        "d3f8b0bf1d0e862343c7134c50392f6fa745870db51ede908fdceed39db33ffd",
    "verify --suite tail --digits 400":
        "05af1d218411e7b6b9af6de0a1ba2ce38bc081d7c062e4483230c75d030e5557",
    "verify --suite integrality --a 8 --nmax 40":
        "3b1fe56c73280a4fd468a64d2c7a9daeb6820e01e0c07b4c784c471ea8183476",
    "table --a 6 --mu 5 --n 10:60:10 --qn-ratio --format text":
        "f0eab61e8678b14394b1af16e0a3aef37a0ff9943111cd5880ecf301709bb9bb",
}


def test_read_argv_reads_every_digest_line():
    # each line above is well formed: read without argparse, to the
    # namespace argparse gives
    for argv in map(str.split, OUTPUT_DIGESTS):
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.build_parser(cli._FLAGS).parse_args(argv))


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS))
def test_output_digests_unchanged(argv, capsys, monkeypatch):
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[argv]
