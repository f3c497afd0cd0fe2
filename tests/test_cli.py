"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import bellgamma
from bellgamma import cli, kernel, lemma1, numerics, sequences, verify

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
    real = kernel.seq_rows
    monkeypatch.setattr(kernel, "seq_rows",
                        lambda *args: calls.append(args) or real(*args))
    code, _, _ = run_cli(capsys, "table", "--a", "3", "--mu", "2",
                         "--n", "10:40:10", "--qn-ratio")
    assert code == 0
    assert calls == [(3, n, n, 2) for n in (10, 20, 30, 40)]


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
    # serve every mu; the SymPoly oracle is never built, and the bounded
    # cache ends the run holding no more than its bound.
    calls = []
    real = kernel.seq_rows
    monkeypatch.setattr(kernel, "seq_rows",
                        lambda *args: calls.append(args) or real(*args))
    scaled, f_all = lemma1.scaled_row, sequences._f_sym_all
    scaled.cache_clear()
    f_all.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1",
                           "--a", "4", "--nmax", "40")
    info = scaled.cache_info()
    scaled.cache_clear()
    assert code == 0 and out.splitlines()[-1] == "3/3 checks passed"
    assert calls == [(4, n, n, 3) for n in range(41)]
    assert f_all.cache_info().misses == 0
    assert info.misses == 41
    assert info.maxsize is not None and info.currsize <= info.maxsize < 41


@pytest.mark.parametrize("argv, passed, rows", [
    ("verify --suite integrality --a 5 --nmax 30", "5/5", [(5, 0, 30, 4)]),
    ("verify --suite recurrences --nmax 40", "13/13",
     [(2, 0, 40, 1), (3, 0, 40, 2), (4, 0, 40, 3)]),
], ids=["integrality", "recurrences"])
def test_verify_integrality_builds_one_store(argv, passed, rows, capsys,
                                             monkeypatch):
    # one kernel table per a serves q and every p of that a
    calls = []
    real = kernel.seq_rows
    monkeypatch.setattr(kernel, "seq_rows",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.splitlines()[-1] == passed + " checks passed"
    assert calls == rows


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "bell",
                        lambda cfg: [("forced failure", False)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "bell")
    assert code == 1
    assert "FAIL forced failure" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


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


def test_precision_exit_code(capsys):
    code, _, err = run_cli(capsys, "approx", "--a", "3", "--mu", "1",
                           "--n", "50", "--digits", "2")
    assert code == 3
    assert err.startswith("precision failure")


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


def test_roots_refine_up_to_n_max():
    # the bound roots accepts: every a and u still refine at it
    from bellgamma.asymptotics import root_report
    n = cli._ROOTS_N_MAX
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
    args = cli.build_parser().parse_args(["constants", "--digits", "10000"])
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
    # Every row and both guard evaluations round from one computation of
    # each constant, made at the deepest precision needed.
    monkeypatch.setattr(numerics, "_GAMMA_CACHE", {})
    monkeypatch.setattr(numerics, "_ZETA_CACHE", {})
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
    assert value == sequences.q_at(2, 1548)


# Each command loads only what it runs.  random and typing are left out:
# `site` may load them before the package is imported.
_NEVER = {"bellgamma.verify", "bellgamma.bernoulli", "dataclasses", "logging"}


@pytest.mark.parametrize("argv, absent, present", [
    ("approx --a 3 --mu 1 --n 5", _NEVER, {"bellgamma.sequences"}),
    ("constants --digits 30",
     _NEVER | {"bellgamma.sequences", "bellgamma.symring", "bellgamma.kernel",
               "bellgamma.bell", "bellgamma.asymptotics", "json"},
     {"bellgamma.numerics"}),
    ("verify --suite bell",
     {"dataclasses", "logging", "json", "bellgamma.bernoulli",
      "bellgamma.sequences", "bellgamma.kernel", "bellgamma.symring",
      "bellgamma.asymptotics"},
     {"bellgamma.verify", "bellgamma.bell"}),
    ("table --a 3 --mu 2 --n 0:20:10", {"bellgamma.lemma1"},
     {"bellgamma.sequences"}),
    ("verify --suite lemma1 --a 3 --nmax 2", {"dataclasses", "logging"},
     {"bellgamma.lemma1"}),
    ("verify --suite saddle", {"bellgamma.sequences", "bellgamma.bernoulli"},
     {"bellgamma.asymptotics"}),
    ("verify --suite bernoulli", {"bellgamma.sequences", "bellgamma.kernel"},
     {"bellgamma.bernoulli"}),
])
def test_command_loads_only_what_it_runs(argv, absent, present):
    probe = ("import sys\n"
             "from bellgamma import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(' '.join(sys.modules))\n"
             "sys.exit(code)\n")
    out = subprocess.run([sys.executable, "-c", probe] + argv.split(),
                         env=CHILD_ENV, capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    loaded = set(out.stdout.splitlines()[-1].split())
    assert not loaded & absent
    assert present <= loaded


def test_kind_choices_match_profile_kinds():
    # cli spells the kinds out so that its parser never imports asymptotics
    from bellgamma import asymptotics

    assert cli._PROFILE_KINDS == asymptotics.PROFILE_KINDS


# sha256 of stdout as printed by earlier versions of the package, with
# BELLGAMMA_DIGITS unset: the first 14 when every single value was read
# from an O(n^2) table, the next 25 before `kernel` and `cli` lost their
# pass-through layers, the last while lemma 1 was still checked over
# Fraction.  Refactors must not change a byte.
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
        "2684c74e7b88aed170c8bf9f403807588368669e5e2b88c205c71b683ffb2342",
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
        "545976eb812bf84094d5844e555dc3305c7812aee60ce2685f6dc52f46f8697c",
    "roots --a 6 --u 0 --n 1000 --format csv":
        "0661de45dab0c949ab920353d37b9ec1cf98d6041c21c07aea352d80a6e2c486",
    "roots --a 5 --u -3 --n 1000 --format json":
        "0f40a1b791236089033a37dfa2540d225d1a7676c5c7b327ee995fa751b7a639",
    "roots --a 2 --u 2 --format json":
        "6627f98367283b36f93082fb07b73c4d87fe142b6f78fff1f4c385132fa5f800",
    "roots --a 4 --u 2 --n 100000000":
        "b89929709d1137e4daaa45343de1af6d083dab85a4db528aa7ee262fa7159025",
    "roots --a 7 --u 7":
        "d054b15844ab91260c7e52f611fcce80fcb6106d7640fb6d7f06cf6913e7146c",
    "verify --suite bernoulli":
        "55f7ac7ae27fc7aa0eab44489d8549738c077c604f4e731698d2fbae5a4ee0d0",
    "verify --suite bell":
        "b7d2db39dbb91be171bdd0e640f94a68629e18f6d6c936d2551f476b52981bb6",
    "verify --suite tail":
        "1235da922c5c1748c544afcde0596767a3d4bfbc4460c1d1d709fdaa073ac371",
    "verify --suite saddle":
        "efc8f87946a8a697f227cd19a5e77fa2125dd605876bff933b83f0e34b51b858",
    "constants --digits 1000 --zeta-max 4 --format json":
        "9940dac56f2fde701a589a153660728bb62e180df83b9d3d07c95dc9658651b3",
    "constants --digits 300 --zeta-max 20 --format csv":
        "de375ef6d96a118997f53e76a4f3319d8f315706449c5c1a847b6689189ecf95",
    "verify --suite lemma1 --a 8 --nmax 24":
        "5d04bc56181c87963650e5963db39bc6fb6186c85e91bab79758f91e8d306661",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS))
def test_output_digests_unchanged(argv, capsys, monkeypatch):
    monkeypatch.delenv("BELLGAMMA_DIGITS", raising=False)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[argv]
