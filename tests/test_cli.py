"""Spec-document parsing and the command-line front end."""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superkoszul.cli import (
    MACHINE_PREFIX,
    AlgebraSpec,
    SpecError,
    build_algebra,
    main,
    parse_spec,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, stdin=None, module="superkoszul.cli"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def machine_lines(out):
    return [line for line in out.splitlines() if line.startswith(MACHINE_PREFIX)]


# -- parsing -------------------------------------------------------------------


def test_parse_round_trip():
    text = """
family = quantum
N = 2
format = 0 1
q[1,2] = 1/2
"""
    spec = parse_spec(text)
    assert spec.family == "quantum"
    assert spec.fmt == (0, 1)
    assert spec.q_table[(1, 2)] == 0.5
    assert spec == AlgebraSpec("quantum", 2, (0, 1), q_table={(1, 2): Fraction(1, 2)})


def test_parse_round_trip_custom():
    text = """
family = custom
N = 3
format = 0 0
relation = 1 : 1 1 2 ; -2 : 1 2 1 ; 1 : 2 1 1
"""
    spec = parse_spec(text)
    relation = [(Fraction(1), (1, 1, 2)), (Fraction(-2), (1, 2, 1)), (Fraction(1), (2, 1, 1))]
    assert spec == AlgebraSpec("custom", 3, (0, 0), relations=[relation])
    A = build_algebra(spec)
    assert A.R.dim == 1


def test_parse_p_q_shorthand():
    spec = parse_spec("family = n_symmetric\nN = 2\np = 1\nq = 1\n")
    assert spec.fmt == (0, 1)


def test_relation_degree_must_match():
    with pytest.raises(SpecError, match="degree must equal N"):
        parse_spec("family = custom\nN = 3\nformat = 0 0\nrelation = 1 : 1 2\n")


def test_zero_quantum_parameter_rejected():
    with pytest.raises(SpecError):
        parse_spec("family = quantum\nN = 2\nformat = 0 1\nq[1,2] = 0\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(SpecError, match="line 2"):
        parse_spec("family = tensor\nnonsense line\n")


@pytest.mark.parametrize("text, message", [
    ("family = n_symmetric\nformat = 0 1\np = 3\n",
     "line 3: 'p' applies only to a spec without 'format'"),
    ("family = n_symmetric\nq = 0\nformat = 0 1\n",
     "line 2: 'q' applies only to a spec without 'format'"),
    ("family = n_symmetric\nformat = 0 1\nq[1,2] = 5\n",
     "line 3: 'q[i,j]' applies only to family quantum"),
    ("family = yang_mills\nN = 3\nformat = 0 1\nq[1,2] = 5\n",
     "line 4: 'q[i,j]' applies only to family quantum"),
    ("family = n_symmetric\nformat = 0 1\nG = 1 2\n",
     "line 3: 'G' applies only to family yang_mills"),
    ("family = quantum\nformat = 0 1\nhecke_q = 3\n",
     "line 3: 'hecke_q' applies only to family lambda_RN or s_RN"),
    ("hecke_q = 1\nfamily = n_symmetric\nformat = 0 1\n",
     "line 1: 'hecke_q' applies only to family lambda_RN or s_RN"),
    ("family = tensor\nformat = 0 0\nrelation = 1 : 1 2\n",
     "line 3: 'relation' applies only to family custom"),
    ("family = n_symmetric\np = -1\n", "line 2: bad nonnegative integer '-1'"),
    ("family = n_symmetric\np = 1\nq = x\n", "line 3: bad nonnegative integer 'x'"),
])
def test_spec_keys_are_rejected_where_unread(text, message, monkeypatch, capsys):
    with pytest.raises(SpecError) as excinfo:
        parse_spec(text)
    assert message in str(excinfo.value)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["dims", "--spec", "-", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


@pytest.mark.parametrize("text, message", [
    ("family = n_symmetric\nformat = 0 1\nformat = 0 0 0\nN = 3\nN = 2\n",
     "line 3: repeated key 'format'"),
    ("family = n_symmetric\nN = 3\nformat = 0 1\nN = 2\n", "line 4: repeated key 'N'"),
    ("family = n_symmetric\nfamily = tensor\nformat = 0 1\n",
     "line 2: repeated key 'family'"),
    ("family = n_symmetric\np = 1\nq = 1\np = 2\n", "line 4: repeated key 'p'"),
    ("family = n_symmetric\np = 1\nq = 1\nq = 0\n", "line 4: repeated key 'q'"),
    ("family = quantum\nformat = 0 1 1\nq[1,2] = 2\nq[2,3] = 3\nq[ 1 , 2 ] = 5\n",
     "line 5: repeated key 'q[1,2]'"),
    ("family = yang_mills\nformat = 0 0\nG = 1 1\nG = 1 2\n", "line 4: repeated key 'G'"),
    ("family = s_RN\nformat = 0 1\nhecke_q = 2\nhecke_q = 3\n",
     "line 4: repeated key 'hecke_q'"),
])
def test_repeated_spec_keys_are_rejected(text, message, monkeypatch, capsys):
    with pytest.raises(SpecError) as excinfo:
        parse_spec(text)
    assert message in str(excinfo.value)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["dims", "--spec", "-", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


def test_relation_lines_repeat_in_a_spec():
    text = "family = custom\nN = 2\nformat = 0 0\nrelation = 1 : 1 2\nrelation = 1 : 2 1\n"
    assert len(parse_spec(text).relations) == 2


def test_spec_file_is_closed_after_reading(tmp_path):
    path = tmp_path / "algebra.spec"
    path.write_text("family = quantum\nformat = 0 1\nq[1,2] = 2\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "superkoszul.cli",
         "dims", "--spec", str(path), "--order", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_spec_ignoring_every_unread_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "algebra.spec"
    path.write_text(
        "family = n_symmetric\nformat = 0 1\np = 3\nq[1,2] = 5\nG = 1 2\nhecke_q = 3\n"
    )
    assert main(["dims", "--spec", str(path), "--order", "2"]) == 2
    assert "input error" in capsys.readouterr().err


FAMILY_KEY_SPECS = {
    "family = quantum\nN = 2\nformat = 0 1 1\nq[1,2] = 1/2\nq[2,3] = -3\n":
        AlgebraSpec("quantum", 2, (0, 1, 1), q_table={(1, 2): Fraction(1, 2), (2, 3): Fraction(-3)}),
    "family = yang_mills\nN = 3\nformat = 0 0 1\nG = 1 -2 5\n":
        AlgebraSpec("yang_mills", 3, (0, 0, 1), g_diag=[Fraction(1), Fraction(-2), Fraction(5)]),
    "family = s_RN\nN = 3\nformat = 0 1\nhecke_q = 1/2\n":
        AlgebraSpec("s_RN", 3, (0, 1), hecke_q=Fraction(1, 2)),
    "family = lambda_RN\nN = 2\nformat = 0 0\nhecke_q = 3\n":
        AlgebraSpec("lambda_RN", 2, (0, 0), hecke_q=Fraction(3)),
    "family = n_symmetric\nN = 3\np = 1\nq = 2\n":
        AlgebraSpec("n_symmetric", 3, (0, 1, 1)),
}


@pytest.mark.parametrize("text", list(FAMILY_KEY_SPECS))
def test_every_family_key_round_trips(text):
    # every key a family reads reaches the spec
    assert parse_spec(text) == FAMILY_KEY_SPECS[text]


@pytest.mark.parametrize("key, message", [
    ("q[2,1]", "line 3: q-table keys need i < j"),
    ("q[1,5]", "q-table key (1,5) out of range for d=2"),
])
def test_q_table_key_out_of_range_is_an_input_error(key, message, tmp_path, capsys):
    # the parser names the line of a key with i >= j; a key out of range for
    # d is rejected by quantum_superspace, before anything is printed
    path = tmp_path / "algebra.spec"
    path.write_text(f"family = quantum\nformat = 0 1\n{key} = 2\n")
    assert main(["dims", "--spec", str(path), "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("text, message", [
    ("family = n_symmetric\nN = 1\nformat = 0 1\n", "the relation degree N must be at least 2"),
    ("family = yang_mills\nformat = 0 0\nG = 1 0\n", "diagonal metric must list d=2 nonzero entries"),
    ("family = yang_mills\nformat = 0 0\nG = 1 1 1\n", "diagonal metric must list d=2 nonzero entries"),
    ("family = custom\nformat = 0 0\nrelation = 1 : 1 3\n", "letters of (1, 3) must lie in 1..2"),
])
def test_builder_checks_are_input_errors(text, message, monkeypatch, capsys):
    # the spec parser leaves these to the builder, which runs before any output
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["dims", "--spec", "-", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


# -- commands ------------------------------------------------------------------


def test_dims_command_quantum_superspace():
    code, out, _ = run_cli(["dims", "--family", "quantum", "--p", "1", "--q", "1", "--order", "5"])
    assert code == 0
    dims = [line.split("dim=")[1] for line in machine_lines(out) if "dim=" in line]
    assert dims == ["1", "2", "2", "2", "2", "2"]


def test_dual_command():
    code, out, _ = run_cli(["dual", "--family", "tensor", "--p", "1", "--q", "1", "-N", "3", "--order", "4"])
    assert code == 0
    dims = [line.split("dim=")[1] for line in machine_lines(out) if "dim=" in line]
    assert dims == ["1", "2", "4", "0", "0"]


def test_mt_command_passes():
    code, out, _ = run_cli(["mt", "--p", "1", "--q", "1", "-N", "2", "--order", "6"])
    assert code == 0
    assert "MT identity: PASS (order 6)" in out
    assert any("verdict=PASS" in line for line in machine_lines(out))


def test_mt_command_runs_above_the_default_ceiling_when_raised(capsys):
    assert main(["mt", "--p", "1", "--q", "0", "--order", "11", "--ceiling", "12"]) == 0
    assert any("verdict=PASS" in line for line in machine_lines(capsys.readouterr().out))


EXPECTED = Path(__file__).resolve().parent / "expected"


@pytest.mark.parametrize("p, q, N, order", [(1, 1, 2, 6), (2, 1, 3, 5), (0, 2, 2, 5),
                                             (2, 1, 3, 6), (2, 2, 2, 7)])
def test_mt_command_output_is_pinned(p, q, N, order):
    # the whole stdout, factor polynomials included, as recorded in
    # tests/expected/; only the elapsed_s timer line varies between runs
    code, out, _ = run_cli(["mt", "--p", str(p), "--q", str(q), "-N", str(N), "--order", str(order)])
    assert code == 0
    lines = [line for line in out.splitlines(keepends=True) if "elapsed_s=" not in line]
    expected = EXPECTED / f"mt_{p}_{q}_N{N}_K{order}.txt"
    assert "".join(lines) == expected.read_text()


PINNED_ALGEBRAS = {
    "yang_mills_2_1": ["--family", "yang_mills", "--p", "2", "--q", "1"],
    "n_symmetric_2_1_N3": ["--family", "n_symmetric", "--p", "2", "--q", "1", "-N", "3"],
    "lambda_RN_2_1_N3_q2": ["--family", "lambda_RN", "--p", "2", "--q", "1", "-N", "3",
                            "--q-param", "2"],
}


@pytest.mark.parametrize("algebra", sorted(PINNED_ALGEBRAS))
@pytest.mark.parametrize("command", ["dims", "dual", "hilbert", "confluence", "koszul", "tor"])
def test_algebra_command_output_is_pinned(command, algebra, capsys):
    # the whole stdout, titles and human lines included, as recorded in
    # tests/expected/; only the elapsed_s timer line varies between runs.
    # YM(2|1) is not confluent, so its confluence command exits 1.
    argv = [command, *PINNED_ALGEBRAS[algebra]]
    if command != "confluence":
        argv += ["--order", "6"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (1 if (command, algebra) == ("confluence", "yang_mills_2_1") else 0)
    lines = [line for line in out.splitlines(keepends=True) if "elapsed_s=" not in line]
    assert "".join(lines) == (EXPECTED / f"{command}_{algebra}.txt").read_text()


def test_koszul_command_flags_mixed_yang_mills():
    code, out, _ = run_cli(["koszul", "--family", "yang_mills", "--p", "1", "--q", "1", "--order", "6"])
    assert code == 1
    assert "FAIL" in out
    assert any("verdict=FAIL" in line for line in machine_lines(out))


def test_koszul_command_passes_symmetric_algebra():
    code, out, _ = run_cli(["koszul", "--family", "n_symmetric", "--p", "1", "--q", "1", "-N", "2", "--order", "6"])
    assert code == 0
    assert any("verdict=PASS" in line for line in machine_lines(out))


def test_confluence_command():
    code, out, _ = run_cli(["confluence", "--family", "n_symmetric", "--p", "2", "--q", "1", "-N", "3"])
    assert code == 0


def test_tor_command():
    code, out, _ = run_cli(["tor", "--family", "yang_mills", "--p", "3", "--q", "0", "--order", "5", "--i-max", "3"])
    assert code == 0
    lines = machine_lines(out)
    assert any("i=2 deg=3 dim=3" in line for line in lines)
    assert any("i=3 deg=4 dim=1" in line for line in lines)


def test_tor_command_computes_without_confluence(capsys):
    # YM(1|1) is not confluent; its normal forms come from the R_n echelon
    assert main(["tor", "--family", "yang_mills", "--p", "1", "--q", "1", "--order", "7"]) == 0
    out = capsys.readouterr().out
    assert any("i=3 deg=5 dim=2" in line for line in machine_lines(out))
    assert "INCONCLUSIVE" not in out


def test_hilbert_command_with_closed_form():
    code, out, _ = run_cli(["hilbert", "--family", "n_symmetric", "--p", "1", "--q", "1", "-N", "2", "--order", "6"])
    assert code == 0
    assert "closed-form comparison: PASS" in out


def test_hecke_verify_command():
    code, out, _ = run_cli(["hecke-verify", "--operator", "dj", "--p", "1", "--q", "1", "--q-param", "2"])
    assert code == 0
    assert any("yang_baxter=PASS" in line for line in machine_lines(out))


@pytest.mark.parametrize("argv", [
    ["dims", "--family", "lambda_RN", "--p", "1", "--q", "1", "--q-param", "2", "--order", "3"],
    ["dims", "--family", "s_RN", "--p", "1", "--q", "1", "--q-param", "1/2", "--order", "3"],
    ["dims", "--family", "yang_mills", "--p", "2", "--q", "0", "--G", "1,2", "--order", "3"],
])
def test_parameters_are_accepted_where_they_are_read(argv, capsys):
    assert main(argv) == 0
    assert machine_lines(capsys.readouterr().out)


def test_spec_file_on_stdin():
    text = "family = n_symmetric\nN = 2\nformat = 0 1\n"
    code, out, _ = run_cli(["dims", "--spec", "-", "--order", "3"], stdin=text)
    assert code == 0
    dims = [line.split("dim=")[1] for line in machine_lines(out) if "dim=" in line]
    assert dims == ["1", "2", "2", "2"]


def test_spec_without_N_takes_the_family_default():
    # yang_mills algebras are cubic, so a spec without an N line means N = 3
    text = "family = yang_mills\nformat = 0 0 0\n"
    code, out, err = run_cli(["dims", "--spec", "-", "--order", "2"], stdin=text)
    assert code == 0, err
    assert "#machine/v1: dims deg=2 dim=9" in machine_lines(out)
    assert parse_spec(text).N == 3
    assert parse_spec("family = tensor\nformat = 0\n").N == 2


@pytest.mark.parametrize("flags, code, lines", [
    (["--family", "n_symmetric", "--p", "2", "--q", "1", "-N", "3"], 0,
     ["koszul verdict=PASS deg_max=6", "koszul check=duality verdict=PASS"]),
    (["--family", "yang_mills", "--p", "2", "--q", "1"], 0,
     ["koszul verdict=PASS deg_max=6", "koszul check=duality verdict=PASS"]),
    (["--family", "yang_mills", "--p", "1", "--q", "1"], 1,
     ["koszul verdict=FAIL witness=duality n=5"]),
])
def test_koszul_command_machine_lines_are_pinned(flags, code, lines, capsys):
    assert main(["koszul", *flags, "--order", "6"]) == code
    out = [line for line in machine_lines(capsys.readouterr().out) if "elapsed_s=" not in line]
    assert out == [f"{MACHINE_PREFIX} {line}" for line in lines]


def test_koszul_command_machine_lines_are_pinned_on_a_dyadic_presentation(monkeypatch, capsys):
    # Lambda_3 of dj_operator(2, 1, 2): its rewrite map holds the Fractions
    # -1/2, -1/4, -1/8, so normal forms and slices leave the int path
    text = "family = lambda_RN\nformat = 0 0 1\nN = 3\nhecke_q = 2\n"
    tails = build_algebra(parse_spec(text)).rewrite_map().values()
    assert all(type(a) is Fraction for tail in tails for a in tail.values())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["koszul", "--spec", "-", "--order", "7"]) == 0
    out = [line for line in machine_lines(capsys.readouterr().out) if "elapsed_s=" not in line]
    assert out == [f"{MACHINE_PREFIX} koszul verdict=PASS deg_max=7",
                   f"{MACHINE_PREFIX} koszul check=duality verdict=PASS"]


# a confluence failure whose meet M = R x V^2 cap V^2 x R has dimension 5, of
# which 3 lie in the middle placement V x R x V: the extra-condition defect is 2
DEFECT_TWO_SPEC = ("family = custom\nformat = 1 0\nN = 3\n"
                   "relation = -1 : 2 1 1 ; 1 : 1 2 1 ; 1 : 1 1 2\n"
                   "relation = -1 : 1 1 1\nrelation = -1 : 1 1 2\n")


@pytest.mark.parametrize("command, lines", [
    ("confluence", ["confluence check=confluence overlap=1 lhs=13 rhs=13 verdict=PASS",
                    "confluence check=confluence overlap=2 lhs=27 rhs=26 verdict=FAIL",
                    "confluence check=extra_condition n=2 verdict=FAIL defect=2"]),
    ("koszul", ["koszul verdict=FAIL witness=extra_condition n=2 defect=2"]),
])
def test_extra_condition_defect_lines_are_pinned(command, lines, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEFECT_TWO_SPEC))
    assert main([command, "--spec", "-"]) == 1
    out = [line for line in machine_lines(capsys.readouterr().out) if "elapsed_s=" not in line]
    assert out == [f"{MACHINE_PREFIX} {line}" for line in lines]


@pytest.mark.parametrize("p, q, lines", [
    (3, 0, ["tor i=0 deg=0 dim=1", "tor i=1 deg=1 dim=3", "tor i=2 deg=3 dim=3",
            "tor i=3 deg=4 dim=1"]),
    (1, 1, ["tor i=0 deg=0 dim=1", "tor i=1 deg=1 dim=2", "tor i=2 deg=3 dim=2",
            "tor i=3 deg=5 dim=2", "tor i=4 deg=7 dim=2"]),
    (2, 1, ["tor i=0 deg=0 dim=1", "tor i=1 deg=1 dim=3", "tor i=2 deg=3 dim=3"]),
])
def test_tor_command_machine_lines_are_pinned(p, q, lines, capsys):
    argv = ["tor", "--family", "yang_mills", "--p", str(p), "--q", str(q),
            "--order", "7", "--i-max", "4"]
    assert main(argv) == 0
    out = [line for line in machine_lines(capsys.readouterr().out) if "elapsed_s=" not in line]
    assert out == [f"{MACHINE_PREFIX} {line}" for line in lines]


def test_input_error_exit_code():
    code, _, err = run_cli(["dims", "--family", "custom", "--p", "1", "--q", "1"])
    assert code == 2
    assert "input error" in err
    code, _, err = run_cli(["dims"])
    assert code == 2


def test_package_runs_as_a_module_like_main(capsys):
    argv = ["koszul", "--family", "n_symmetric", "--p", "2", "--q", "1", "-N", "3", "--order", "6"]
    code, out, err = run_cli(argv, module="superkoszul")
    assert (code, err) == (main(argv), "")
    by_module = [line for line in machine_lines(out) if "elapsed_s=" not in line]
    in_process = machine_lines(capsys.readouterr().out)
    assert by_module == [line for line in in_process if "elapsed_s=" not in line]
    assert by_module


def test_main_returns_exit_code_in_process(capsys):
    assert main(["dims", "--family", "tensor", "--p", "1", "--q", "0", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert machine_lines(out)


@pytest.mark.parametrize("argv", [
    ["hilbert", "--family", "n_symmetric", "--p", "2", "--q", "0", "--order", "-1"],
    ["dims", "--family", "n_symmetric", "--p", "2", "--q", "0", "--order", "-3"],
    ["tor", "--family", "yang_mills", "--p", "3", "--q", "0", "--i-max", "-1"],
    ["dims", "--family", "n_symmetric", "--p", "-1", "--q", "2"],
    ["hecke-verify", "--p", "-1", "--q", "2"],
    ["hecke-verify", "--p", "1", "--q", "-2"],
    ["mt", "--p", "1", "--q", "1", "--ceiling", "-1"],
])
def test_negative_bounds_are_input_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be nonnegative" in captured.err
    assert not captured.out


@pytest.mark.parametrize("argv, message", [
    (["mt", "--p", "1", "--q", "1", "-N", "0"], "-N must be at least 2"),
    (["dims", "--family", "n_symmetric", "--p", "2", "--q", "0", "-N", "0"], "-N must be at least 2"),
    (["mt", "--p", "1", "--q", "1", "--ceiling", "0", "--order", "2"], "exceeds the cost ceiling 0"),
    (["hecke-verify", "--p", "1", "--q", "1", "--q-param", "1/0"], "input error: bad rational '1/0'"),
    (["dims", "--family", "lambda_RN", "--p", "1", "--q", "1", "--q-param", "1/0"],
     "input error: bad rational '1/0'"),
    (["dims", "--family", "yang_mills", "--p", "2", "--q", "0", "--G", "1/0,1"],
     "input error: bad rational '1/0'"),
    # a parameter that no part of the command reads
    (["dims", "--family", "quantum", "--p", "1", "--q", "1", "--q-param", "0", "--order", "3"],
     "input error: --q-param applies only to"),
    (["dims", "--family", "n_symmetric", "--p", "2", "--q", "0", "--q-param", "2"],
     "input error: --q-param applies only to"),
    (["hecke-verify", "--operator", "supersymmetry", "--p", "1", "--q", "1", "--q-param", "2"],
     "input error: --q-param applies only to"),
    (["mt", "--p", "1", "--q", "1", "--q-param", "2"], "input error: --q-param applies only to"),
    (["hecke-verify", "--family", "lambda_RN", "--operator", "supersymmetry", "--p", "1", "--q", "1",
      "--q-param", "2"], "input error: --q-param applies only to"),
    (["dims", "--spec", "-", "--q-param", "2"], "input error: --q-param applies only to"),
    (["dims", "--family", "quantum", "--p", "1", "--q", "1", "--G", "1,1"],
     "input error: --G applies only to --family yang_mills"),
    (["dims", "--family", "lambda_RN", "--p", "1", "--q", "1", "--G", "1,1"],
     "input error: --G applies only to --family yang_mills"),
    (["mt", "--p", "1", "--q", "0", "--G", "1"], "input error: --G applies only to --family yang_mills"),
    (["mt", "--family", "yang_mills", "--p", "2", "--q", "0", "--G", "1,1"],
     "input error: --G applies only to --family yang_mills"),
    (["mt", "--p", "1", "--q", "1", "--format", "0,0,1", "--order", "2"],
     "input error: --format applies only to"),
    (["mt", "--p", "1", "--q", "1", "--family", "n_symmetric", "-N", "2", "--order", "2"],
     "input error: --family applies only to"),
    (["mt", "--p", "1", "--q", "1", "--spec", "-"], "input error: --spec applies only to"),
    (["hecke-verify", "--family", "lambda_RN", "--operator", "supersymmetry", "--p", "1", "--q", "1"],
     "input error: --family applies only to"),
    (["hecke-verify", "--p", "1", "--q", "1", "--format", "0,1"], "input error: --format applies only to"),
    (["hecke-verify", "--p", "1", "--q", "1", "--spec", "-"], "input error: --spec applies only to"),
    (["hecke-verify", "--p", "1", "--q", "1", "-N", "3"], "input error: -N applies only to"),
    (["confluence", "--family", "n_symmetric", "--p", "1", "--q", "1", "--order", "99"],
     "input error: --order applies only to"),
    (["hecke-verify", "--p", "1", "--q", "1", "--order", "99"], "input error: --order applies only to"),
    # an algebra comes from --spec or from flags, never from both
    (["dims", "--spec", "-", "--p", "3", "--q", "0", "-N", "5", "--order", "2"],
     "input error: --p applies only to"),
    (["dims", "--spec", "-", "-N", "5"], "input error: -N applies only to"),
    (["dims", "--spec", "-", "--family", "n_symmetric"], "input error: --family applies only to"),
    (["dims", "--spec", "-", "--format", "0,1"], "input error: --format applies only to"),
    (["dims", "--family", "n_symmetric", "--p", "3", "--q", "0", "--format", "0,1", "--order", "2"],
     "input error: --p applies only to"),
    (["dims", "--family", "n_symmetric", "--q", "1", "--format", "0,1"],
     "input error: --q applies only to"),
    # the default ceiling, with no --ceiling given
    (["mt", "--p", "1", "--q", "1", "--order", "11"], "exceeds the cost ceiling 10"),
    # a zero-dimensional space, as mt rejects it
    (["hecke-verify", "--p", "0", "--q", "0"], "input error: need p, q >= 0 with p + q >= 1"),
    (["mt", "--p", "0", "--q", "0"], "input error: need p, q >= 0 with p + q >= 1"),
])
def test_out_of_range_inputs_are_rejected_not_substituted(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out
