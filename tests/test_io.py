import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.cli import main as cli_main
from ddsolve.fields import (QQ_XT, TRIVIAL_TOWER, FieldError, _modulus,
                            dm_from_matrix, make_tower, regular_matrix, t,
                            theta, x)
from ddsolve.files import (SchemaError, read_solution, read_system,
                           write_system)
from ddsolve.parsing import (ParseError, parse_element, parse_expression,
                             parse_ratfunc, print_ratfunc, tree_to_sympy)
from conftest import SYSTEMS, random_ratfunc
from helpers import reference_tower_exprs, solution, teq


# ---------------------------------------------------------------------------
# parser

def test_parse_quotient_tree():
    tree = parse_expression("(t^2-x)/(t^2-x-1)")
    assert tree.op == "/"
    assert teq(tree_to_sympy(tree), (t**2 - x) / (t**2 - x - 1))


def test_parse_sum_tree():
    tree = parse_expression("x^2+1")
    assert tree.op == "+"
    assert teq(tree_to_sympy(tree), x**2 + 1)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("x+*2")
    assert err.value.position == 2


@pytest.mark.parametrize("s, offset", [
    ("x^2^-1", 2),          # x^(1/2)
    ("x^2^2^-1", 4),        # the exponent of 2 is 1/2
    ("t + x ^ 0^-1", 8),    # 0^-1 is no integer either
])
def test_parse_non_integer_exponent_offset(s, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(s)
    assert err.value.position == offset
    assert "exponent must be an integer" in str(err.value)


def test_parse_whitespace_insensitive():
    assert teq(parse_ratfunc("  x + t * 2 "), x + 2 * t)


def test_parse_power_right_associative():
    assert parse_ratfunc("2^3^2") == 512


def test_parse_unary_minus_binds_to_base():
    # grammar: base := '-' base, so -x^2 reads (-x)^2
    assert teq(parse_ratfunc("-x^2"), x**2)
    assert teq(parse_ratfunc("-(x^2)"), -x**2)


def test_parse_theta():
    assert teq(parse_ratfunc("theta^2-t^2-1"), theta**2 - t**2 - 1)


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_expression("x + y")


# ---------------------------------------------------------------------------
# the K-form evaluator against the sympy reference (tests/helpers.py)

EX1_TOWER = make_tower(theta**2 - t**2 - 1)

_EXPRESSIONS = st.recursive(
    st.builds("{}{}".format, st.sampled_from(["", "-"]),
              st.sampled_from(["0", "1", "2", "3", "x", "t", "theta"])),
    lambda inner: st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"),
                  inner),
        st.builds("({})^{}".format, inner, st.sampled_from(
            ["0", "1", "2", "3", "-1", "-2", "2^2", "2^-1", "0^-1"]))),
    max_leaves=8)


def _value(parse, s, tower):
    """parse(s, tower), or "input error" for the errors a file reader
    turns into one."""
    try:
        return parse(s, tower)
    except (ParseError, ZeroDivisionError, FieldError):
        return "input error"


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS, st.sampled_from([TRIVIAL_TOWER, EX1_TOWER]))
def test_k_evaluator_matches_sympy_parse(s, tower):
    """parse_element is the K-form of the value of parse_ratfunc (the
    sympy evaluation of the tree, then treduce) and fails where it fails;
    on the trivial tower it rejects theta."""
    want = _value(parse_ratfunc, s, tower)
    got = _value(parse_element, s, tower)
    if want == "input error" or (tower.trivial
                                 and theta in want.free_symbols):
        assert got == "input error"
        return
    assert regular_matrix([got], (1, 1), _modulus(tower), QQ_XT) \
        == dm_from_matrix(sp.Matrix([want]), tower)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_read_solution_matches_reference_parse(name):
    """The tower, W and certificates read from a written solution file
    are those of parse_ratfunc, and the tower's minpoly and dtheta are
    those make_tower formed from the parsed minimal polynomial."""
    path = SYSTEMS.parent / "tests" / "golden" / f"{name}.json"
    data = json.loads(path.read_text())
    tower, sols, _ = read_solution(str(path))
    if data["tower"] == "trivial":
        assert tower == TRIVIAL_TOWER
    else:
        minpoly = parse_ratfunc(data["tower"])
        assert tower == make_tower(minpoly)
        assert [sp.srepr(tower.minpoly), sp.srepr(tower.dtheta)] == \
            [sp.srepr(e) for e in reference_tower_exprs(minpoly)]
    assert len(sols) == len(data["solutions"])
    for sol, entry in zip(sols, data["solutions"]):
        if sol.kind == "Interlaced":
            ((shift_idx, W, cert),) = sol.components
            assert shift_idx == entry["shift"]
            assert sol.period == entry["sigma_step"]
        else:
            W, cert = sol.W, sol.cert
        assert sol.kind == entry["kind"]
        assert sp.srepr(W) == sp.srepr(sp.Matrix(
            [parse_ratfunc(e, tower) for e in entry["W"]]))
        for key in ("sigma_ratio", "delta_ratio"):
            assert sp.srepr(getattr(cert, key)) == sp.srepr(
                parse_ratfunc(entry[key], tower))
        assert cert.sigma_step == entry["sigma_step"]


@pytest.mark.parametrize("minpoly", [
    theta**2 - t**2 - 1, theta**2 - 1 / (2 * t), theta**2 - t,
    theta**3 - t, theta**3 - 3 * theta + 1, theta**2 + theta / t + 1])
def test_make_tower_matches_reference(minpoly):
    assert [sp.srepr(e) for e in (make_tower(minpoly).minpoly,
                                  make_tower(minpoly).dtheta)] == \
        [sp.srepr(e) for e in reference_tower_exprs(minpoly)]


def test_read_solution_builds_no_sympy_expression():
    """A solution file is read into K-forms.  SymPy's first Add imports
    sympy.tensor.tensor; reading the solutions of example1 leaves it
    unimported, and reading a solution's W (an Expr) then imports it."""
    golden = SYSTEMS.parent / "tests" / "golden" / "example1.json"
    script = (
        "import sys\n"
        "from ddsolve.files import read_solution\n"
        f"tower, sols, _ = read_solution({str(golden)!r})\n"
        "parts = [part for sol in sols for part in sol.parts]\n"
        "before = 'sympy.tensor.tensor' in sys.modules\n"
        "sols[0].W\n"
        "print(len(parts), before, 'sympy.tensor.tensor' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SYSTEMS.parent / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["2", "False", "True"]


# ---------------------------------------------------------------------------
# print/parse round trip on 500 random rational functions

def test_print_parse_roundtrip_500():
    rng = random.Random(71)
    for _ in range(500):
        f = random_ratfunc(rng, max_deg=2, coeff=5)
        s = print_ratfunc(f)
        g = parse_ratfunc(s)
        assert teq(f, g), (f, s)


def test_print_is_deterministic_and_canonical():
    f = (2 * x + 2) / (4 * t)
    assert print_ratfunc(f) == print_ratfunc(sp.cancel((x + 1) / (2 * t)))
    # denominator comes out monic, content as a rational prefactor
    assert print_ratfunc(f) == "1/2*(x+1)/t"


# ---------------------------------------------------------------------------
# system files

def test_system_file_roundtrip(tmp_path, example1_path):
    sys1 = read_system(example1_path)
    out = tmp_path / "copy.json"
    write_system(str(out), sys1)
    sys2 = read_system(str(out))
    assert sys1.n == sys2.n
    assert all(teq(a, b) for a, b in zip(sys1.A, sys2.A))
    assert all(teq(a, b) for a, b in zip(sys1.B, sys2.B))
    # canonical files survive byte-identically
    write_system(str(tmp_path / "copy2.json"), sys2)
    assert (tmp_path / "copy.json").read_bytes() == \
        (tmp_path / "copy2.json").read_bytes()


def test_missing_B_key_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "A": [["1", "0"], ["0", "1"]]}))
    with pytest.raises(SchemaError) as err:
        read_system(str(bad))
    assert err.value.pointer == "/B"


def test_bad_entry_pointer(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "A": [["1", "0"], ["0", "1"]],
        "B": [["1", "x+*2"], ["0", "1"]]}))
    with pytest.raises(SchemaError) as err:
        read_system(str(bad))
    assert err.value.pointer == "/B/0/1"


def test_wrong_shape_pointer(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "A": [["1", "0"]], "B": [["1", "0"], ["0", "1"]]}))
    with pytest.raises(SchemaError) as err:
        read_system(str(bad))
    assert err.value.pointer == "/A"


# ---------------------------------------------------------------------------
# CLI

def test_cli_check_hermite(hermite_path, capsys):
    assert cli_main(["check", hermite_path]) == 0
    assert "integrable" in capsys.readouterr().out


def test_cli_check_bad_input_exit3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # integrability fails for this pair at every level
    bad.write_text(json.dumps({
        "n": 2, "A": [["x", "0"], ["0", "1"]],
        "B": [["t", "1"], ["0", "t"]],
        "assumptions": {"irreducible_over_k0": True}}))
    assert cli_main(["check", str(bad)]) == 3
    assert "residual" in capsys.readouterr().out


def test_cli_check_singular_A_exit3(tmp_path, capsys):
    """A singular A is an input error for check, as it is for solve."""
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": 2, "A": [["x", "x"], ["1", "1"]],
                                "B": [["0", "0"], ["0", "0"]]}))
    assert cli_main(["check", str(path)]) == 3
    assert cli_main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "internal error" not in err


def test_cli_solve_hermite_exit1(hermite_path):
    assert cli_main(["solve", hermite_path, "--assume-irreducible"]) == 1


def test_cli_internal_failure_exit4(example1_path, monkeypatch, capsys):
    """A failed internal check is neither a verdict nor an input error."""
    import ddsolve.procedures
    from ddsolve.sequences import VerifyResult
    monkeypatch.setattr(ddsolve.procedures, "verify_certificates",
                        lambda system, sol: VerifyResult(False, ["planted"]))
    assert cli_main(["solve", example1_path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: VerificationError")
    assert err.count("\n") == 1


def test_read_system_rejects_theta(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"n": 2, "A": [["theta", "0"], ["0", "1"]],
                                "B": [["0", "0"], ["0", "0"]]}))
    with pytest.raises(SchemaError) as err:
        read_system(str(path))
    assert err.value.pointer == "/A/0/0"


def test_cli_solve_missing_file_exit3(tmp_path):
    assert cli_main(["solve", str(tmp_path / "nope.json")]) == 3


def test_cli_json_deterministic(hermite_path, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cli_main(["solve", hermite_path, "--assume-irreducible",
              "--json", str(out1)])
    cli_main(["solve", hermite_path, "--assume-irreducible",
              "--json", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_tools_disp(capsys):
    assert cli_main(["tools", "disp", "x*(x+3)"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # disp ignores --step
    assert cli_main(["tools", "--step", "2", "disp", "x*(x+3)"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_tools_standard(capsys):
    assert cli_main(["tools", "standard", "x*(x+1)"]) == 0
    out = capsys.readouterr().out
    assert "standard = x^2" in out


def test_cli_tools_split(capsys):
    assert cli_main(["tools", "split", "(x^2+1)^2*(t^2+3)", "2"]) == 0
    out = capsys.readouterr().out
    assert "alpha = (x^2+1)" in out
    assert "beta = (t^2+3)" in out


def test_cli_tools_petkovsek(capsys):
    # (x+1) y(x) - x y(x+1) = 0 has ratio (x+1)/x
    assert cli_main(["tools", "petkovsek", "x+1", "-x"]) == 0
    out = capsys.readouterr().out
    assert "(x+1)/x" in out.replace(" ", "")


@pytest.mark.parametrize("coeffs, want", [
    (["1", "0", "-2"], ["-sqrt(2)/2", "sqrt(2)/2"]),
    (["1", "0", "1"], ["-I", "I"]),
])
def test_cli_tools_petkovsek_quadratic_constants(coeffs, want, capsys):
    # y(x) + c y(x+2) = 0: constant ratios with c r^2 = -1
    assert cli_main(["tools", "petkovsek", *coeffs]) == 0
    assert sorted(capsys.readouterr().out.split()) == want


def test_cli_tools_ratsol(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["(x+1)/x", "0"], ["0", "1"]]}))
    assert cli_main(["tools", "ratsol", str(mat)]) == 0
    assert "V_0" in capsys.readouterr().out


def test_cli_tools_hyperexp(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["1/t", "0"], ["0", "2"]]}))
    assert cli_main(["tools", "hyperexp", str(mat)]) == 0
    assert "certificate" in capsys.readouterr().out


def test_cli_tools_moser(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["1", "0"], ["0", "2"]]}))
    assert cli_main(["tools", "moser", str(mat)]) == 0
    assert "ord = 0" in capsys.readouterr().out


@pytest.mark.parametrize("M, want", [
    # one shearing step lowers the order from -2 to -1
    ([["0", "1"], ["-x*(x+1)", "2*x+1"]],
     "ord = -1\n"
     "moser_order = 2\n"
     "gauge =\n"
     "  [ 1  0 ]\n"
     "  [ 0  1/x ]\n"
     "reduced =\n"
     "  [ 0  x ]\n"
     "  [ -1*x  (2*x^2+x)/(x+1) ]\n"),
    # a gauged diag(t, 2t, 3t): Moser's lemma, not the plain shearing
    ([["3*t", "-1*(2*x*t+4*t^2+t)", "-1*(x*t+t^2-t)"], ["0", "t", "0"],
      ["0", "0", "2*t"]],
     "ord = 0\n"
     "moser_order = 1\n"
     "gauge =\n"
     "  [ 0  1  1/2 ]\n"
     "  [ 0  0  1 ]\n"
     "  [ 1/x  0  0 ]\n"
     "reduced =\n"
     "  [ t  1/2*t  0 ]\n"
     "  [ 0  2*t  0 ]\n"
     "  [ -1*(2*x*t+4*t^2+t)/(x+1)  1/2*(2*t^2+3*t)/(x+1)  3*(x*t)/(x+1) ]\n"),
])
def test_cli_tools_moser_prints_gauge_and_reduced_matrix(M, want, tmp_path,
                                                         capsys):
    """The full stdout of tools moser on matrices with a nontrivial gauge."""
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": M}))
    assert cli_main(["tools", "moser", str(mat)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["example1", "example2", "hermite"])
def test_cli_solve_stdout_matches_golden(name, capsys):
    """The human report of solve is tests/golden/NAME.stdout, byte for
    byte."""
    cli_main(["solve", str(SYSTEMS / f"{name}.json")])
    out = capsys.readouterr().out
    golden = SYSTEMS.parent / "tests" / "golden" / f"{name}.stdout"
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("coeffs, message", [
    (["1/x", "1"], "not in Q[x]: 1/x"),
    (["0", "0"], "only zero coefficients"),
    (["t", "-1"], "not in Q[x]: t"),
])
def test_cli_tools_petkovsek_input_outside_q_x_is_an_input_error(
        coeffs, message, capsys):
    assert cli_main(["tools", "petkovsek", *coeffs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("tool, M", [
    ("ratsol", [["1", "0"], ["0"]]),          # ragged rows
    ("moser", [["1", "0"], ["0"]]),
    ("moser", [["1", "0"]]),                  # not square
    ("moser", [["0", "(x^2-1)/(x-1)-x-1"], ["0", "0"]]),  # zero matrix
    ("hyperexp", [["1", "0"]]),
    ("ratsol", [["1", "0"]]),
    ("hyperexp", []),                         # empty
    ("ratsol", [["0", "0"], ["0", "0"]]),     # not invertible
    ("ratsol", [["x", "1"], ["x^2", "x"]]),
    ("ratsol", [["theta", "0"], ["0", "1"]]),  # entry outside Q(x, t)
    ("moser", [["theta", "0"], ["0", "1"]]),
    ("hyperexp", [["theta", "0"], ["0", "1"]]),
])
def test_cli_tools_malformed_matrix_is_an_input_error(tool, M, tmp_path,
                                                      capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": M}))
    assert cli_main(["tools", tool, str(mat)]) == 3
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_tools_hyperexp_zero_matrix_is_valid(tmp_path, capsys):
    # delta(Y) = 0: every constant vector is a solution
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["0", "0"], ["0", "0"]]}))
    assert cli_main(["tools", "hyperexp", str(mat)]) == 0
    assert capsys.readouterr().out.count("certificate = 0") == 2


def _one_input_error(capsys) -> str:
    """The single stderr line of a tool that exited 3, with no stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["disp", "0"], ["standard", "0"], ["split", "0", "2"],
    ["disp", "(x^2-1)/(x-1)-x-1"],
    ["disp", "theta"], ["standard", "theta"], ["split", "theta", "2"],
    ["split", "x", "abc"], ["split", "x", "0"],
])
def test_cli_tools_shift_tools_take_nonzero_elements_of_q_x_t(argv,
                                                              capsys):
    """disp, standard and split work on nonzero elements of Q(x, t) and
    split on a positive integer n."""
    assert cli_main(["tools", *argv]) == 3
    _one_input_error(capsys)


@pytest.mark.parametrize("argv, message", [
    (["--step", "0", "petkovsek", "x", "-1"], "--step must be >= 1"),
    (["--step", "0", "ratsol", "M"], "--step must be >= 1"),
    (["--step", "-2", "standard", "x"], "--step must be >= 1"),
    (["standard", "x*(x+2)", "--step", "2"], "misplaced option --step"),
    (["petkovsek", "x", "-1", "--step=2"], "misplaced option --step=2"),
    (["split", "x"], "split takes 2 argument(s), got 1"),
    (["split", "x^2", "2", "3"], "split takes 2 argument(s), got 3"),
    (["disp", "x", "x+1"], "disp takes 1 argument(s), got 2"),
    (["standard"], "standard takes 1 argument(s), got 0"),
    (["moser", "M", "M"], "moser takes 1 argument(s), got 2"),
    (["ratsol"], "ratsol takes 1 argument(s), got 0"),
    (["hyperexp", "M", "2"], "hyperexp takes 1 argument(s), got 2"),
    (["petkovsek"], "petkovsek takes at least 1 argument(s), got 0"),
])
def test_cli_tools_step_and_argument_counts(argv, message, tmp_path,
                                            capsys):
    """--step m >= 1 goes before the tool name, and each tool checks its
    argument count; a count error points at a misplaced option."""
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["1", "0"], ["0", "1"]]}))
    argv = [str(mat) if a == "M" else a for a in argv]
    assert cli_main(["tools", *argv]) == 3
    line = _one_input_error(capsys)
    assert message in line
    assert not line.startswith("input error: :")
    if "argument(s)" in message:
        assert "--step" in line


# ---------------------------------------------------------------------------
# solution files

def test_solution_file_roundtrip(tmp_path, hermite_path):
    # build a tiny synthetic solution file and re-read it
    from ddsolve.files import write_solution
    from ddsolve.procedures import Outcome
    from ddsolve.sequences import HypCert
    sol = solution(sp.Matrix([1, x]),
                   HypCert(sigma_ratio=x + 1, sigma_step=1, delta_ratio=1 / t))
    outcome = Outcome("Solved", "DP1", solutions=[sol])
    out = tmp_path / "sol.json"
    write_solution(str(out), outcome)
    tower, sols, raw = read_solution(str(out))
    assert tower.trivial
    assert raw["tower"] == "trivial"
    assert len(sols) == 1
    assert teq(sols[0].cert.sigma_ratio, x + 1)
    assert teq(sols[0].W[1], x)


# ---------------------------------------------------------------------------
# verify --t0: a point the window cannot use is an input error

GOLDEN = SYSTEMS.parent / "tests" / "golden"


@pytest.mark.parametrize("name, t0, why", [
    ("example1", "abc", "not a rational number"),
    # theta^2 = t^2 + 1 is reducible at t = 0
    ("example1", "0", "reducible at t = 0"),
    # W = x/(t^3 + t*x) and A have a denominator that vanishes at t = 0
    ("example2", "0", "vanishes at t = 0"),
])
def test_cli_verify_rejects_bad_t0(name, t0, why, capsys):
    code = cli_main(["verify", str(SYSTEMS / f"{name}.json"),
                     str(GOLDEN / f"{name}.json"), "--t0", t0])
    out, err = capsys.readouterr()
    assert code == 3, out + err
    assert err.startswith("input error: --t0") and why in err
    assert "FAILED" not in out


@pytest.mark.parametrize("t0", ["1/2", "-1/2"])
def test_cli_verify_runs_at_rational_t0(t0, capsys):
    """example2's poles are at t = 0: a non-integer t0 is checked at t0
    itself, not at a rounded point."""
    code = cli_main(["verify", str(SYSTEMS / "example2.json"),
                     str(GOLDEN / "example2.json"), f"--t0={t0}",
                     "--terms", "5"])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert "solution 0: ok" in out


def test_cli_verify_rejects_rational_pole(tmp_path, capsys):
    """A pole at 2t - 1 rejects --t0 1/2 and no other point."""
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({
        "n": 2, "A": [["x+1", "0"], ["0", "x+1"]],
        "B": [["2/(2*t-1)", "0"], ["0", "2/(2*t-1)"]],
        "assumptions": {"irreducible_over_k0": False}}))
    sol = tmp_path / "pole_sol.json"
    assert cli_main(["solve", str(path), "--json", str(sol)]) == 0
    capsys.readouterr()
    code = cli_main(["verify", str(path), str(sol), "--t0", "1/2"])
    out, err = capsys.readouterr()
    assert code == 3, out + err
    assert err.startswith("input error: --t0")
    assert "vanishes at t = 1/2" in err
    code = cli_main(["verify", str(path), str(sol), "--t0", "1/3",
                     "--terms", "5"])
    out, err = capsys.readouterr()
    assert code == 0, out + err


def test_cli_verify_mismatch_stays_failed(tmp_path, capsys):
    """A doubled sigma-ratio is a failed verification, exit 1."""
    data = json.loads((GOLDEN / "example1.json").read_text())
    data["solutions"][0]["sigma_ratio"] = "2*(x^2*theta+theta)"
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(data))
    code = cli_main(["verify", str(SYSTEMS / "example1.json"), str(path),
                     "--t0", "2", "--terms", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "solution 0: FAILED" in out and "solution 1: ok" in out


# ---------------------------------------------------------------------------
# malformed entries are input errors, located by their JSON pointer

def _edited(tmp_path, path, edit):
    """A copy of the JSON file at path, changed in place by edit."""
    data = json.loads(pathlib.Path(path).read_text())
    edit(data)
    out = tmp_path / pathlib.Path(path).name
    out.write_text(json.dumps(data))
    return str(out)


def _set_a00(value):
    def edit(data):
        data["A"][0][0] = value
    return edit


def _set_w0(value):
    def edit(data):
        data["solutions"][0]["W"][0] = value
    return edit


def _set_solution0(key, value):
    def edit(data):
        data["solutions"][0][key] = value
    return edit


@pytest.mark.parametrize("argv, pointer", [
    # a system entry that divides by zero
    (lambda tmp: ["solve", _edited(tmp, SYSTEMS / "example1.json",
                                   _set_a00("0^-1"))], "/A/0/0"),
    # a solution entry over the tower that divides by zero
    (lambda tmp: ["verify", str(SYSTEMS / "example1.json"),
                  _edited(tmp, GOLDEN / "example1.json", _set_w0("0^-1"))],
     "/solutions/0/W/0"),
    # theta in a solution file whose tower is trivial
    (lambda tmp: ["verify", str(SYSTEMS / "example2.json"),
                  _edited(tmp, GOLDEN / "example2.json", _set_w0("theta"))],
     "/solutions/0/W/0"),
    # a W shorter than the order of the system, an empty W, a step 0
    (lambda tmp: ["verify", str(SYSTEMS / "example1.json"),
                  _edited(tmp, GOLDEN / "example1.json",
                          _set_solution0("W", ["1"]))], "/solutions/0/W"),
    (lambda tmp: ["verify", str(SYSTEMS / "example1.json"),
                  _edited(tmp, GOLDEN / "example1.json",
                          _set_solution0("W", []))], "/solutions/0/W"),
    (lambda tmp: ["verify", str(SYSTEMS / "example1.json"),
                  _edited(tmp, GOLDEN / "example1.json",
                          _set_solution0("sigma_step", 0))],
     "/solutions/0/sigma_step"),
])
def test_malformed_entry_exits_as_input_error(argv, pointer, tmp_path,
                                              capsys):
    assert cli_main(argv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {pointer}: ")
    assert "internal error" not in err


def test_theta_free_value_is_a_system_entry(tmp_path):
    """An entry is read by its value: theta - theta + a is the entry a."""
    path = SYSTEMS / "example1.json"
    a00 = json.loads(path.read_text())["A"][0][0]
    edited = read_system(_edited(tmp_path, path,
                                 _set_a00(f"theta-theta+{a00}")))
    assert edited.A_K == read_system(str(path)).A_K


def test_cli_tools_hyperexp_one_exponent_per_integer_class(tmp_path,
                                                           capsys):
    """The residue eigenvalues 2, 0 at t = 0 and 0, -1 at t = -1 differ by
    integers, so one certificate serves, with one candidate per dimension
    of the 2-dimensional solution space."""
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"M": [["2/t", "-1/(t+1)-2/t"],
                                     ["0", "-1/(t+1)"]]}))
    assert cli_main(["tools", "hyperexp", str(mat)]) == 0
    assert capsys.readouterr().out.count("certificate") == 2
