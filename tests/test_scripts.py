"""scripts/solve_and_verify.py run in-process: solve, write, read and
verify through the CLI."""

import importlib.util

import pytest

from conftest import ROOT, SYSTEMS

_SPEC = importlib.util.spec_from_file_location(
    "solve_and_verify", ROOT / "scripts" / "solve_and_verify.py")
solve_and_verify = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solve_and_verify)


def test_solve_and_verify_example2(tmp_path, capsys):
    """example2's Interlaced solutions survive the file round trip and
    its verification at t0 = 1."""
    out = tmp_path / "example2.json"
    code = solve_and_verify.main([str(SYSTEMS / "example2.json"), str(out)])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "solution 0 (interlaced, class 0 mod 3)" in text
    assert [f"solution {k}: ok" for k in range(3)] == [
        line for line in text.splitlines() if line.endswith(": ok")]
    assert "verify exit code: 0" in text


_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
# compare_outputs extracts revisions with git archive
_IN_GIT = pytest.mark.skipif(not (ROOT / ".git").exists(),
                             reason="needs the git repository")


@_IN_GIT
def test_compare_outputs_finds_head_equal_to_itself(capsys):
    """HEAD against HEAD on hermite: both solves, the check and the two
    verifies of its golden are the same, and the exit code is 0."""
    code = compare_outputs.main(["HEAD", "HEAD", "--systems", "hermite"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line for line in lines if line.startswith("same")] == [
        "same     solve hermite", "same     solve hermite "
        "--assume-irreducible", "same     check hermite",
        "same     verify tests/golden/hermite.json",
        "same     verify tests/golden/hermite.json --t0 1"]
    assert lines[-1].endswith(": 0 difference(s)")


@_IN_GIT
def test_compare_outputs_exits_nonzero_on_a_difference(monkeypatch, capsys):
    """A command whose output differs between the trees is printed with
    its diff, and the exit code is 1."""
    def run(tree, argv, written):
        return f"exit code 0\n--- stdout\n{tree.name} {argv[0]}\n"

    monkeypatch.setattr(compare_outputs, "run", run)
    code = compare_outputs.main(["HEAD", "HEAD", "--systems", "hermite"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DIFFERS  check hermite" in out
    assert "-base check\n+change check\n" in out
    assert out.rstrip().endswith(": 5 difference(s)")
