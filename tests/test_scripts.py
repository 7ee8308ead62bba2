"""scripts/solve_and_verify.py run in-process: solve, write, read and
verify through the CLI."""

import importlib.util

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
