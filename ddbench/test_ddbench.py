"""Tests for the benchmark's own parts: oracle, generator and tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q ddbench/test_ddbench.py

The tracer test solves example1 under cProfile and takes about a minute.
"""

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import sympy as sp

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle   # noqa: E402
import planted  # noqa: E402
import tracer   # noqa: E402

x, t, theta = oracle.x, oracle.t, oracle.theta


def _solved_example1(certs):
    sols = [SimpleNamespace(cert=SimpleNamespace(delta_ratio=c))
            for c in certs]
    return SimpleNamespace(kind="Solved", provenance="DP1", stage="",
                           reason="", report={"alpha": x**2 + 1},
                           solutions=sols)


BASE = t * x / (t**2 + 1) + 1


def test_oracle_accepts_known_answer_in_any_form():
    # theta^3 = (t^2+1) theta, so this is the same certificate
    other = sp.expand(BASE - theta**3 / (t**2 + 1))
    check = oracle.check_solve("example1", _solved_example1(
        [other, BASE + theta]))
    assert not check.failed, check.reason


def test_oracle_rejects_wrong_verdict():
    out = SimpleNamespace(kind="NoLiouvillianSolutions", provenance="DP1+DP2",
                          stage="", reason="", report={}, solutions=[])
    check = oracle.check_solve("example1", out)
    assert check.failed and check.wrong
    hermite_solved = SimpleNamespace(kind="Solved", provenance="DP1",
                                     stage="", reason="", report={},
                                     solutions=[])
    assert oracle.check_solve("hermite", hermite_solved).wrong


def test_oracle_rejects_corrupted_certificate():
    check = oracle.check_solve("example1", _solved_example1(
        [BASE + theta, BASE - theta + 1]))
    assert check.failed and check.wrong
    assert "delta-certificates" in check.reason


def test_oracle_counts_inconclusive_as_wrong_only_when_ungauged():
    out = SimpleNamespace(kind="Inconclusive", provenance="DP1", stage="b",
                          reason="restricted subroutine", report={},
                          solutions=[])
    check = oracle.check_solve("example1", out, gauged=True)
    assert check.failed and not check.wrong
    check = oracle.check_solve("example1", out)
    assert check.failed and check.wrong


def test_oracle_verify_exit_codes():
    assert not oracle.check_verify("example1.json", 0).failed
    assert oracle.check_verify("example1-corrupt.json", 0).wrong
    assert oracle.check_verify("example1.json", 1).wrong
    assert oracle.check_verify("example1.json", 3).wrong


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    def files(outdir, seed):
        members = planted.write_members(seed, ROOT / "systems", outdir)
        return [pathlib.Path(p).read_bytes() for _n, _s, p in members]

    first = files(tmp_path / "a", 7)
    assert first == files(tmp_path / "b", 7)
    assert first != files(tmp_path / "c", 8)


def test_generator_gauges_are_unimodular_and_linear():
    for seed in range(20):
        for _name, _src, G, _sys in planted.generate(seed, ROOT / "systems"):
            assert G.det() in (1, -1)
            for e in G:
                p = sp.Poly(e, x, t)
                assert p.degree(x) <= 1 and p.degree(t) <= 1


def test_generated_member_parses_and_stays_integrable(tmp_path):
    # the ddsolve grammar must read back exactly what the generator meant,
    # and the gauge must keep sigma(B) = delta(A) A^-1 + A B A^-1
    from ddsolve.files import read_system
    from ddsolve.procedures import check_integrability

    members = planted.write_members(3, ROOT / "systems", tmp_path)
    gen = {name: (G, system) for name, _s, G, system
           in planted.generate(3, ROOT / "systems")}
    with open(ROOT / "systems" / "hermite.json", encoding="utf-8") as fh:
        source = json.load(fh)
    for name, src, path in members:
        if src != "hermite":
            continue
        parsed = read_system(str(path))
        G, _ = gen[name]
        A = sp.Matrix(2, 2, [planted._parse_bundled(e)
                             for row in source["A"] for e in row])
        A2 = G.subs(x, x + 1).inv() * A * G
        assert sp.simplify(parsed.A - A2) == sp.zeros(2, 2)
        ok, _res = check_integrability(parsed.A, parsed.B)
        assert ok


def test_self_time_excludes_children_and_recursion_counts_once():
    spans = [["fields.treduce", 0.0, 10.0, -1, "op", False, None],
             ["fields.treduce", 2.0, 5.0, 0, "op", True, None],
             ["fields.mat_inv", 6.0, 7.0, 0, "op", False, None]]
    rec = tracer.summarize(spans)
    assert rec["fields.treduce"]["calls"] == 2
    assert rec["fields.treduce"]["raised"] == 1
    assert rec["fields.treduce"]["total_s"] == 10.0
    assert rec["fields.treduce"]["self_s"] == (10.0 - 3.0 - 1.0) + 3.0
    assert rec["fields.mat_inv"]["self_s"] == 1.0


_PROFILE_AND_TRACE = r"""
import cProfile, json, pstats, sys, tempfile
import ddsolve, ddsolve.cli
import tracer
tr = tracer.Tracer("dp1-tower")
tracer.install(tr)
prof = cProfile.Profile()
prof.enable()
system = ddsolve.read_system(sys.argv[1])
outcome = ddsolve.solve_liouvillian(system)
with tempfile.TemporaryDirectory() as d:
    ddsolve.write_solution(d + "/out.json", outcome)
prof.disable()
ncalls = sum(v[1] for k, v in pstats.Stats(prof).stats.items()
             if k[2] == "treduce" and k[0].endswith("fields.py"))
spans = tr.spans
def under(i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
idx = [i for i, s in enumerate(spans) if s[0] == "fields.treduce"]
print(json.dumps({
    "kind": outcome.kind, "cprofile": ncalls,
    "traced": tracer.summarize(spans)["fields.treduce"]["calls"],
    "parse": sum(under(i, "files.read_system") for i in idx),
    "write": sum(under(i, "files.write_solution") for i in idx)}))
"""


def test_traced_treduce_calls_equal_cprofile_ncalls():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILE_AND_TRACE,
         str(ROOT / "systems" / "example1.json")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    print(got)
    assert got["kind"] == "Solved"
    assert got["traced"] == got["cprofile"] > 0
    assert got["parse"] > 0 and got["write"] > 0


def test_ticker_seconds_count_fractions_of_chunks():
    import run
    ticker = run.Ticker.__new__(run.Ticker)   # no process: ends given
    ticker.ends = [1.0, 2.0, 3.0, 5.0]
    per_chunk = 1 / run.REF_TICKS_PER_S
    assert ticker.seconds(1.0, 3.0) == 2 * per_chunk
    # half of the chunk from 1 to 2, then a quarter of the one from 3 to 5
    assert abs(ticker.seconds(1.5, 3.5) - 1.75 * per_chunk) < 1e-12
    assert ticker.seconds(6.0, 7.0) == 0.0
