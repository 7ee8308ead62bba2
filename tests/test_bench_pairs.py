"""The verdicts of scripts/bench_pairs.py, on made-up medians."""

import importlib.util

import pytest

from conftest import ROOT

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("base, change, better, bound, want", [
    (1.0, 1.0, "lower", 0.22, False),
    (1.0, 1.21, "lower", 0.22, False),
    (1.0, 1.23, "lower", 0.22, True),
    (1.0, 0.5, "lower", 0.22, False),      # a gain is no regression
    (100.0, 110.5, "lower", 0.10, True),
    (0.5, 0.4, "higher", 0.10, True),
    (0.5, 0.46, "higher", 0.10, False),
    (0.5, 0.9, "higher", 0.10, False),
])
def test_regress_is_worse_by_more_than_the_bound(base, change, better,
                                                 bound, want):
    assert bench_pairs.regress(base, change, better, bound) is want


def test_failed_share_sums_over_runs():
    runs = [{"attempted": 2, "failed": 0}, {"attempted": 3, "failed": 1}]
    assert bench_pairs.failed_share(runs) == "1/5"
    assert bench_pairs.failed_share([]) == "0/0"
