"""tools/estimate_sweep.py, imported from its file, unchanged."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from umbralint.closedforms import get_identity

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.fixture(scope="module")
def estimate_sweep():
    sys.path.insert(0, str(TOOLS))   # for its import of bench_pairs, as when run as a script
    try:
        spec = importlib.util.spec_from_file_location("estimate_sweep", TOOLS / "estimate_sweep.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def test_points_are_seeded_and_in_each_domain(estimate_sweep):
    points = estimate_sweep.points(1)
    assert Counter(i for i, _ in points) == {"eq12_struve_halfline": 100,
                                            "eq13_struve_moment": 70,
                                            "eq08_fresnel_bessel": 65,
                                            "eq31_borel_cosine": 50,
                                            "eq35_borel_pseudo_trig3": 50,
                                            "eq02_mellin_exponential": 60,
                                            "eq02_mellin_rational": 60,
                                            "eq28_bessel_gauss_dilation": 60,
                                            "eq30_lorentz_gauss": 60,
                                            "eq36_beta_exponential": 60}
    assert points == estimate_sweep.points(1) != estimate_sweep.points(2)
    for identity_id, params in points:
        assert get_identity(identity_id).check_point(params) == (True, ""), params


def test_sweep_summarises_each_identity(estimate_sweep, monkeypatch):
    # two points of each identity at the three tolerances
    monkeypatch.setattr(estimate_sweep, "DRAWS", {
        i: (2, draw) for i, (_, draw) in estimate_sweep.DRAWS.items()})
    summary = estimate_sweep.sweep(ROOT, 1)
    assert set(summary) == set(estimate_sweep.DRAWS)
    for row in summary.values():
        assert row["results"] == 2 * len(estimate_sweep.TOLERANCES)
        assert row["over"] == 0 and not row["errors"]
        assert 0.0 < row["worst"] <= estimate_sweep.RULE
        assert row["evaluations"] > 0
