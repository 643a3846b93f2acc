"""tools/census_gate.py, imported from its file, unchanged; the census
itself is stubbed, so that the mpmath references stay out of this suite."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "census_gate.py"

CEILINGS = {"verify_ladder": {},
            "verify_plain": {"eq30_lorentz_gauss (timed): mismatch": 60},
            "eval_kernel": {"pseudo_trig: mismatch": 38, "beta: mismatch": 7},
            "found": {"pseudo_trig: mismatch": 1}}


@pytest.fixture(scope="module")
def census_gate():
    spec = importlib.util.spec_from_file_location("census_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def gate(census_gate, monkeypatch, tmp_path):
    """main() against CEILINGS, with the census returning the given counts."""
    path = tmp_path / "CENSUS.json"
    path.write_text(json.dumps(CEILINGS))
    monkeypatch.setattr(census_gate, "CEILINGS", path)

    def run(counts, problems=()):
        monkeypatch.setattr(census_gate, "census",
                            lambda workload: (counts.get(workload, {}), list(problems)))
        return census_gate.main()
    return run


def test_failure_counts_read_both_kinds_of_notes(census_gate):
    assert census_gate.failure_counts(
        {"baseline_cases": [], "census_failures": {"beta: mismatch": 7}}) == {"beta: mismatch": 7}
    assert census_gate.failure_counts(
        {"default_grid_failures": ["eq30_lorentz_gauss(x=5): mismatch"],
         "seeded_failures": {"eq30_lorentz_gauss (timed): mismatch": 60}}) == {
        "eq30_lorentz_gauss (timed): mismatch": 60, "eq30_lorentz_gauss(x=5): mismatch": 1}


def test_counts_at_their_ceilings_pass(gate, capsys):
    assert gate(CEILINGS) == 0
    out = capsys.readouterr().out
    assert "rose" not in out and "fell" not in out


def test_a_rise_fails(gate, capsys):
    counts = {**CEILINGS, "eval_kernel": {**CEILINGS["eval_kernel"], "beta: mismatch": 8}}
    assert gate(counts) == 1
    assert "rose: eval_kernel: 'beta: mismatch' 7 -> 8" in capsys.readouterr().out


def test_a_new_key_fails(gate, capsys):
    counts = {**CEILINGS, "verify_ladder": {"eq12_struve_halfline (timed): engine_error": 1}}
    assert gate(counts) == 1
    assert ("rose: verify_ladder: 'eq12_struve_halfline (timed): engine_error' none -> 1"
            in capsys.readouterr().out)


def test_a_checker_problem_fails(gate, capsys):
    assert gate(CEILINGS, ["self-test: ref off"]) == 1
    assert "checker problem: eval_kernel: self-test: ref off" in capsys.readouterr().out


def test_a_fall_passes_and_prints_the_lowered_file(gate, capsys):
    counts = {**CEILINGS, "eval_kernel": {"pseudo_trig: mismatch": 30}}
    assert gate(counts) == 0
    out = capsys.readouterr().out
    assert "fell: eval_kernel: 'pseudo_trig: mismatch' 38 -> 30" in out
    assert "fell: eval_kernel: 'beta: mismatch' 7 -> 0" in out
    lowered = json.loads(out[out.index("{"):])
    assert lowered == {**CEILINGS, "eval_kernel": {"pseudo_trig: mismatch": 30}}


def test_a_rise_in_found_fails(gate, capsys):
    counts = {**CEILINGS, "found": {"pseudo_trig: mismatch": 1, "struve_halfline: mismatch": 1}}
    assert gate(counts) == 1
    assert "rose: found: 'struve_halfline: mismatch' none -> 1" in capsys.readouterr().out


def test_found_inputs_are_judged_against_their_references(census_gate, monkeypatch,
                                                          tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    path = tmp_path / "FOUND.json"
    path.write_text(json.dumps([
        {"kind": "gamma", "args": [5.0], "reference": "24"},
        {"kind": "gamma", "args": [6.0], "reference": "24"},
        {"kind": "gamma", "args": [-1.0], "reference": "1"}]))
    monkeypatch.setattr(census_gate, "FOUND", path)
    assert census_gate.found_counts() == {"gamma: engine_error": 1, "gamma: mismatch": 1}


def test_every_found_entry_names_its_changes_line():
    lines = (ROOT / "CHANGES.md").read_text().splitlines()
    for entry in json.loads((ROOT / "FOUND.json").read_text()):
        assert any(line.startswith((f"FOUND: {entry['changes']}", f"MENDED: {entry['changes']}"))
                   for line in lines), entry
