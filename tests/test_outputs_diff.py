"""tools/outputs_diff.py, imported from its file, unchanged."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def outputs_diff():
    sys.path.insert(0, str(TOOLS))   # for its import of bench_pairs, as when run as a script
    try:
        spec = importlib.util.spec_from_file_location("outputs_diff", TOOLS / "outputs_diff.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def verify_record(closed, oracle):
    """A verify point's record as the tool dumps it, floats by their repr."""
    return {"value": {"closed_form_value": {"re": repr(closed), "im": "0.0"},
                      "oracle_value": {"re": repr(oracle), "im": "0.0"}}}


def test_verify_point_is_judged_on_verify_scale(outputs_diff):
    # eq12 at nu = -1: the integral is exactly 0 and both oracle values are
    # about 5e-10 from it, so the move is 4e-11 on verify's scale of 1, not
    # 8e-2 of the oracle values themselves
    rel = outputs_diff.relative_difference(verify_record(0.0, 5.0e-10),
                                           verify_record(0.0, 4.6e-10))
    assert rel == pytest.approx(4.0e-11, rel=1e-6)
    # past 1 the scale is the largest of the closed and oracle values
    rel = outputs_diff.relative_difference(verify_record(-40.0, -40.0 + 2e-9),
                                           verify_record(-40.0, -40.0 + 1e-9))
    assert rel == pytest.approx(1e-9 / 40.0, rel=1e-6)


def test_eval_value_keeps_its_own_scale(outputs_diff):
    rel = outputs_diff.relative_difference({"value": repr(5.0e-10)},
                                           {"value": repr(4.6e-10)})
    assert rel == pytest.approx(0.08, rel=1e-12)
    assert outputs_diff.relative_difference({"value": "1.0"}, {"raised": "DomainError"}) is None


def test_only_the_fields_that_differ_are_printed(outputs_diff):
    base = {"value": {"identity": "eq12_struve_halfline", "oracle_cost": 435,
                      "oracle_value": {"re": "0.5", "im": "0.0"},
                      "oracle_error_estimate": "2.924842762661863e-07"}}
    change = {"value": {**base["value"], "oracle_error_estimate": "2.9248427626436267e-07"}}
    assert outputs_diff.field_changes(base, change) == [
        "oracle_error_estimate: 2.924842762661863e-07 -> 2.9248427626436267e-07"]
    moved = {"value": {**base["value"], "oracle_value": {"re": "0.5", "im": "-0.0"}}}
    assert outputs_diff.field_changes(base, moved) == ["oracle_value.im: 0.0 -> -0.0"]
    assert outputs_diff.field_changes(base, base) == []


def test_an_eval_that_raises_on_one_side(outputs_diff):
    assert outputs_diff.field_changes({"value": ["1.0", "0.0"]}, {"raised": "DomainError"}) == [
        'value: ["1.0", "0.0"] -> null', "raised: null -> DomainError"]


def test_a_field_one_side_lacks_as_null_is_no_difference(outputs_diff, monkeypatch, capsys):
    # a report field the change drops, null on every base record, moves no
    # input; a field that was not null does
    point = {"oracle_cost": 435, "oracle_value": {"re": "0.5", "im": "0.0"}}
    base = {"verify_plain seed 1 #0 eq12_struve_halfline {}": {"value": {**point, "gone": None}},
            "verify_plain seed 1 #1 eq12_struve_halfline {}": {"value": {**point, "gone": 1}}}
    change = {key: {"value": dict(point)} for key in base}
    sides = iter([base, change])
    monkeypatch.setattr(outputs_diff, "extract", lambda rev, tmp: tmp)
    monkeypatch.setattr(outputs_diff, "outputs", lambda root, seeds: next(sides))
    assert outputs_diff.main(["--base", "HEAD", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 inputs differ" in out
    assert "#0" not in out and "  gone: 1 -> null" in out
