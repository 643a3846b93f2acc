"""tools/kind_pairs.py, imported from its file, unchanged; the two trees are
stubs, so that no census or timing runs in this suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def kind_pairs():
    sys.path.insert(0, str(TOOLS))   # for its import of bench_pairs, as when run as a script
    try:
        spec = importlib.util.spec_from_file_location("kind_pairs", TOOLS / "kind_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def stub_tree(root: Path, value: str) -> Path:
    """A tree whose umbralint returns ``value``; its workloads import
    ``extra``, which the package itself does not."""
    package = root / "src" / "umbralint"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from . import core\n")
    (package / "core.py").write_text(f"VALUE = {value!r}\n")
    (package / "extra.py").write_text("from .core import VALUE\n")
    (root / "bench").mkdir()
    (root / "bench" / "workloads.py").write_text(
        "from umbralint import core, extra\n"
        "EVAL_CALLS = {'value': lambda: core.VALUE, 'extra': lambda: extra.VALUE}\n")
    return root


@pytest.fixture
def stubs(kind_pairs, tmp_path):
    """Both stub trees' EVAL_CALLS, loaded as the tool loads its two sides."""
    own = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "umbralint"}
    yield {side: kind_pairs.load_tree(stub_tree(tmp_path / side, side), f"stub_{side}").EVAL_CALLS
           for side in kind_pairs.SIDES}
    for key in [k for k in sys.modules if k.startswith("stub_")]:
        del sys.modules[key]
    assert {k: v for k, v in sys.modules.items() if k.split(".")[0] == "umbralint"} == own


def test_each_side_sees_its_own_tree(stubs):
    for side, calls in stubs.items():
        assert calls["value"]() == side
        assert calls["extra"]() == side


def test_loading_leaves_the_own_package_in_place(stubs):
    assert "umbralint.extra" not in sys.modules
    assert sys.modules["stub_base.extra"] is not sys.modules["stub_change.extra"]


def test_rounds_alternate_which_side_goes_first(kind_pairs):
    order, seconds = [], {"base": iter([3.0, 1.0, 2.0]), "change": iter([2.0, 1.0, 1.5])}

    def run(side):
        order.append(side)
        return next(seconds[side])

    times = kind_pairs.alternate(run, 3)
    assert order == ["base", "change", "change", "base", "base", "change"]
    assert kind_pairs.summary(times) == {
        "base": {"best": 1.0, "median": 2.0, "won": 0},
        "change": {"best": 1.0, "median": 1.5, "won": 2}}
