"""The bundled-data generator reproduces the committed files byte for byte,
and refuses a derivation that planted truth contradicts."""

import importlib.util
from pathlib import Path

import pytest

from tracesig.simulate import Always, Probability

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "tracesig" / "data"


def load_generator():
    path = ROOT / "tools" / "gen_bundled_data.py"
    spec = importlib.util.spec_from_file_location("gen_bundled_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_matches_committed_data():
    generated = {rel: text.encode("utf-8") for rel, text in load_generator().build_all().items()}
    committed = {
        path.relative_to(DATA).as_posix(): path.read_bytes()
        for path in DATA.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert generated == committed


def test_generator_refuses_a_core_that_planted_truth_contradicts():
    """Two prefetch files share one template; only one is planted in the core,
    so ``derive`` keeps it literal and the derived core is not the planted one."""
    gen = load_generator()
    rules = [
        gen.rule("C:\\WINDOWS\\Prefetch\\X.EXE-11111111.pf", "modified", Always()),
        gen.rule("C:\\WINDOWS\\Prefetch\\X.EXE-22222222.pf", "accessed", Probability(0.5)),
    ]
    with pytest.raises(AssertionError, match="is not the planted core"):
        gen.derived_signature("x_open", rules)
