"""The bundled-data generator reproduces the committed files byte for byte."""

import importlib.util
from pathlib import Path

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
