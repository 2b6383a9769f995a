"""The bundled-data generator reproduces the committed files byte for byte,
and refuses a derivation that planted truth contradicts or a fixture that no
longer verifies."""

import importlib.util
import shutil
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


IE8_FIXTURE = "fixtures/ie8_2010-04-12.csv"
PREFETCH = "\\IEXPLORE.EXE-27122324.pf,{}Z,"  # the start of its row: path, modified


@pytest.fixture
def generator_on_copy(tmp_path, monkeypatch):
    """The generator, reading and writing a copy of the committed data."""
    gen = load_generator()
    copy = tmp_path / "data"
    shutil.copytree(DATA, copy, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    monkeypatch.setattr(gen, "DATA", copy)
    return gen, copy


def data_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "moved",
    [
        "2010-04-12T15:30:37",  # out of the window: no longer Detected
        "2010-04-12T14:30:38",  # a second later: the event interval moves
    ],
)
def test_generator_refuses_a_drifted_fixture_and_writes_nothing(generator_on_copy, moved):
    gen, copy = generator_on_copy
    fixture = copy / IE8_FIXTURE
    text = fixture.read_text(encoding="utf-8")
    row = PREFETCH.format("2010-04-12T14:30:37")
    assert text.count(row) == 1
    fixture.write_text(text.replace(row, PREFETCH.format(moved)), encoding="utf-8")
    before = data_files(copy)
    with pytest.raises(AssertionError, match="ie8_2010-04-12.csv"):
        gen.main()
    assert data_files(copy) == before


def test_regeneration_refuses_a_fixture_not_in_canonical_form(generator_on_copy):
    """Rows out of order still verify, but the generator writes the fixture
    back in canonical form, so the regenerated data differ from what was
    committed: the difference ``test_generator_matches_committed_data`` and
    CI's regeneration step both fail on."""
    gen, copy = generator_on_copy
    fixture = copy / IE8_FIXTURE
    canonical = fixture.read_text(encoding="utf-8")
    lines = canonical.splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if line.startswith("kind,path,")) + 1
    shuffled = "".join(lines[:body] + lines[body:][::-1])
    assert shuffled != canonical
    fixture.write_text(shuffled, encoding="utf-8")
    gen.main()
    assert fixture.read_text(encoding="utf-8") == canonical != shuffled
