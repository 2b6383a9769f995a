"""Mutated inputs reach the user as the loader's own format error, never a crash.

Each loader is fed byte-level mutations of a bundled file; the two JSON
loaders also get documents with one value swapped for another JSON value.
Whatever the input, a loader either returns or raises its own ``ValueError``
subclass, which the CLI reports with exit code 2.  The runs are
derandomized, so a failure reproduces on every machine.
"""

import json
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracesig.capture import CaptureFormatError, parse_capture
from tracesig.categorize import read_observations
from tracesig.data import fixture_text, signature_text
from tracesig.evidence import SnapshotFormatError, parse_snapshot
from tracesig.signatures import SignatureFormatError, load_signature
from tracesig.simulate import ScenarioError, load_scenario, run_scenario, write_scenario_outputs

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

SNAPSHOTS = (
    "ie8_2010-04-12.csv",
    "ff36_2010-04-14.csv",
    "msn2009_2010-04-14_1949.csv",
)
SIGNATURES = ("ie8_open", "msn2009_open", "ff36_open")

# Bytes that carry structure in CSV, snapshot metadata, timestamps and JSON.
SPECIAL = st.sampled_from(
    [b",", b'"', b"\n", b"\r", b"#", b"=", b"-", b":", b"T", b"Z", b"0", b"9",
     b"\x00", b"\xff", b"[", b"]", b"{", b"}", b"%", b"\\", b"99999999999999999999"]
)
# An edit lands at a random byte, or just after the next separator, where
# it changes a cell, a metadata value or a JSON token rather than a word.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("overwrite", "insert", "delete")),
        st.integers(min_value=0, max_value=2**20),
        st.booleans(),
        st.one_of(SPECIAL, st.binary(min_size=1, max_size=6)),
    ),
    min_size=1,
    max_size=4,
)
SEPARATORS = re.compile(rb'[,\n=:"\[{]')
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["file", "regkey", "AU1", "always", "2010-05-01T09:00:00Z", "%s", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()
# Optional keys the formats define; a swap may add one where the bundled file has none.
OPTIONAL_KEYS = ("latency_s", "launch", "install_paths", "confounded", "window_s", "supporting")


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, after_separator, chunk in edits:
        pos %= len(buf) + 1
        if after_separator:
            found = SEPARATORS.search(buf, pos)
            pos = found.end() if found else pos
        if op == "overwrite":
            buf[pos:pos + len(chunk)] = chunk
        elif op == "insert":
            buf[pos:pos] = chunk
        else:
            del buf[pos:pos + len(chunk)]
    return bytes(buf)


def mutated_text(text: str, edits) -> str:
    return mutate(text.encode("utf-8"), edits).decode("utf-8", errors="replace")


def json_paths(value, path=()):
    """Every position in a JSON document, as the key or index path to it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def swapped(draw, text):
    """The document with one value replaced or removed, or one key added."""
    doc = json.loads(text)
    paths = list(json_paths(doc))[1:]
    new = draw(st.one_of(JSON_VALUES, st.sampled_from([_at(doc, p) for p in paths]), st.just(DELETE)))
    path = draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if draw(st.booleans()):
        objects = [p for p in [()] + paths if isinstance(_at(doc, p), dict)]
        parent = _at(doc, draw(st.sampled_from(objects)))
        names = {k for p in paths for k in p if isinstance(k, str)} | set(OPTIONAL_KEYS)
        key = draw(st.sampled_from(sorted(names)))
    if new is not DELETE:
        parent[key] = json.loads(json.dumps(new))
    elif isinstance(parent, list) or key in parent:
        del parent[key]
    return json.dumps(doc)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def survives(loader, text, error):
    try:
        loader(text)
    except error:
        pass


@FUZZ
@given(name=st.sampled_from(SNAPSHOTS), edits=EDITS)
def test_parse_snapshot_raises_only_its_format_error(name, edits):
    survives(parse_snapshot, mutated_text(fixture_text(name), edits), SnapshotFormatError)


@FUZZ
@given(name=st.sampled_from(SIGNATURES), edits=EDITS)
def test_load_signature_raises_only_its_format_error(name, edits):
    survives(load_signature, mutated_text(signature_text(name), edits), SignatureFormatError)


@FUZZ
@given(data=st.data(), name=st.sampled_from(SIGNATURES))
def test_load_signature_survives_value_swaps(data, name):
    text = data.draw(swapped(signature_text(name)))
    survives(load_signature, text, SignatureFormatError)


@FUZZ
@given(edits=EDITS)
def test_load_scenario_raises_only_its_error(edits):
    survives(load_scenario, mutated_text(fixture_text("demo_scenario.json"), edits), ScenarioError)


@FUZZ
@given(data=st.data())
def test_load_scenario_survives_value_swaps(data):
    text = data.draw(swapped(fixture_text("demo_scenario.json")))
    survives(load_scenario, text, ScenarioError)


@FUZZ
@given(edits=EDITS)
def test_parse_capture_raises_only_its_format_error(edits):
    survives(parse_capture, mutated_text(fixture_text("capture_40rows.csv"), edits), CaptureFormatError)


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory):
    tree = tmp_path_factory.mktemp("demo")
    write_scenario_outputs(run_scenario(load_scenario(fixture_text("demo_scenario.json"))), tree)
    obs = tree / "obs" / "web.browse"
    shutil.copy(obs / "sessions.csv", tree / "sessions.orig")
    return obs


@FUZZ
@given(edits=EDITS)
def test_read_observations_raises_plain_value_error_on_bad_sessions(obs_dir, edits):
    original = (obs_dir.parent.parent / "sessions.orig").read_bytes()
    (obs_dir / "sessions.csv").write_bytes(mutate(original, edits))
    try:
        read_observations(obs_dir)
    except ValueError as exc:
        assert type(exc) is ValueError, repr(exc)
