"""Action signatures: the portable findings of a derivation.

A signature records how one user action marks a system.  Its core is the set
of templates whose timestamps all land inside the consistency window whenever
the action runs and which background activity never touches; matching the
core against a snapshot can establish that the action happened and when.
Supporting templates (first-run keys, launch shortcuts, irregular traces,
and always-updated traces confounded by background activity) corroborate a
detection but cannot establish one.

The on-disk format is JSON with extension ``.sig``: top-level keys schema,
action, platform, window_s, core, supporting; each trace entry carries kind,
template, field and, for supporting entries, category plus an optional
confounded flag.  Serialization is canonical (fixed key order, sorted
entries), so a load/save cycle is byte-stable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib.resources import files
from typing import Any, Iterable

from .categorize import CategoryLabel, TraceCategory, UpdateMatrix, categorize_matrix
from .data import signature_text
from .evidence import JsonObject, RecordKind, SnapshotMeta, check_field, fold_path, read_json
from .evidence import reraise_as
from .templates import PathTemplate, TemplateSyntaxError, generalize_path

__all__ = [
    "DEFAULT_WINDOW_S",
    "SCHEMA_VERSION",
    "CoreTrace",
    "Signature",
    "SignatureFormatError",
    "SupportingTrace",
    "bundled_signature",
    "bundled_signature_names",
    "derive_signature",
    "load_signature",
    "save_signature",
    "templates_per_label",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Evidence updates trail the triggering action by well under a minute, so
# one minute bounds the spread of a single action's core timestamps.
DEFAULT_WINDOW_S = 60


class SignatureFormatError(ValueError):
    """Signature text that does not conform to the .sig JSON format."""


@dataclass(frozen=True)
class CoreTrace:
    template: PathTemplate
    field: str

    def __post_init__(self) -> None:
        check_field(self.template.kind, self.field)


@dataclass(frozen=True)
class SupportingTrace:
    template: PathTemplate
    field: str
    category: TraceCategory

    def __post_init__(self) -> None:
        check_field(self.template.kind, self.field)
        if self.category.label is CategoryLabel.NEVER:
            raise ValueError("a never-updated trace cannot support a signature")


def templates_per_label(traces: Iterable[SupportingTrace]) -> dict[str, int]:
    """Distinct supporting templates per category label, paths compared folded."""
    seen: dict[str, set[str]] = {}
    for trace in traces:
        seen.setdefault(trace.category.label.value, set()).add(fold_path(trace.template.text))
    return {label: len(templates) for label, templates in sorted(seen.items())}


@dataclass(frozen=True)
class Signature:
    action: str
    platform: str
    core: tuple[CoreTrace, ...]
    supporting: tuple[SupportingTrace, ...] = ()
    window_s: int = DEFAULT_WINDOW_S

    def __post_init__(self) -> None:
        if not self.action:
            raise ValueError("signature needs an action name")
        if self.window_s < 1:
            raise ValueError(f"window_s must be >= 1, got {self.window_s}")
        seen = set()
        for trace in self.core:
            key = trace.template.key
            if key in seen:
                raise ValueError(f"duplicate core template {trace.template.text!r}")
            seen.add(key)
        for trace in self.supporting:
            if trace.template.key in seen:
                raise ValueError(f"template {trace.template.text!r} is both core and supporting")

    @property
    def weak(self) -> bool:
        """A core of one trace (or none) cannot cross-corroborate itself."""
        return len(self.core) <= 1


def _parse_entry(entry: JsonObject, supporting: bool) -> CoreTrace | SupportingTrace:
    kind = entry.get("kind", RecordKind)
    text, field = entry.get("template", str), entry.get("field", str)
    with reraise_as(SignatureFormatError, f"{entry.where}: bad template {text!r}"):
        template = PathTemplate(text, kind)
    label = entry.get("category", CategoryLabel) if supporting else None
    confounded = entry.get("confounded", bool, False)  # a core entry holds no such key
    with reraise_as(SignatureFormatError, entry.where):
        if not supporting:
            return CoreTrace(template=template, field=field)
        return SupportingTrace(template, field, TraceCategory(label, confounded))


def load_signature(text: str) -> Signature:
    """Parse .sig JSON text, validating schema, templates and categories."""
    keys = ("schema", "action", "platform", "window_s", "core", "supporting")
    doc = read_json(text, SignatureFormatError, keys)
    schema = doc.get("schema", int, None)
    if schema != SCHEMA_VERSION:
        raise SignatureFormatError(
            f"unknown schema version {schema!r}; this build reads version {SCHEMA_VERSION}"
        )
    action, platform = doc.get("action", str), doc.get("platform", str, "")
    window_s = doc.get("window_s", int, DEFAULT_WINDOW_S)
    entry_keys = ("kind", "template", "field")
    core = tuple(_parse_entry(e, supporting=False) for e in doc.objects("core", entry_keys))
    supporting = tuple(
        _parse_entry(e, supporting=True)
        for e in doc.objects("supporting", entry_keys + ("category", "confounded"), [])
    )
    with reraise_as(SignatureFormatError, ""):
        return Signature(action, platform, core, supporting, window_s)  # type: ignore[arg-type]


def _document(sig: Signature) -> dict[str, Any]:
    """The .sig JSON object: fixed key order, sorted entries."""
    core = sorted(sig.core, key=lambda t: (t.template.kind.value, fold_path(t.template.text)))
    supporting = sorted(
        sig.supporting,
        key=lambda t: (
            t.category.label.value,
            t.template.kind.value,
            fold_path(t.template.text),
        ),
    )
    return {
        "schema": SCHEMA_VERSION,
        "action": sig.action,
        "platform": sig.platform,
        "window_s": sig.window_s,
        "core": [
            {"kind": t.template.kind.value, "template": t.template.text, "field": t.field}
            for t in core
        ],
        "supporting": [
            {
                "kind": t.template.kind.value,
                "template": t.template.text,
                "field": t.field,
                "category": t.category.label.value,
                **({"confounded": True} if t.category.confounded else {}),
            }
            for t in supporting
        ],
    }


def _entry_list(entries: list[dict[str, object]]) -> str:
    """``json.dumps(entries, indent=2)`` as nested one level down in the
    document, made with json's C encoder.

    A compact dump whose item separator is the indented member separator lays
    out every member; the joints ``},<sep>{`` between list items are then
    rewritten.  Entry values are strings and booleans, and escaping leaves no
    raw newline in a string, so no other text matches a joint.
    """
    if not entries:
        return "[]"
    text = json.dumps(entries, separators=(",\n      ", ": "))
    body = text[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return f"[\n    {{\n      {body}\n    }}\n  ]"


def save_signature(sig: Signature) -> str:
    """Serialize to canonical .sig JSON (stable key order, sorted entries).

    The text is ``json.dumps(_document(sig), indent=2)`` and a final newline.
    ``indent`` selects json's pure-Python encoder, so the entry lists, which
    hold nearly all the bytes, are laid out around C-encoded dumps instead.
    """
    doc = _document(sig)
    core, supporting = _entry_list(doc.pop("core")), _entry_list(doc.pop("supporting"))
    head = json.dumps(doc, indent=2)[:-2]  # up to the closing "\n}"
    return f'{head},\n  "core": {core},\n  "supporting": {supporting}\n}}\n'


def derive_signature(
    action: str,
    matrix_action: UpdateMatrix,
    matrix_background: UpdateMatrix | None,
    meta: SnapshotMeta,
    platform: str = "unknown",
) -> Signature:
    """Build a signature for an action from its observed update matrices.
    ``meta`` describes the system the runs observed (a built matrix holds it
    as ``matrix_action.meta``); paths are generalized against its folders.

    Core keeps the traces whose selected timestamp updated on every run of the
    action and never during background activity; paths are generalized, and
    several concrete traces may collapse onto one template.  A template takes
    the core only when every observed trace it covers is such a core trace
    with the same core field; otherwise each core trace under it keeps its
    literal path, so no core template reaches a trace that could not serve
    in the core.  First-run,
    shortcut and irregular traces become supporting entries, as do
    always-updated traces that background activity also touched (flagged
    confounded).  A trace whose path holds a percent sign has no template and
    is left out, with one summary warning.  An empty or single-entry core
    still produces a signature, just a weak one.
    """
    analyses = categorize_matrix(matrix_action, matrix_background)
    templates: dict[str, PathTemplate] = {}
    core_fields: dict[tuple[RecordKind, str], set[str | None]] = {}
    refused = 0
    for trace, analysis in sorted(analyses.items()):
        kind = matrix_action.kinds[trace]
        try:
            template = generalize_path(matrix_action.display[trace], meta, kind=kind)
        except TemplateSyntaxError:  # a percent sign in the path
            refused += 1
            continue
        templates[trace] = template
        in_core = analysis.category.is_always and not analysis.category.confounded
        core_fields.setdefault(template.key, set()).add(analysis.field if in_core else None)
    if refused:
        logger.warning(
            "%d trace(s) hold a percent sign in their path, which no template can; "
            "leaving them out of the signature",
            refused,
        )

    core: dict[tuple[RecordKind, str], CoreTrace] = {}
    supporting: dict[tuple[RecordKind, str], SupportingTrace] = {}
    for trace, template in templates.items():
        category, field = analyses[trace].category, analyses[trace].field
        if category.label is CategoryLabel.NEVER:
            continue
        key = template.key
        if category.is_always and not category.confounded:
            if core_fields[key] != {field}:  # the template would reach other traces
                template = PathTemplate(matrix_action.display[trace], template.kind)
                key = template.key
            core.setdefault(key, CoreTrace(template=template, field=field))
        else:
            supporting.setdefault(
                key, SupportingTrace(template=template, field=field, category=category)
            )
    sig = Signature(
        action=action,
        platform=platform,
        core=tuple(core.values()),
        supporting=tuple(supporting.values()),
        window_s=DEFAULT_WINDOW_S,
    )
    if sig.weak:
        logger.warning(
            "signature for %r has %d core trace(s); detections will need corroboration",
            action,
            len(sig.core),
        )
    return sig


def bundled_signature_names() -> list[str]:
    root = files("tracesig.data") / "signatures"
    return sorted(p.name[: -len(".sig")] for p in root.iterdir() if p.name.endswith(".sig"))


def bundled_signature(name: str) -> Signature:
    """Load one of the signatures shipped with the package by bare name."""
    try:
        text = signature_text(name)
    except FileNotFoundError:
        raise KeyError(f"no bundled signature named {name!r}; have {bundled_signature_names()}")
    return load_signature(text)
