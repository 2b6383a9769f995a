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
from typing import Iterable, Mapping

from .categorize import (
    CategoryLabel,
    FieldPattern,
    TraceAnalysis,
    TraceCategory,
    UpdateMatrix,
    categorize_matrix,
)
from .evidence import FIELDS, RecordKind, Snapshot, fold_path
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
        if self.field not in FIELDS:
            raise ValueError(f"unknown timestamp field {self.field!r}")


@dataclass(frozen=True)
class SupportingTrace:
    template: PathTemplate
    field: str
    category: TraceCategory

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise ValueError(f"unknown timestamp field {self.field!r}")
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
            key = (trace.template.kind, fold_path(trace.template.text))
            if key in seen:
                raise ValueError(f"duplicate core template {trace.template.text!r}")
            seen.add(key)

    @property
    def weak(self) -> bool:
        """A core of one trace (or none) cannot cross-corroborate itself."""
        return len(self.core) <= 1


def _parse_entry(entry: object, where: str, supporting: bool) -> CoreTrace | SupportingTrace:
    if not isinstance(entry, dict):
        raise SignatureFormatError(f"{where}: trace entries must be JSON objects")
    known = {"kind", "template", "field"} | ({"category", "confounded"} if supporting else set())
    unknown = set(entry) - known
    if unknown:
        raise SignatureFormatError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        kind_text = entry["kind"]
        template_text = entry["template"]
        field = entry["field"]
    except KeyError as exc:
        raise SignatureFormatError(f"{where}: missing key {exc.args[0]!r}")
    try:
        kind = RecordKind(kind_text)
    except ValueError:
        raise SignatureFormatError(f"{where}: unknown kind {kind_text!r}")
    try:
        template = PathTemplate(template_text, kind)
    except TemplateSyntaxError as exc:
        raise SignatureFormatError(f"{where}: bad template {template_text!r}: {exc}")
    try:
        if not supporting:
            return CoreTrace(template=template, field=field)
        try:
            label = CategoryLabel(entry.get("category", ""))
        except ValueError:
            raise SignatureFormatError(f"{where}: unknown category {entry.get('category')!r}")
        confounded = entry.get("confounded", False)
        if not isinstance(confounded, bool):
            raise SignatureFormatError(f"{where}: confounded must be a boolean")
        return SupportingTrace(
            template=template, field=field, category=TraceCategory(label, confounded)
        )
    except ValueError as exc:
        if isinstance(exc, SignatureFormatError):
            raise
        raise SignatureFormatError(f"{where}: {exc}")


def load_signature(text: str) -> Signature:
    """Parse .sig JSON text, validating schema, templates and categories."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignatureFormatError(f"not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SignatureFormatError("signature file must hold a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise SignatureFormatError(
            f"unknown schema version {data.get('schema')!r}; this build reads version {SCHEMA_VERSION}"
        )
    unknown = set(data) - {"schema", "action", "platform", "window_s", "core", "supporting"}
    if unknown:
        raise SignatureFormatError(f"unknown top-level keys {sorted(unknown)}")
    action = data.get("action")
    if not isinstance(action, str) or not action:
        raise SignatureFormatError("action must be a non-empty string")
    platform = data.get("platform", "")
    if not isinstance(platform, str):
        raise SignatureFormatError("platform must be a string")
    window_s = data.get("window_s", DEFAULT_WINDOW_S)
    if not isinstance(window_s, int) or isinstance(window_s, bool):
        raise SignatureFormatError("window_s must be an integer")
    core_data = data.get("core")
    if not isinstance(core_data, list):
        raise SignatureFormatError("core must be a list")
    supporting_data = data.get("supporting", [])
    if not isinstance(supporting_data, list):
        raise SignatureFormatError("supporting must be a list")

    core = tuple(
        _parse_entry(entry, f"core[{i}]", supporting=False)
        for i, entry in enumerate(core_data)
    )
    supporting = tuple(
        _parse_entry(entry, f"supporting[{i}]", supporting=True)
        for i, entry in enumerate(supporting_data)
    )
    try:
        return Signature(
            action=action,
            platform=platform,
            core=core,  # type: ignore[arg-type]
            supporting=supporting,  # type: ignore[arg-type]
            window_s=window_s,
        )
    except ValueError as exc:
        raise SignatureFormatError(str(exc))


def save_signature(sig: Signature) -> str:
    """Serialize to canonical .sig JSON (stable key order, sorted entries)."""
    core = sorted(sig.core, key=lambda t: (t.template.kind.value, fold_path(t.template.text)))
    supporting = sorted(
        sig.supporting,
        key=lambda t: (
            t.category.label.value,
            t.template.kind.value,
            fold_path(t.template.text),
        ),
    )
    data: dict[str, object] = {
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
    return json.dumps(data, indent=2) + "\n"


def _core_field(patterns: Mapping[str, FieldPattern]) -> str:
    """Modified when it always updates, otherwise the always-updated accessed."""
    if patterns.get("modified") is FieldPattern.ALWAYS:
        return "modified"
    return "accessed"


def _supporting_field(analysis: TraceAnalysis) -> str:
    if analysis.category.label is CategoryLabel.FRO:
        for f in FIELDS:
            if analysis.patterns.get(f) is FieldPattern.FIRST_RUN_ONLY:
                return f
    if analysis.category.is_always:
        return _core_field(analysis.patterns)
    for f in FIELDS:
        if analysis.patterns.get(f, FieldPattern.NEVER) is not FieldPattern.NEVER:
            return f
    return "modified"


def derive_signature(
    action: str,
    matrix_action: UpdateMatrix,
    matrix_background: UpdateMatrix | None,
    snap: Snapshot,
    platform: str = "unknown",
) -> Signature:
    """Build a signature for an action from its observed update matrices.

    Core keeps the traces whose selected timestamp updated on every run of the
    action and never during background activity; paths are generalized, and
    several concrete traces may collapse onto one template.  First-run,
    shortcut and irregular traces become supporting entries, as do
    always-updated traces that background activity also touched (flagged
    confounded).  An empty or single-entry core still produces a signature,
    just a weak one.
    """
    analyses = categorize_matrix(matrix_action, matrix_background)
    core: dict[tuple[RecordKind, str], CoreTrace] = {}
    supporting: dict[tuple[RecordKind, str], SupportingTrace] = {}
    for trace in sorted(analyses):
        analysis = analyses[trace]
        category = analysis.category
        if category.label is CategoryLabel.NEVER:
            continue
        kind = matrix_action.kinds[trace]
        template = generalize_path(matrix_action.display[trace], snap.meta, kind=kind)
        key = (kind, fold_path(template.text))
        if category.is_always and not category.confounded:
            core.setdefault(key, CoreTrace(template=template, field=_core_field(analysis.patterns)))
        else:
            supporting.setdefault(
                key,
                SupportingTrace(
                    template=template,
                    field=_supporting_field(analysis),
                    category=category,
                ),
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
    resource = files("tracesig.data") / "signatures" / f"{name}.sig"
    try:
        text = resource.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no bundled signature named {name!r}; have {bundled_signature_names()}")
    return load_signature(text)
