"""Portable path patterns with variable capture.

A template is a Windows path in which the machine-specific parts have been
replaced by variables, so a pattern learned on one system matches the
equivalent artifact on another:

    %SystemRoot%            the Windows directory, from snapshot metadata
    %HomeDrive%\\%HomePath%  the user profile location, from metadata
    %InstallPath.<name>%    a published application install prefix
    %SID%                   a user security identifier; binds to one value
                            per match attempt
    %s                      a run of letters, digits and dashes (hashes,
                            GUIDs and similar generated tokens)
    %i                      a run of digits (log rotation counters)

Literal text matches case-insensitively (ASCII), mirroring Windows path
identity; the original spelling of matched records is preserved.  A literal
percent sign cannot appear in a template, so a path holding one is not
generalized.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .evidence import ArtifactRecord, RecordKind, Snapshot, SnapshotMeta, fold_path

__all__ = [
    "Binding",
    "PathTemplate",
    "TemplateSyntaxError",
    "Var",
    "generalize_path",
    "instantiate",
    "parse_template",
]


class TemplateSyntaxError(ValueError):
    """A template string that cannot be parsed into tokens."""


@dataclass(frozen=True)
class Var:
    name: str  # SystemRoot, HomeDrive, HomePath, SID, s, i, or InstallPath.<name>


Token = Union[str, Var]

# One shared ``Var`` per variable name for the templates parsed; bounded, as
# install-path names come from the signature files read.
_var = lru_cache(maxsize=256)(Var)

# One variable at a percent sign, or, through the empty last branch, a percent
# sign that starts none.
_VAR = re.compile(r"%(?:(SystemRoot|HomeDrive|HomePath|SID)%|(InstallPath\.[^%]+)%|([si])|)")


def parse_template(text: str) -> tuple[Token, ...]:
    """Split template text into literal and variable tokens.

    Raises TemplateSyntaxError on an unknown variable, a stray percent sign,
    or two variables with no literal separator between them; a corrupted
    template must fail loudly rather than quietly match something else.
    Every variable token of one name is the same frozen ``Var``.
    """
    if not text:
        raise TemplateSyntaxError("empty template")
    tokens: list[Token] = []
    end = 0
    for match in _VAR.finditer(text):
        start = match.start()
        if match.lastindex is None:
            if text.startswith("%InstallPath.", start):
                raise TemplateSyntaxError(
                    f"malformed install-path variable at position {start} in {text!r}"
                )
            raise TemplateSyntaxError(f"unknown variable at position {start} in template {text!r}")
        if start > end:
            tokens.append(text[end:start])
        elif tokens:  # the previous variable ended where this one starts
            raise TemplateSyntaxError(
                f"adjacent variables without a separator in template {text!r}"
            )
        tokens.append(_var(match[match.lastindex]))
        end = match.end()
    if end < len(text):
        tokens.append(text[end:])
    return tuple(tokens)


@dataclass(frozen=True)
class PathTemplate:
    """A parsed template plus the record kind it applies to."""

    text: str
    kind: RecordKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tokens", parse_template(self.text))

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self._tokens  # type: ignore[attr-defined]

    @property
    def uses_sid(self) -> bool:
        return any(isinstance(t, Var) and t.name == "SID" for t in self.tokens)

    @property
    def key(self) -> tuple[RecordKind, str]:
        return (self.kind, fold_path(self.text))


@dataclass(frozen=True)
class Binding:
    """The SID one template match bound: the one pinned, else the first listed
    SID the record matched under, or None when neither applies."""

    sid: str | None = None


# --- generalization -------------------------------------------------------

# A replaceable token in the last path segment: an unbraced 8-4-4-4-12 GUID,
# or else one dash-separated piece of six or more hex characters, delimited by
# - { } . or the segment edges, with a digit in it or the length of a common
# hash or ID (8, 16, 32 or 40).  Spares ordinary words spelled in hex letters
# ("decade", "accede", the "cafe" of "cafe-1a2b3c") while catching hashes and
# GUIDs.
_HEX_RUN = re.compile(
    r"(?:(?<=[-{}.])|^)"
    r"([0-9A-Fa-f]{8}(?:-[0-9A-Fa-f]{4}){3}-[0-9A-Fa-f]{12}|[0-9A-Fa-f]+)"
    r"(?=[-{}.]|$)"
)
_MIN_HEX_RUN = 6
_HASH_LENGTHS = frozenset({8, 16, 32, 40})

_BRACED_GUID = re.compile(
    r"\{[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}\}"
)

# A rotation counter in a log-style file name: digits between a dash and the
# final extension, where the extension says "log" somewhere.
_LOG_COUNTER = re.compile(r"(?<=-)\d+(?=\.[^.]*log[^.]*$)", re.IGNORECASE | re.ASCII)


class _MetaText:
    """The text of one snapshot's metadata as both directions read it.

    ``text`` maps each metadata variable's name to the text it stands for;
    an install path the snapshot does not publish has no entry.  ``_compile``
    expands a template with it.  ``generalize_path`` replaces the first of
    ``prefixes`` (text, folded text, variable; longest first) that a path
    starts with, and the segments in ``folded_sids``.  ``directories`` is its
    memo: each directory text it has walked under this metadata, mapped to
    that directory's generalized text and the folded SID %SID% stands for in
    it (None if it holds none).
    """

    def __init__(self, meta: SnapshotMeta) -> None:
        text = {
            "SystemRoot": meta.system_root.rstrip("\\"),
            "HomeDrive": meta.home_drive.rstrip("\\"),
            "HomePath": meta.home_path.strip("\\"),
        }
        for name, prefix in meta.install_paths.items():
            text[f"InstallPath.{name}"] = prefix.rstrip("\\")
        drive, rel = text["HomeDrive"], text["HomePath"]
        prefixes = [(f"{drive}\\{rel}", "%HomeDrive%\\%HomePath%")] if drive and rel else []
        prefixes += [
            (p, f"%{name}%") for name, p in text.items() if p and not name.startswith("Home")
        ]
        prefixes.sort(key=lambda c: len(c[0]), reverse=True)
        self.text = text
        self.prefixes = [(prefix, fold_path(prefix), variable) for prefix, variable in prefixes]
        self.folded_prefixes = frozenset(fp for _, fp, _ in self.prefixes)
        self.folded_sids = frozenset(map(fold_path, meta.sids))
        self.directories: dict[str, tuple[str, str | None]] = {}


_last_meta: tuple[SnapshotMeta | None, _MetaText | None] = (None, None)


def _meta_text(meta: SnapshotMeta) -> _MetaText:
    """``meta``'s text, worked out once for the last metadata object seen (by
    identity; a ``SnapshotMeta`` is frozen): derive generalizes every trace
    under one, and match expands every template under one."""
    global _last_meta
    if _last_meta[0] is not meta:
        _last_meta = (meta, _MetaText(meta))
    return _last_meta[1]


def _segment_text(segment: str, last: bool) -> str:
    parts = _BRACED_GUID.split(segment)
    if len(parts) > 1:
        return "{%s}".join(parts)
    if not last:
        return segment
    parts = _LOG_COUNTER.split(segment)
    if len(parts) > 1:
        return "%i".join(parts)
    parts = _HEX_RUN.split(segment)  # literal, run, literal, ..., literal
    for i in range(1, len(parts), 2):
        run = parts[i]
        hashlike = len(run) in _HASH_LENGTHS or any(c.isdigit() for c in run)
        if len(run) >= _MIN_HEX_RUN and hashlike:
            parts[i] = "%s"
    return "".join(parts)


def _segment(
    segment: str, last: bool, sid: str | None, pieces: _MetaText
) -> tuple[str, str | None]:
    """One segment's template text, and the folded SID %SID% stands for once
    it is read: ``sid``, the one bound before it, or this segment if it is the
    first listed SID of the path."""
    folded = fold_path(segment)
    if folded not in pieces.folded_sids:
        return _segment_text(segment, last), sid
    if sid in (None, folded):
        return "%SID%", folded
    return segment, sid


def _walk(path: str, pieces: _MetaText, last: bool) -> tuple[str, str | None]:
    """``path`` generalized, its final segment as a name when ``last`` and as a
    directory otherwise, and the folded SID %SID% stands for in it."""
    parts: list[str] = []
    segments = path.split("\\")
    folded = fold_path(path)
    for prefix, fp, replacement in pieces.prefixes:
        if folded.startswith(fp) and (len(path) == len(prefix) or path[len(prefix)] == "\\"):
            parts, segments = [replacement], path[len(prefix):].split("\\")[1:]
            break
    sid = None
    final = len(segments) - 1 if last else -1
    for pos, segment in enumerate(segments):
        text, sid = _segment(segment, pos == final, sid, pieces)
        parts.append(text)
    return "\\".join(parts), sid


def generalize_path(path: str, meta: SnapshotMeta, kind: RecordKind | None = None) -> PathTemplate:
    """Replace the machine-specific pieces of a concrete path with variables.

    The longest matching prefix out of the profile directory, the system root
    and any published install paths becomes its variable; whole segments equal
    to the first known user SID in the path become %SID%, as %SID% binds one
    value, and other SIDs stay literal; brace-wrapped GUIDs anywhere become
    {%s}; in the final segment, rotation counters in log-style names become
    %i, and each unbraced GUID or dash-separated hex piece of six or more
    characters that holds a digit or has a hash length (8, 16, 32 or 40)
    becomes %s.  Paths with nothing machine-specific come back as
    all-literal templates.

    Each directory is walked once per metadata object: the part of a path
    before its last backslash is looked up in the memo ``_MetaText`` keeps,
    and only the final segment is read anew.  A path with no backslash has no
    directory, and one equal to a prefix becomes that prefix's variable as a
    whole; both are walked in full.

    A path holding a percent sign is refused with TemplateSyntaxError: a
    template cannot hold one literally, and read as template text it would
    name variables the path never had.
    """
    if "%" in path:
        raise TemplateSyntaxError(f"a path holding a percent sign has no template: {path!r}")
    if kind is None:
        kind = RecordKind.REGKEY if fold_path(path).startswith("hkey_") else RecordKind.FILE
    pieces = _meta_text(meta)
    directory, backslash, name = path.rpartition("\\")
    if not backslash or fold_path(path) in pieces.folded_prefixes:
        return PathTemplate(_walk(path, pieces, last=True)[0], kind)
    head = pieces.directories.get(directory)
    if head is None:
        head = pieces.directories[directory] = _walk(directory, pieces, last=False)
    text, sid = head
    return PathTemplate(f"{text}\\{_segment(name, True, sid, pieces)[0]}", kind)


# --- instantiation --------------------------------------------------------

def _compile(
    tpl: PathTemplate, meta: SnapshotMeta, sid: str | None
) -> tuple[re.Pattern[str], str] | None:
    """Build a regex for the template under this snapshot's metadata, with
    %SID% standing for ``sid``.

    Returns the pattern and the folded text every match starts with: the
    template's expansion up to its first %s or %i.  Returns None when the
    template cannot be expanded here at all: an install-path variable the
    snapshot does not define, or a %SID% with no ``sid``.
    """
    parts: list[str] = []
    prefix: list[str] = []
    unbound_seen = False
    expansions = _meta_text(meta).text
    for token in tpl.tokens:
        if isinstance(token, str):
            text = token
        elif token.name in expansions:
            text = expansions[token.name]
        elif token.name in ("s", "i"):
            parts.append(r"[0-9A-Za-z-]+" if token.name == "s" else r"[0-9]+")
            unbound_seen = True
            continue
        elif token.name == "SID" and sid is not None:
            text = sid
        else:
            return None
        parts.append(re.escape(text))
        if not unbound_seen:
            prefix.append(text)
    return re.compile("".join(parts), re.IGNORECASE | re.ASCII), fold_path("".join(prefix))


def instantiate(
    tpl: PathTemplate, snap: Snapshot, fixed: Binding | None = None
) -> list[tuple[ArtifactRecord, Binding]]:
    """All records in the snapshot whose path matches the template.

    Matching is greedy with backtracking and ASCII-case-insensitive.  A SID
    in ``fixed`` pins %SID%; an unbound %SID% tries each SID listed in the
    snapshot metadata, in order, as if pinned, and a record binds the first
    SID it matches under.  Results never cross record kinds and come back
    sorted by folded path.

    Under a pinned SID, or none, only records whose folded path starts with
    the template's expansion up to its first %s or %i are tried, and only
    they are built.  Their paths form one contiguous run of
    ``Snapshot.by_path``, found with ``bisect``, so a call costs log N plus
    the records under that prefix.
    """
    sid = fixed.sid if fixed is not None else None
    if sid is None and tpl.uses_sid:
        hits: dict[str, tuple[ArtifactRecord, Binding]] = {}
        for listed in snap.meta.sids:
            for hit in instantiate(tpl, snap, Binding(sid=listed)):
                hits.setdefault(fold_path(hit[0].path), hit)
        return [hits[path] for path in sorted(hits)]
    compiled = _compile(tpl, snap.meta, sid)
    if compiled is None:
        return []
    pattern, prefix = compiled
    paths, records, binding = snap.by_path(tpl.kind), snap.records, Binding(sid=sid)
    out = []
    for i in range(bisect_left(paths, prefix), len(paths)):
        if not paths[i].startswith(prefix):
            break
        rec = records[(tpl.kind, paths[i])]
        if pattern.fullmatch(rec.path) is not None:
            out.append((rec, binding))
    return out
