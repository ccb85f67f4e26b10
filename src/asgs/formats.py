"""Serialization: hex vectors, JSON documents, and fixture files.

Binary vectors travel as lowercase hex of exactly ceil(l/8) bytes,
packed MSB first (component 1 is the top bit of the first byte, with
zero padding in the trailing bits when l is not a byte multiple). All
documents are JSON objects with a "version" and "bits" field and are
rendered canonically, so equal inputs produce byte-identical files.

:func:`write_text` is the one writer: every artifact goes out as UTF-8
bytes with ``\\n`` line ends on every platform (a text-mode write would
put ``\\r\\n`` on Windows). The readers decode a file's bytes as strict
UTF-8 and read ``\\r\\n`` and a lone ``\\r`` as ``\\n``, as a text-mode
read does.
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache, reduce
from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter, itemgetter, or_, rshift
from pathlib import Path
from typing import Iterable, Mapping

from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    MaskSet,
    SchemeParams,
    SetRole,
    ShareVector,
)
from asgs.protocol import (
    CONTROL_KINDS,
    MESSAGE_KINDS,
    Party,
    SafeSharesState,
    Transcript,
    _ROW_TYPES,
    _in_seq_order,
    _rows,
    parse_party,
)
from asgs.pvss import BulletinBoard, KeyAssignment

FORMAT_VERSION = 1

_HEX_DIGITS = re.compile("[0-9a-f]*")
_int_text = int.__repr__


class BadHex(AsgsError):
    """Text that is not a valid lowercase hex vector at the given width."""


class LengthMismatch(AsgsError):
    """Hex text of the wrong length for the declared bit width."""


class ParseError(AsgsError):
    """A document or fixture file does not have the expected shape."""


def _hex_width(bits: int) -> int:
    return ((bits + 7) // 8) * 2


def encode_vector(vector: ShareVector) -> str:
    """Render a binary vector as lowercase hex, component 1 first."""
    return _encode_list((vector.to_int(),), vector.params.dimension)[0]


def _encode_list(values, bits: int) -> list[str]:
    """:func:`encode_vector` of each ``bits``-wide packed int."""
    padding = -bits % 8
    size = (bits + padding) // 8
    return [(value << padding).to_bytes(size, "big").hex() for value in values]


def decode_vector(text: str, params: SchemeParams) -> ShareVector:
    """Parse lowercase hex into a binary vector under ``params``.

    Rejects wrong-length text, any character outside ``[0-9a-f]`` (so
    uppercase, signs, whitespace, ``_`` and non-ASCII digits), and
    nonzero bits in the padding tail.
    """
    bits = params.dimension
    expected = _hex_width(bits)
    if len(text) != expected:
        raise LengthMismatch(
            f"expected {expected} hex characters for {bits} bits, got {len(text)}"
        )
    if not _HEX_DIGITS.fullmatch(text):
        raise BadHex(f"not lowercase hexadecimal [0-9a-f]: {text!r}")
    value = int(text, 16)
    padding = expected * 4 - bits
    if value & ((1 << padding) - 1):
        raise BadHex(f"nonzero padding bits in {text!r} at width {bits}")
    return ShareVector.from_int(params, value >> padding)


def _is_int(value: object) -> bool:
    """A JSON integer; ``true``/``false`` decode to bool, which is not one."""
    return type(value) is int


def _read_text(path: str | Path) -> str:
    """The file's text as a text-mode read gives it: strict UTF-8, and
    ``\\r\\n`` or a lone ``\\r`` read as ``\\n``."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# O_BINARY (Windows only) keeps the C runtime from writing "\n" as "\r\n".
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 bytes, line ends as given:
    one open, writes until every byte is out, one close. A failure after
    the open removes the file, so a failed call leaves none behind."""
    data = memoryview(text.encode())
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except BaseException:
        os.unlink(path)
        raise


def read_fixture_file(path: str | Path, params: SchemeParams) -> list[int]:
    """Read one hex vector per line, as packed ints; '#' starts a
    comment, blanks are skipped."""
    numbered = [(lineno, line) for lineno, raw in enumerate(_read_text(path).splitlines(), 1)
                if (line := raw.split("#", 1)[0].strip())]
    return _decode_column([line for _, line in numbered], params,
                          lambda k: f"{path}:{numbered[k][0]}")


def dumps_document(document: Mapping) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline.

    The text is byte for byte ``json.dumps(document, sort_keys=True,
    indent=2) + "\\n"`` for any JSON value with string keys, without the
    pure-Python encoder that ``indent`` selects in :mod:`json`.
    """
    return _encode(document, "") + "\n"


@lru_cache(maxsize=256)
def _object_form(keys: tuple, indent: str) -> tuple:
    """How an object with ``keys`` renders at ``indent``: a getter of its
    values in sorted key order, a %-template of their texts, and the
    indent the values render at."""
    order = sorted(keys)
    inner = indent + "  "
    body = (",\n" + inner).join(_escape(key).replace("%", "%%") + ": %s" for key in order)
    getter = itemgetter(*order) if len(order) > 1 else lambda value: (value[order[0]],)
    return getter, "{\n" + inner + body + "\n" + indent + "}", inner


def _encode(value: object, indent: str) -> str:
    # Exact str and int render inline in each loop; bool, None, float and
    # subclasses go to json.dumps, which renders a scalar as indent=2 does.
    if isinstance(value, dict):
        if not value:
            return "{}"
        getter, template, inner = _object_form(tuple(value), indent)
        return template % tuple([
            _escape(v) if type(v) is str else _int_text(v) if type(v) is int
            else _encode(v, inner) for v in getter(value)
        ])
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = (",\n" + inner).join([
            _escape(v) if type(v) is str else _int_text(v) if type(v) is int
            else _encode(v, inner) for v in value
        ])
        return f"[\n{inner}{items}\n{indent}]"
    return json.dumps(value)


def dump_document(document: Mapping, path: str | Path) -> Path:
    path = Path(path)
    write_text(path, dumps_document(document))
    return path


def load_document(path: str | Path, expected_kind: str | None = None) -> dict:
    try:
        document = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals over the
        # interpreter's digit limit; RecursionError, nesting too deep to parse.
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if not _is_int(document.get("version")) or document["version"] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported document version {document.get('version')!r}")
    if expected_kind is not None and document.get("kind") != expected_kind:
        raise ParseError(
            f"{path}: expected a {expected_kind!r} document, got {document.get('kind')!r}"
        )
    return document


def _binary_params(bits: int, context: str) -> SchemeParams:
    try:
        return SchemeParams.binary(bits)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def _document_params(document: Mapping, context: str) -> SchemeParams:
    bits = document.get("bits")
    if not _is_int(bits) or bits < 1:
        raise ParseError(f"{context}: missing or invalid 'bits'")
    return _binary_params(bits, context)


def _decode_column(items: list, params: SchemeParams, name) -> list[int]:
    """The packed ints of a list of hex vectors; ``name(i)`` places item i.

    The whole column is checked at once: type and length, ``[0-9a-f]``
    over the joined text (a byte delete, faster than a regex), and an
    OR-fold of the padding bits. On any fault the per-item loop runs, so
    :func:`decode_vector` alone words the error, at the first bad item.
    """
    bits = params.dimension
    width = _hex_width(bits)
    padding = width * 4 - bits
    if (all(map(isinstance, items, repeat(str))) and {*map(len, items)} <= {width}
            and (joined := "".join(items)).isascii()
            and not joined.encode().translate(None, b"0123456789abcdef")):
        values = list(map(int, items, repeat(16)))
        if not reduce(or_, values, 0) & ((1 << padding) - 1):
            return list(map(rshift, values, repeat(padding))) if padding else values
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ParseError(f"{name(i)}: expected a hex string")
        try:
            out.append(decode_vector(item, params).to_int())
        except AsgsError as exc:
            raise ParseError(f"{name(i)}: {exc}") from exc
    return out


def _decode_list(items: object, params: SchemeParams, context: str) -> list[int]:
    if not isinstance(items, list):
        raise ParseError(f"{context}: expected a list of hex vectors")
    return _decode_column(items, params, f"{context}[{{}}]".format)


# ---------------------------------------------------------------------------
# Result documents: share sets, mask sets, bulletins, key assignments and
# safe-shares states. Each is the envelope plus one hex list per int column.
# ---------------------------------------------------------------------------


def _write(kind: str, params: SchemeParams, **columns) -> dict:
    """The document of a result: the envelope and each int column as hex."""
    bits = params.dimension
    document = {"version": FORMAT_VERSION, "kind": kind, "bits": bits}
    document.update((name, _encode_list(ints, bits)) for name, ints in columns.items())
    return document


def _read(document: Mapping, kind: str, *names: str) -> tuple:
    """``(params, column, ...)`` of a result document: the width from
    ``bits``, then each named hex list, in order, as packed ints."""
    params = _document_params(document, kind)
    return params, *[_decode_list(document.get(name), params, f"{kind}.{name}")
                     for name in names]


def _build(kind: str, constructor, *args):
    """``constructor(*args)``; the ValueError of a result type's own
    checks becomes a ParseError of the document kind."""
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ParseError(f"{kind}: {exc}") from exc


def share_set_to_doc(share_set: AuthorizedShareSet) -> dict:
    return {**_write("share_set", share_set.params, shares=share_set.ints),
            "role": share_set.role.value}


def share_set_from_doc(document: Mapping) -> AuthorizedShareSet:
    params, shares = _read(document, "share_set", "shares")
    try:
        role = SetRole(document.get("role"))
    except ValueError:
        raise ParseError(f"share_set: unknown role tag {document.get('role')!r}") from None
    if not shares:
        raise ParseError("share_set: at least one share required")
    return AuthorizedShareSet(role, shares, params)


def mask_set_to_doc(masks: MaskSet) -> dict:
    return _write("mask_set", masks.params, vectors=masks.ints)


def mask_set_from_doc(document: Mapping) -> MaskSet:
    params, vectors = _read(document, "mask_set", "vectors")
    return _build("mask_set", MaskSet, vectors, params)


def bulletin_to_doc(bulletin: BulletinBoard) -> dict:
    return _write("bulletin", bulletin.params, set1=bulletin.set1_ints, set2=bulletin.set2_ints)


def bulletin_from_doc(document: Mapping) -> BulletinBoard:
    params, set1, set2 = _read(document, "bulletin", "set1", "set2")
    for field, entries in (("set1", set1), ("set2", set2)):
        if not entries:
            raise ParseError(
                f"bulletin.{field}: empty, but an authorized set holds at least one share"
            )
    return BulletinBoard(set1, set2, params)


def key_assignment_to_doc(assignment: KeyAssignment) -> dict:
    return _write("key_assignment", assignment.params,
                  set1=assignment.set1_ints, set2=assignment.set2_ints)


def key_assignment_from_doc(document: Mapping) -> KeyAssignment:
    params, set1, set2 = _read(document, "key_assignment", "set1", "set2")
    return _build("key_assignment", KeyAssignment, set1, set2, params)


def safe_state_to_doc(state: SafeSharesState) -> dict:
    return {**_write("safe_state", state.params, protected=state.protected_ints,
                     keys=state.key_ints, masks=state.masks.ints,
                     owner_shares=state.owner_share_ints),
            "assignment": list(state.assignment)}


def safe_state_from_doc(document: Mapping) -> SafeSharesState:
    params, protected, keys, masks, owner_shares = _read(
        document, "safe_state", "protected", "keys", "masks", "owner_shares")
    assignment = document.get("assignment")
    if not isinstance(assignment, list) or not all(_is_int(i) for i in assignment):
        raise ParseError("safe_state.assignment: expected a list of integers")
    masks = _build("safe_state", MaskSet, masks, params)
    return _build("safe_state", SafeSharesState, params, protected, keys, masks,
                  owner_shares, assignment)


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------


# Kinds and labels go into the text unescaped.
assert all(kind.isascii() and kind.isidentifier() for kind in MESSAGE_KINDS)

# One indented step, keys sorted; the bare form's "%.0s" eats the absent element index.
_STEP = ('{\n      "element_index": %d,\n      "from": "%s",\n      "kind": "%s",\n'
         '      "payload_hex": "%s",\n      "seq": %d,\n      "to": "%s"\n    }')
_STEP_BARE = _STEP.replace('"element_index": %d,\n      ', "%.0s")
_label = attrgetter("_label")


def dumps_transcript(transcript: Transcript) -> str:
    """The canonical text of a transcript document, rendered part by
    part from the transcript's rounds.

    Only the head goes through :func:`dumps_document`. Each step is a
    %-template; labels and kinds are ASCII words and go in unescaped.
    The parts of a round are rendered apart and their steps put in seq
    order.
    """
    # A constant kind once.
    sent_kinds = {kind for parts in transcript.rounds for part in parts for kind in _rows(part[3], 1)}
    if not MESSAGE_KINDS.issuperset(sent_kinds):
        raise ValueError(f"unknown message kinds {sorted(sent_kinds - MESSAGE_KINDS)}")
    width = transcript.params.dimension if transcript.params is not None else 0
    head = dumps_document({"version": FORMAT_VERSION, "kind": "transcript", "steps": [],
                           "bits": width, "config": dict(transcript.config)})
    if not len(transcript):
        return head
    padding = -width % 8
    size = (width + padding) // 8

    def texts(part: tuple) -> Iterable[str]:
        seqs, senders, recipients, kinds, payloads, indices = part
        count = len(seqs)
        if type(indices) in _ROW_TYPES:
            templates = map({None: _STEP_BARE}.get, indices, repeat(_STEP))
        else:
            templates = repeat(_STEP_BARE if indices is None else _STEP, count)
        return map(str.__mod__, templates, zip(
            _rows(indices, count), _labels(senders, count), _rows(kinds, count),
            [("01" if p else "00") if type(p) is bool
             else (p << padding).to_bytes(size, "big").hex() for p in payloads],
            seqs, _labels(recipients, count),
        ))

    steps: list[str] = []
    for parts in transcript.rounds:
        steps += _in_seq_order(parts, texts)
    # "steps" sorts last but for "version", so its "[]" is the last one.
    before, after = head.rsplit('"steps": []', 1)
    return before + '"steps": [\n    ' + ",\n    ".join(steps) + "\n  ]" + after


def _labels(parties, count: int) -> Iterable[str]:
    """The labels of a round's party column."""
    if type(parties) in _ROW_TYPES:
        return map(_label, parties)
    return repeat(parties._label, count)


def transcript_to_doc(transcript: Transcript) -> dict:
    """The dict view of :func:`dumps_transcript`'s text."""
    return json.loads(dumps_transcript(transcript))


class _Parties(dict):
    """Label -> party, each label parsed once per document."""

    def __missing__(self, label: str) -> Party:
        party = self[label] = parse_party(label)
        return party


def _party_fault(step: dict) -> None:
    """Raise the first fault of a step's ``from`` and ``to`` fields."""
    for field in ("from", "to"):
        label = step.get(field)
        if type(label) is not str:
            raise ValueError(f"'{field}' must be a party label string, got {label!r}"
                             if field in step else f"missing '{field}' party label")
        parse_party(label)


def transcript_from_doc(document: Mapping) -> Transcript:
    """Fill a transcript's columns from a document, decoding the vector
    payloads as one column at the end. A fault at a step first decodes
    the payloads read so far, so the first fault in document order is
    the one reported."""
    config = document.get("config")
    if not isinstance(config, dict):
        raise ParseError("transcript: missing 'config' object")
    bits = config.get("bits")
    params = _binary_params(bits, "transcript.config") if _is_int(bits) and bits >= 1 else None
    steps_doc = document.get("steps")
    if not isinstance(steps_doc, list):
        raise ParseError("transcript: missing 'steps' list")
    transcript = Transcript(config)
    seqs, senders, recipients, kinds, payloads, indices = [], [], [], [], [], []
    parties = _Parties()
    texts, rows = [], []  # vector payload texts and the steps they sit at
    def place(k: int) -> str:
        return f"transcript.steps[{rows[k]}]"
    i = last = 0
    try:
        for i, step in enumerate(steps_doc):
            if not isinstance(step, dict):
                raise ValueError("expected an object")
            kind = step.get("kind")
            if not isinstance(kind, str) or kind not in MESSAGE_KINDS:
                raise ValueError(f"unknown message kind {kind!r}")
            payload_hex = step.get("payload_hex")
            if not isinstance(payload_hex, str):
                raise ValueError("missing payload_hex")
            if kind in CONTROL_KINDS:
                if payload_hex not in ("00", "01"):
                    raise ValueError(f"control payloads must be '00' or '01', got {payload_hex!r}")
                payloads.append(payload_hex == "01")
            elif params is None:
                raise ValueError("config lacks 'bits' for vector payloads")
            else:
                texts.append(payload_hex)
                rows.append(i)
                payloads.append(0)
            sender, recipient = step.get("from"), step.get("to")
            if type(sender) is not str or type(recipient) is not str:
                _party_fault(step)
            sender, recipient = parties[sender], parties[recipient]
            seq = step.get("seq")
            if not _is_int(seq) or seq < 1:
                raise ValueError(f"seq must be an integer >= 1, got {seq!r}")
            element_index = step.get("element_index")
            if element_index is not None and (not _is_int(element_index) or element_index < 1):
                raise ValueError(f"element_index must be an integer >= 1, got {element_index!r}")
            if seq <= last:
                raise ValueError("message sequence numbers must strictly increase")
            last = seq
            seqs.append(seq)
            senders.append(sender)
            recipients.append(recipient)
            kinds.append(kind)
            indices.append(element_index)
    except ValueError as exc:
        if texts:
            _decode_column(texts, params, place)
        raise ParseError(f"transcript.steps[{i}]: {exc}") from exc
    for row, value in zip(rows, _decode_column(texts, params, place) if texts else ()):
        payloads[row] = value
    if seqs:
        # One round of one part: the document's seqs may have gaps.
        transcript.record((seqs, senders, recipients, kinds, payloads, indices))
    return transcript
