"""Serialization: hex vectors, JSON documents, and fixture files.

Binary vectors travel as lowercase hex of exactly ceil(l/8) bytes,
packed MSB first (component 1 is the top bit of the first byte, with
zero padding in the trailing bits when l is not a byte multiple). All
documents are JSON objects with a "version" and "bits" field and are
rendered canonically, so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping

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
    Message,
    SafeSharesState,
    Transcript,
    parse_party,
)
from asgs.pvss import BulletinBoard, KeyAssignment

FORMAT_VERSION = 1

_HEX_DIGITS = re.compile("[0-9a-f]*")


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
    bits = vector.params.dimension
    padding = _hex_width(bits) * 4 - bits
    return format(vector.to_int() << padding, f"0{_hex_width(bits)}x")


def decode_vector(text: str, params: SchemeParams) -> ShareVector:
    """Parse lowercase hex into a binary vector under ``params``.

    Rejects wrong-length text, any character outside ``[0-9a-f]`` (so
    uppercase, signs, whitespace, ``_`` and non-ASCII digits), and
    nonzero bits in the padding tail.
    """
    if params.modulus != 2:
        raise ValueError("hex vectors are defined for modulus 2 only")
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
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def read_fixture_file(path: str | Path, params: SchemeParams) -> list[ShareVector]:
    """Read one hex vector per line; '#' starts a comment, blanks are skipped."""
    vectors = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vectors.append(decode_vector(line, params))
        except AsgsError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return vectors


def dumps_document(document: Mapping) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def dump_document(document: Mapping, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(dumps_document(document), encoding="utf-8")
    return path


def load_document(path: str | Path, expected_kind: str | None = None) -> dict:
    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
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


def _decode_list(items: object, params: SchemeParams, context: str) -> tuple[ShareVector, ...]:
    if not isinstance(items, list):
        raise ParseError(f"{context}: expected a list of hex vectors")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ParseError(f"{context}[{i}]: expected a hex string")
        try:
            out.append(decode_vector(item, params))
        except AsgsError as exc:
            raise ParseError(f"{context}[{i}]: {exc}") from exc
    return tuple(out)


# ---------------------------------------------------------------------------
# Share sets and mask sets
# ---------------------------------------------------------------------------


def share_set_to_doc(share_set: AuthorizedShareSet) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "share_set",
        "bits": share_set.params.dimension,
        "role": share_set.role.value,
        "shares": [encode_vector(s) for s in share_set.shares],
    }


def share_set_from_doc(document: Mapping) -> AuthorizedShareSet:
    params = _document_params(document, "share_set")
    try:
        role = SetRole(document.get("role"))
    except ValueError:
        raise ParseError(f"share_set: unknown role tag {document.get('role')!r}") from None
    shares = _decode_list(document.get("shares"), params, "share_set.shares")
    if not shares:
        raise ParseError("share_set: at least one share required")
    return AuthorizedShareSet(role, shares, params)


def mask_set_to_doc(masks: MaskSet) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "mask_set",
        "bits": masks.params.dimension,
        "vectors": [encode_vector(v) for v in masks.vectors],
    }


def mask_set_from_doc(document: Mapping) -> MaskSet:
    params = _document_params(document, "mask_set")
    vectors = _decode_list(document.get("vectors"), params, "mask_set.vectors")
    try:
        return MaskSet(vectors, params)
    except ValueError as exc:
        raise ParseError(f"mask_set: {exc}") from exc


# ---------------------------------------------------------------------------
# Bulletin boards and key assignments
# ---------------------------------------------------------------------------


def bulletin_to_doc(bulletin: BulletinBoard) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "bulletin",
        "bits": bulletin.params.dimension,
        "set1": [encode_vector(v) for v in bulletin.set1_entries],
        "set2": [encode_vector(v) for v in bulletin.set2_entries],
    }


def bulletin_from_doc(document: Mapping) -> BulletinBoard:
    params = _document_params(document, "bulletin")
    return BulletinBoard(
        _decode_list(document.get("set1"), params, "bulletin.set1"),
        _decode_list(document.get("set2"), params, "bulletin.set2"),
        params,
    )


def key_assignment_to_doc(assignment: KeyAssignment, bits: int) -> dict:
    sets: dict[str, list[str]] = {"1": [], "2": []}
    for tag in sets:
        count = assignment.count_for(tag)
        sets[tag] = [
            encode_vector(assignment.key_for(tag, i)) for i in range(1, count + 1)
        ]
    return {
        "version": FORMAT_VERSION,
        "kind": "key_assignment",
        "bits": bits,
        "set1": sets["1"],
        "set2": sets["2"],
    }


def key_assignment_from_doc(document: Mapping) -> KeyAssignment:
    params = _document_params(document, "key_assignment")
    entries: dict[tuple[str, int], ShareVector] = {}
    for tag, field in (("1", "set1"), ("2", "set2")):
        for i, key in enumerate(
            _decode_list(document.get(field), params, f"key_assignment.{field}"), start=1
        ):
            entries[(tag, i)] = key
    return KeyAssignment(entries)


# ---------------------------------------------------------------------------
# Safe-shares state
# ---------------------------------------------------------------------------


def safe_state_to_doc(state: SafeSharesState) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "safe_state",
        "bits": state.params.dimension,
        "protected": [encode_vector(v) for v in state.protected],
        "keys": [encode_vector(v) for v in state.keys],
        "masks": [encode_vector(v) for v in state.masks.vectors],
        "owner_shares": [encode_vector(v) for v in state.owner_shares],
        "assignment": list(state.assignment),
    }


def safe_state_from_doc(document: Mapping) -> SafeSharesState:
    params = _document_params(document, "safe_state")
    assignment = document.get("assignment")
    if not isinstance(assignment, list) or not all(_is_int(i) for i in assignment):
        raise ParseError("safe_state.assignment: expected a list of integers")
    try:
        return SafeSharesState(
            params=params,
            protected=_decode_list(document.get("protected"), params, "safe_state.protected"),
            keys=_decode_list(document.get("keys"), params, "safe_state.keys"),
            masks=MaskSet(
                _decode_list(document.get("masks"), params, "safe_state.masks"), params
            ),
            owner_shares=_decode_list(
                document.get("owner_shares"), params, "safe_state.owner_shares"
            ),
            assignment=tuple(assignment),
        )
    except ValueError as exc:
        raise ParseError(f"safe_state: {exc}") from exc


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------


def _payload_to_hex(message: Message) -> str:
    if isinstance(message.payload, bool):
        return "01" if message.payload else "00"
    return encode_vector(message.payload)


def transcript_to_doc(transcript: Transcript) -> dict:
    steps = []
    for message in transcript:
        step = {
            "seq": message.seq,
            "from": message.sender.label(),
            "to": message.recipient.label(),
            "kind": message.kind,
            "payload_hex": _payload_to_hex(message),
        }
        if message.element_index is not None:
            step["element_index"] = message.element_index
        steps.append(step)
    config = dict(transcript.config)
    bits = config.get("bits")
    return {
        "version": FORMAT_VERSION,
        "kind": "transcript",
        "bits": bits if isinstance(bits, int) else 0,
        "config": config,
        "steps": steps,
    }


def transcript_from_doc(document: Mapping) -> Transcript:
    config = document.get("config")
    if not isinstance(config, dict):
        raise ParseError("transcript: missing 'config' object")
    bits = config.get("bits")
    params = _binary_params(bits, "transcript.config") if _is_int(bits) and bits >= 1 else None
    steps_doc = document.get("steps")
    if not isinstance(steps_doc, list):
        raise ParseError("transcript: missing 'steps' list")
    transcript = Transcript(config)
    for i, step in enumerate(steps_doc):
        context = f"transcript.steps[{i}]"
        if not isinstance(step, dict):
            raise ParseError(f"{context}: expected an object")
        kind = step.get("kind")
        if not isinstance(kind, str) or kind not in MESSAGE_KINDS:
            raise ParseError(f"{context}: unknown message kind {kind!r}")
        payload_hex = step.get("payload_hex")
        if not isinstance(payload_hex, str):
            raise ParseError(f"{context}: missing payload_hex")
        payload: ShareVector | bool
        if kind in CONTROL_KINDS:
            if payload_hex not in ("00", "01"):
                raise ParseError(
                    f"{context}: control payloads must be '00' or '01', got {payload_hex!r}"
                )
            payload = payload_hex == "01"
        else:
            if params is None:
                raise ParseError(f"{context}: config lacks 'bits' for vector payloads")
            try:
                payload = decode_vector(payload_hex, params)
            except AsgsError as exc:
                raise ParseError(f"{context}: {exc}") from exc
        try:
            sender = parse_party(str(step.get("from")))
            recipient = parse_party(str(step.get("to")))
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc
        seq = step.get("seq")
        if not _is_int(seq) or seq < 1:
            raise ParseError(f"{context}: seq must be an integer >= 1, got {seq!r}")
        element_index = step.get("element_index")
        if element_index is not None and (not _is_int(element_index) or element_index < 1):
            raise ParseError(
                f"{context}: element_index must be an integer >= 1, got {element_index!r}"
            )
        try:
            transcript.append(Message(seq, sender, recipient, kind, payload, element_index))
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc
    return transcript
