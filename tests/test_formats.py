"""Hex encoding, fixture files, and JSON document round trips."""

import errno
import json
import os
import random
import sys
import tempfile
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asgs.formats import (
    FORMAT_VERSION,
    BadHex,
    LengthMismatch,
    ParseError,
    bulletin_to_doc,
    bulletin_from_doc,
    decode_vector,
    dump_document,
    dumps_document,
    dumps_transcript,
    encode_vector,
    key_assignment_from_doc,
    key_assignment_to_doc,
    load_document,
    mask_set_from_doc,
    mask_set_to_doc,
    read_fixture_file,
    safe_state_from_doc,
    safe_state_to_doc,
    share_set_from_doc,
    share_set_to_doc,
    transcript_from_doc,
    transcript_to_doc,
    write_text,
    _read_text,
)
from asgs.kgh import (
    MAX_DIMENSION,
    AuthorizedShareSet,
    MaskSet,
    SchemeParams,
    SetRole,
    ShareVector,
)
from asgs.protocol import (
    ACCUMULATOR,
    CONTROL_KINDS,
    DEALER,
    KIND_IDENTIFICATION,
    KIND_KEY_REQUEST,
    KIND_SECRET,
    MESSAGE_KINDS,
    OWNER,
    Message,
    ProtocolEnv,
    SafeSharesState,
    Transcript,
    fast_share,
    participant,
    safe_shares,
)
from asgs.pvss import BulletinBoard, KeyAssignment
from helpers import P8, append, bv, bvs, rows

# A field value that stands for the field left out.
ABSENT = object()

# Longest int literal json.loads accepts (0: no limit; Python < 3.10.7 has none).
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def text_mode_read(path) -> str:
    """The reference reader: a text-mode read, universal newlines."""
    with open(path, encoding="utf-8") as file:
        return file.read()


class TestHexCodec:
    def test_single_byte(self):
        assert encode_vector(bv(0x03)) == "03"
        assert decode_vector("03", P8).to_int() == 0x03

    def test_known_bit_pattern(self):
        assert encode_vector(bv(0b01011010)) == "5a"
        assert format(decode_vector("5a", P8).to_int(), "08b") == "01011010"

    def test_width_rounds_up_to_whole_bytes(self):
        p12 = SchemeParams.binary(12)
        assert encode_vector(ShareVector.zero(p12)) == "0000"
        assert decode_vector("0000", p12).is_zero()

    def test_uppercase_rejected(self):
        with pytest.raises(BadHex):
            decode_vector("5A", P8)

    def test_non_hex_rejected(self):
        # int(text, 16) would accept all but "zz", or fail with a bare
        # ValueError on "-5"; "\u0665" is ARABIC-INDIC DIGIT FIVE.
        for text, params in (
            ("zz", P8),
            ("+5", P8),
            ("-5", P8),
            (" 5", P8),
            ("5 ", P8),
            ("\u06655", P8),
            ("a_bc", SchemeParams.binary(16)),
        ):
            with pytest.raises(BadHex):
                decode_vector(text, params)

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            decode_vector("0102", P8)
        with pytest.raises(LengthMismatch):
            decode_vector("0", P8)

    def test_nonzero_padding_rejected(self):
        p12 = SchemeParams.binary(12)
        with pytest.raises(BadHex):
            decode_vector("000f", p12)
        assert decode_vector("fff0", p12).to_int() == 0x0FFF

    @given(st.integers(0, 2**128 - 1))
    def test_round_trip_wide(self, value):
        p = SchemeParams.binary(128)
        vector = ShareVector.from_int(p, value)
        assert decode_vector(encode_vector(vector), p) == vector


class TestFixtureFiles:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("# dealer draws\n0f\n\n21\n  43  \n")
        assert read_fixture_file(path, P8) == [0x0F, 0x21, 0x43]

    def test_inline_comment_after_value(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("0f # first mask\n")
        assert read_fixture_file(path, P8) == [0x0F]

    def test_bad_line_reports_path_and_number(self, tmp_path):
        # The first bad line is reported, by its number in the file.
        path = tmp_path / "draws.txt"
        path.write_text("0f\n\n# note\n5A\nnope\n")
        with pytest.raises(ParseError) as excinfo:
            read_fixture_file(path, P8)
        assert str(excinfo.value) == f"{path}:4: not lowercase hexadecimal [0-9a-f]: '5A'"

    def test_non_utf8_file_reports_path(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_bytes(b"0f\r\n\xff\xfe\r\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            text_mode_read(path)
        with pytest.raises(ParseError) as caught:
            read_fixture_file(path, P8)
        assert str(caught.value) == f"{path}: not UTF-8 text: {expected.value}"

    def test_empty_file_is_empty_fixture(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("# nothing yet\n")
        assert read_fixture_file(path, P8) == []


class TestDocumentEnvelope:
    def test_dumps_is_stable_and_newline_terminated(self):
        doc = {"kind": "x", "b": 1, "a": 2}
        text = dumps_document(doc)
        assert text.endswith("\n")
        assert text == dumps_document({"a": 2, "kind": "x", "b": 1})
        assert json.loads(text) == doc

    def test_dump_and_load(self, tmp_path):
        share_set = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x01]))
        path = dump_document(share_set_to_doc(share_set), tmp_path / "set.json")
        loaded = load_document(path, "share_set")
        assert loaded["version"] == FORMAT_VERSION
        assert share_set_from_doc(loaded) == share_set

    def test_kind_mismatch_rejected(self, tmp_path):
        share_set = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x01]))
        path = dump_document(share_set_to_doc(share_set), tmp_path / "set.json")
        with pytest.raises(ParseError):
            load_document(path, "mask_set")

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        for version in (99, True):
            path.write_text(json.dumps({"version": version, "kind": "share_set"}))
            with pytest.raises(ParseError):
                load_document(path, "share_set")

    def test_non_utf8_file_reports_path(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"version": 1,\r\n "kind": "\xff"}\r\n')
        with pytest.raises(UnicodeDecodeError) as expected:
            text_mode_read(path)
        with pytest.raises(ParseError) as caught:
            load_document(path)
        assert str(caught.value) == f"{path}: not UTF-8 text: {expected.value}"

    def test_nesting_too_deep_to_parse_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"version": 1, "steps": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ParseError, match="deep.json: not valid JSON"):
            load_document(path)

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="the interpreter has no int digit limit")
    def test_integer_over_the_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "bits": ' + "7" * (INT_DIGIT_LIMIT + 1) + "}")
        with pytest.raises(ParseError, match="huge.json: not valid JSON"):
            load_document(path)

    def test_width_above_bound_rejected(self):
        doc = share_set_to_doc(AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x80])))
        with pytest.raises(ParseError, match="share_set: dimension must be <="):
            share_set_from_doc({**doc, "bits": MAX_DIMENSION + 1})
        transcript = transcript_to_doc(Transcript({"bits": MAX_DIMENSION + 1}))
        with pytest.raises(ParseError, match="transcript.config: dimension must be <="):
            transcript_from_doc(transcript)


def canonical(value) -> str:
    """The reference rendering that dumps_document reproduces."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# Keys and strings that exercise every escape: quotes, backslashes,
# control characters, non-ASCII and astral characters, and '%'.
_WRITER_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\t\n\r\b\f", "é€", "\U0001f600", "%s", "%%", "%(k)s", ""]
)
_WRITER_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats(allow_nan=True, allow_infinity=True)
    | _WRITER_TEXT
)
_WRITER_VALUES = st.recursive(
    _WRITER_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_WRITER_TEXT, children, max_size=4),
    max_leaves=24,
)


class TestCanonicalWriter:
    """dumps_document reproduces json.dumps(sort_keys=True, indent=2) byte
    for byte."""

    @given(value=_WRITER_VALUES)
    def test_matches_json_dumps(self, value):
        assert dumps_document(value) == canonical(value)

    def test_empty_containers_at_every_depth(self):
        value = {"a": [], "b": {}, "c": [[], {}, [[{}]], {"d": {"e": []}}], "f": ()}
        assert dumps_document(value) == canonical(value)

    def test_every_document_kind_from_a_seeded_run(self):
        from asgs.protocol import activate_shares, set_generate_m
        from asgs.pvss import distribute_shares_and_keys

        env = ProtocolEnv.seeded(11, 128)
        template, master = set_generate_m(3, 4, env)
        state = safe_shares(ShareVector.from_int(env.params, 0x5A5A), 3, env)
        activated = activate_shares(state, env)
        bulletin, keys = distribute_shares_and_keys(template, master, env)
        documents = [
            share_set_to_doc(activated),
            mask_set_to_doc(state.masks),
            bulletin_to_doc(bulletin),
            key_assignment_to_doc(keys),
            safe_state_to_doc(state),
            transcript_to_doc(env.transcript),
        ]
        assert len(env.transcript) > 20
        for document in documents:
            assert dumps_document(document) == canonical(document), document["kind"]


class TestBooleansAreNotIntegers:
    """JSON true/false decode to Python bool, a subclass of int; every
    decoder that expects an integer must still reject them."""

    def safe_state_doc(self):
        env = ProtocolEnv.with_fixtures(P8, dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        return safe_state_to_doc(safe_shares(bv(0x03), 2, env))

    def test_bits(self):
        from asgs.pvss import BulletinBoard, KeyAssignment

        share_set = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x80]))
        for decode, doc in (
            (share_set_from_doc, share_set_to_doc(share_set)),
            (mask_set_from_doc, mask_set_to_doc(MaskSet([0x80, 0x80], P8))),
            (bulletin_from_doc,
             bulletin_to_doc(BulletinBoard([0x80], [0x80], P8))),
            (key_assignment_from_doc,
             key_assignment_to_doc(KeyAssignment([0x80], [], P8))),
            (safe_state_from_doc, self.safe_state_doc()),
        ):
            with pytest.raises(ParseError, match="bits"):
                decode({**doc, "bits": True})

    def test_safe_state_assignment(self):
        with pytest.raises(ParseError, match="assignment"):
            safe_state_from_doc({**self.safe_state_doc(), "assignment": [True, 2]})

    def test_transcript_seq_and_element_index(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01), element_index=1))
        for field in ("seq", "element_index"):
            doc = transcript_to_doc(transcript)
            doc["steps"][0][field] = True
            with pytest.raises(ParseError, match=field):
                transcript_from_doc(doc)


class TestShareSetDocs:
    def test_round_trip_preserves_role_and_order(self):
        share_set = AuthorizedShareSet.from_shares(
            SetRole.DERIVED, bvs([0x54, 0x78, 0x2F])
        )
        assert share_set_from_doc(share_set_to_doc(share_set)) == share_set

    def test_doc_shape(self):
        doc = share_set_to_doc(
            AuthorizedShareSet.from_shares(SetRole.TEMPLATE, bvs([0x01, 0x02]))
        )
        assert doc["kind"] == "share_set"
        assert doc["role"] == "1"
        assert doc["bits"] == 8
        assert doc["shares"] == ["01", "02"]


class TestMaskSetDocs:
    def test_round_trip(self):
        masks = MaskSet([0x0F, 0x0F], P8)
        assert mask_set_from_doc(mask_set_to_doc(masks)) == masks

    def test_broken_zero_sum_rejected(self):
        doc = mask_set_to_doc(MaskSet([0x0F, 0x0F], P8))
        doc = {**doc, "vectors": ["0f", "0e"]}
        with pytest.raises(ParseError):
            mask_set_from_doc(doc)


class TestPvssDocs:
    def test_bulletin_round_trip(self):
        env = ProtocolEnv.with_fixtures(
            P8, dealer=[0x10, 0x20, 0x40, 0x80, 0x31]
        )
        from asgs.pvss import distribute_shares_and_keys

        bulletin, assignment = distribute_shares_and_keys(
            AuthorizedShareSet.from_shares(SetRole.TEMPLATE, bvs([0x01, 0x02])),
            AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x04, 0x08, 0x0F])),
            env,
        )
        assert bulletin_from_doc(bulletin_to_doc(bulletin)) == bulletin
        restored = key_assignment_from_doc(key_assignment_to_doc(assignment))
        assert restored == assignment

    @pytest.mark.parametrize("field", ["set1", "set2"])
    def test_empty_bulletin_set_rejected(self, field):
        bulletin = BulletinBoard([0x11], [0x22], P8)
        doc = bulletin_to_doc(bulletin)
        doc[field] = []
        with pytest.raises(ParseError, match=f"bulletin.{field}: empty"):
            bulletin_from_doc(doc)

    def test_key_assignment_doc_indexes_by_set(self):
        from asgs.pvss import KeyAssignment

        assignment = KeyAssignment([0x10], [0x40], P8)
        doc = key_assignment_to_doc(assignment)
        assert doc["kind"] == "key_assignment"
        restored = key_assignment_from_doc(doc)
        assert restored.key_for("2", 1).to_int() == 0x40


class TestSafeStateDocs:
    def test_round_trip(self):
        env = ProtocolEnv.with_fixtures(
            P8, dealer=[0x0F, 0x21, 0x43], owner=[0x55]
        )
        state = safe_shares(bv(0x03), 2, env)
        assert safe_state_from_doc(safe_state_to_doc(state)) == state

    def test_round_trip_with_nonidentity_assignment(self):
        env = ProtocolEnv.with_fixtures(
            P8,
            dealer=[0x0F, 0x21, 0x43],
            owner=[0x55],
            assignment=(2, 1),
        )
        state = safe_shares(bv(0x03), 2, env)
        restored = safe_state_from_doc(safe_state_to_doc(state))
        assert restored.assignment == (2, 1)
        assert restored == state


class TestTranscriptDocs:
    def test_round_trip_vector_payloads(self):
        env = ProtocolEnv.with_fixtures(P8, owner=[0x0B, 0x16])
        fast_share(bv(0x5A), 3, env)
        doc = transcript_to_doc(env.transcript)
        restored = transcript_from_doc(doc)
        assert list(restored) == list(env.transcript)
        assert restored.config.get("bits") == 8
        assert restored.params is P8

    def test_bool_payloads_encode_as_single_byte_flags(self):
        transcript = Transcript({"bits": 8})
        p1 = participant("p", 1)
        append(transcript, Message(1, p1, DEALER, KIND_IDENTIFICATION, True, element_index=1))
        append(transcript, Message(2, p1, DEALER, KIND_IDENTIFICATION, False, element_index=1))
        doc = transcript_to_doc(transcript)
        assert [s["payload_hex"] for s in doc["steps"]] == ["01", "00"]
        restored = transcript_from_doc(doc)
        assert [m.payload for m in restored] == [True, False]

    def test_element_index_preserved_when_present(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01)))
        append(transcript, Message(2, DEALER, DEALER, KIND_SECRET, bv(0x02), element_index=7))
        doc = transcript_to_doc(transcript)
        assert "element_index" not in doc["steps"][0]
        assert doc["steps"][1]["element_index"] == 7
        restored = transcript_from_doc(doc)
        assert list(restored)[0].element_index is None
        assert list(restored)[1].element_index == 7

    def test_unknown_kind_rejected(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01)))
        for kind in ("telegram", []):
            doc = transcript_to_doc(transcript)
            doc["steps"][0]["kind"] = kind
            with pytest.raises(ParseError):
                transcript_from_doc(doc)

    def test_ack_kind_rejected(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, OWNER, KIND_KEY_REQUEST, True))
        doc = transcript_to_doc(transcript)
        transcript_from_doc(doc)
        doc["steps"][0]["kind"] = "ack"
        with pytest.raises(ParseError, match="unknown message kind 'ack'"):
            transcript_from_doc(doc)

    def test_config_width_fixes_the_payload_width(self):
        # A transcript's width is its config's ``bits``, so the writer
        # emits payloads of the width its reader expects.
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x5A)))
        doc = transcript_to_doc(transcript)
        assert doc["steps"][0]["payload_hex"] == "5a"
        restored = transcript_from_doc(doc)
        assert restored.params == transcript.params
        assert list(restored) == list(transcript)
        assert transcript_to_doc(restored) == doc

    def test_decoded_seqs_need_not_be_one_to_n(self):
        transcript = Transcript({"bits": 8})
        for seq, payload in ((3, bv(0x01)), (7, bv(0x02)), (40, bv(0x03))):
            append(transcript, Message(seq, OWNER, ACCUMULATOR, KIND_SECRET, payload))
        doc = transcript_to_doc(transcript)
        assert [step["seq"] for step in doc["steps"]] == [3, 7, 40]
        restored = transcript_from_doc(doc)
        assert [row[0] for row in rows(restored)] == [3, 7, 40]
        assert [m.seq for m in restored] == [3, 7, 40]
        assert list(restored) == list(transcript)
        assert transcript_to_doc(restored) == doc

    def test_non_canonical_party_label_rejected(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, participant("1", 3), DEALER, KIND_SECRET, bv(0x01)))
        doc = transcript_to_doc(transcript)
        assert doc["steps"][0]["from"] == "p1-3"
        doc["steps"][0]["from"] = "p1-03"
        with pytest.raises(ParseError, match="p1-03"):
            transcript_from_doc(doc)

    @pytest.mark.parametrize("field", ["from", "to"])
    @pytest.mark.parametrize("value", [ABSENT, None, 7, True, ["dealer"], {"role": "dealer"}],
                             ids=["absent", "null", "number", "bool", "list", "dict"])
    def test_party_field_must_be_a_label_string(self, field, value):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, OWNER, DEALER, KIND_SECRET, bv(0x01)))
        doc = transcript_to_doc(transcript)
        if value is ABSENT:
            del doc["steps"][0][field]
            expected = f"missing '{field}' party label"
        else:
            doc["steps"][0][field] = value
            expected = f"'{field}' must be a party label string, got {value!r}"
        with pytest.raises(ParseError) as caught:
            transcript_from_doc(doc)
        assert str(caught.value) == f"transcript.steps[0]: {expected}"

    def test_an_unknown_sender_is_reported_before_a_bad_recipient(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, OWNER, DEALER, KIND_SECRET, bv(0x01)))
        doc = transcript_to_doc(transcript)
        doc["steps"][0]["from"], doc["steps"][0]["to"] = "nobody", 7
        with pytest.raises(ParseError) as caught:
            transcript_from_doc(doc)
        assert str(caught.value) == "transcript.steps[0]: unrecognized party label 'nobody'"

    def test_sequence_must_increase(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01)))
        append(transcript, Message(2, DEALER, DEALER, KIND_SECRET, bv(0x02)))
        doc = transcript_to_doc(transcript)
        doc["steps"][1]["seq"] = 1
        with pytest.raises(
            ParseError,
            match=r"steps\[1\]: message sequence numbers must strictly increase",
        ):
            transcript_from_doc(doc)

    def test_seq_order_and_element_index_rejected(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01), element_index=1))
        append(transcript, Message(2, DEALER, DEALER, KIND_SECRET, bv(0x02), element_index=2))
        # (step changed, field, value, step the error names)
        for index, field, value, named in (
            (0, "seq", 0, 0),
            (0, "seq", -3, 0),
            (1, "seq", 1, 1),
            (0, "seq", 5, 1),
            (0, "element_index", 0, 0),
            (1, "element_index", -1, 1),
        ):
            doc = transcript_to_doc(transcript)
            doc["steps"][index][field] = value
            with pytest.raises(ParseError, match=rf"steps\[{named}\]"):
                transcript_from_doc(doc)


# Builders of one result per column document kind: ``column(k)`` draws k
# packed ints at the width, ``n`` is the length drawn for the test.
def _share_set(draw, params, column, n):
    return AuthorizedShareSet(draw(st.sampled_from(SetRole)), column(n), params)


def _mask_set(draw, params, column, n):
    head = column(n - 1)
    return MaskSet((*head, reduce(xor, head, 0)), params)


def _bulletin(draw, params, column, n):
    return BulletinBoard(column(n), column(draw(st.integers(1, 40))), params)


def _key_assignment(draw, params, column, n):
    # One set may hold no key, on either side.
    keys, other = column(n), column(draw(st.integers(0, 40)))
    return KeyAssignment(*((keys, other) if draw(st.booleans()) else (other, keys)), params)


def _safe_state(draw, params, column, n):
    keys = column(n)
    if not reduce(xor, keys, 0):
        keys = (*keys[:-1], keys[-1] ^ 1)
    assignment = tuple(draw(st.permutations(range(1, n + 1))))
    return SafeSharesState(params, column(n), keys, _mask_set(draw, params, column, n),
                           column(n), assignment)


class TestColumnDocuments:
    """Every result document reads back to the result it was written
    from, at any width and length, and its text is canonical."""

    @pytest.mark.parametrize("writer, reader, build", [
        (share_set_to_doc, share_set_from_doc, _share_set),
        (mask_set_to_doc, mask_set_from_doc, _mask_set),
        (bulletin_to_doc, bulletin_from_doc, _bulletin),
        (key_assignment_to_doc, key_assignment_from_doc, _key_assignment),
        (safe_state_to_doc, safe_state_from_doc, _safe_state),
    ], ids=lambda value: value.__name__ if callable(value) else None)
    @given(data=st.data(), bits=st.sampled_from([1, 7, 8, 9, 128, 4096]),
           n=st.integers(1, 40), seed=st.integers(0, 2**32))
    def test_round_trip(self, writer, reader, build, data, bits, n, seed):
        params, rng = SchemeParams.binary(bits), random.Random(seed)
        result = build(data.draw, params,
                       lambda k: tuple(rng.getrandbits(bits) for _ in range(k)), n)
        document = writer(result)
        text = dumps_document(document)
        assert text == canonical(document)
        assert document["bits"] == bits
        assert reader(json.loads(text)) == result


def _valid_documents() -> dict:
    """One valid document of each kind, all from a single fixture run."""
    from asgs.protocol import activate_shares
    from asgs.pvss import distribute_shares_and_keys

    env = ProtocolEnv.with_fixtures(
        P8, dealer=[0x0F, 0x21, 0x43, 0x10, 0x20, 0x40, 0x80], owner=[0x55]
    )
    state = safe_shares(bv(0x03), 2, env)
    activated = activate_shares(state, env)
    bulletin, keys = distribute_shares_and_keys(state.protected_set(), activated, env)
    return {
        share_set_from_doc: share_set_to_doc(activated),
        mask_set_from_doc: mask_set_to_doc(state.masks),
        bulletin_from_doc: bulletin_to_doc(bulletin),
        key_assignment_from_doc: key_assignment_to_doc(keys),
        safe_state_from_doc: safe_state_to_doc(state),
        transcript_from_doc: transcript_to_doc(env.transcript),
    }


def _slots(value, path=()):
    """Paths to every field and list item below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _slots(child, path + (key,))


def _replaced(document, path, new):
    copy = json.loads(json.dumps(document))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return copy


# Hex-like text reaches decode_vector past the type checks.
_FUZZ_TEXT = st.text(alphabet="0123456789abcdefAF+-_ \t\n#p٥", max_size=6) | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _FUZZ_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_FUZZ_TEXT, children, max_size=3),
    max_leaves=8,
)
VALID_DOCUMENTS = _valid_documents()


class TestDecoderFuzz:
    """Malformed input reaches callers as ParseError, never as another
    exception."""

    @pytest.mark.parametrize(
        "decode", list(VALID_DOCUMENTS), ids=lambda decode: decode.__name__
    )
    @given(data=st.data(), new=_JSON_VALUES)
    def test_one_replaced_field_or_item(self, decode, data, new):
        document = VALID_DOCUMENTS[decode]
        path = data.draw(st.sampled_from(sorted(_slots(document), key=repr)))
        try:
            decode(_replaced(document, path, new))
        except ParseError:
            pass

    @given(content=st.binary(max_size=64) | _FUZZ_TEXT.map(lambda t: t.encode("utf-8")))
    def test_fixture_file_bytes(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "draws.txt"
            path.write_bytes(content)
            for params in (P8, SchemeParams.binary(12)):
                try:
                    read_fixture_file(path, params)
                except ParseError:
                    pass


def oracle_transcript_doc(transcript: Transcript) -> dict:
    """The transcript document built one step dict at a time, the way
    the writer did before it rendered from the columns: the reference
    for :func:`dumps_transcript`."""
    steps = []
    for seq, sender, recipient, kind, payload, element_index in rows(transcript):
        step = {
            "seq": seq,
            "from": sender.label(),
            "to": recipient.label(),
            "kind": kind,
            "payload_hex": (
                ("01" if payload else "00") if type(payload) is bool
                else encode_vector(ShareVector.from_int(transcript.params, payload))
            ),
        }
        if element_index is not None:
            step["element_index"] = element_index
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


_TAGS = st.text(alphabet="0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
                min_size=1, max_size=3)
_PARTIES = st.sampled_from([DEALER, OWNER, ACCUMULATOR]) | st.builds(
    participant, _TAGS, st.integers(min_value=1, max_value=10**6)
)
# Configs with nested lists and dicts, escapes, and a decoy "steps" key.
_CONFIGS = st.dictionaries(_WRITER_TEXT, _WRITER_VALUES, max_size=4) | st.just(
    {"steps": [], "note": '"steps": []', "nested": {"steps": [[], {"steps": []}]}}
)


@st.composite
def transcripts(draw) -> Transcript:
    width = draw(st.integers(min_value=1, max_value=4096))
    transcript = Transcript({**draw(_CONFIGS), "bits": width})
    seq = 0
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        seq += draw(st.integers(min_value=1, max_value=3))
        kind = draw(st.sampled_from(sorted(MESSAGE_KINDS)))
        payload = (
            draw(st.booleans()) if kind in CONTROL_KINDS
            else ShareVector.from_int(transcript.params,
                                      draw(st.integers(min_value=0, max_value=2**width - 1)))
        )
        element_index = draw(st.none() | st.integers(min_value=1, max_value=10**6))
        append(transcript, Message(seq, draw(_PARTIES), draw(_PARTIES), kind, payload,
                                   element_index))
    return transcript


class TestTranscriptWriter:
    """dumps_transcript renders the columns straight to the canonical
    text of the step-by-step document."""

    @given(transcript=transcripts())
    @example(transcript=Transcript({"bits": 8}))
    @example(transcript=Transcript())
    def test_matches_the_step_dict_oracle(self, transcript):
        text = dumps_transcript(transcript)
        assert text == canonical(oracle_transcript_doc(transcript))
        restored = transcript_from_doc(json.loads(text))
        assert list(restored) == list(transcript)
        assert dumps_transcript(restored) == text

    def test_to_doc_is_the_dict_view_of_the_text(self):
        env = ProtocolEnv.seeded(5, 12)
        safe_shares(ShareVector.from_int(env.params, 0xABC), 3, env)
        text = dumps_transcript(env.transcript)
        assert transcript_to_doc(env.transcript) == json.loads(text)
        assert dumps_document(transcript_to_doc(env.transcript)) == text

    def test_unknown_kind_is_not_written(self):
        transcript = Transcript({"bits": 8})
        append(transcript, Message(1, DEALER, OWNER, 'sec"ret', bv(0x01)))
        with pytest.raises(ValueError, match="unknown message kinds"):
            dumps_transcript(transcript)


def _four_step_doc(kind=KIND_SECRET) -> dict:
    transcript = Transcript({"bits": 12})
    for seq in range(1, 5):
        append(transcript, Message(seq, participant("1", seq), DEALER, kind,
                                   bv(0x120 + seq, SchemeParams.binary(12)), element_index=seq))
    return transcript_to_doc(transcript)


class TestReaderErrorOrder:
    """The column decoders report the first fault in document order,
    with the message the step-by-step reader gave."""

    @pytest.mark.parametrize("faults, message", [
        pytest.param(
            {(0, "payload_hex"): "zz0", (2, "seq"): 0},
            "transcript.steps[0]: expected 4 hex characters for 12 bits, got 3",
            id="hex-then-later-seq"),
        pytest.param(
            {(1, "payload_hex"): "12G0", (3, "from"): 'p"x-1'},
            "transcript.steps[1]: not lowercase hexadecimal [0-9a-f]: '12G0'",
            id="hex-then-later-label"),
        pytest.param(
            {(2, "payload_hex"): "123f", (2, "to"): "nobody"},
            "transcript.steps[2]: nonzero padding bits in '123f' at width 12",
            id="hex-and-label-same-step"),
        pytest.param(
            {(0, "to"): "nobody", (1, "payload_hex"): "zz"},
            "transcript.steps[0]: unrecognized party label 'nobody'",
            id="label-then-later-hex"),
        pytest.param(
            {(2, "kind"): "ack", (2, "payload_hex"): "zz"},
            "transcript.steps[2]: unknown message kind 'ack'",
            id="kind-before-hex-same-step"),
        pytest.param(
            {(3, "payload_hex"): "123f", (1, "payload_hex"): 7},
            "transcript.steps[1]: missing payload_hex",
            id="type-then-later-hex"),
    ])
    def test_transcript_first_fault_wins(self, faults, message):
        doc = _four_step_doc()
        for (step, field), value in faults.items():
            doc["steps"][step][field] = value
        with pytest.raises(ParseError) as caught:
            transcript_from_doc(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize("decode, field, items, message", [
        pytest.param(share_set_from_doc, "shares", ["5a", "5A", "zz", 7],
                     "share_set.shares[1]: not lowercase hexadecimal [0-9a-f]: '5A'",
                     id="share-set-hex"),
        pytest.param(share_set_from_doc, "shares", ["5a", 7, "5"],
                     "share_set.shares[1]: expected a hex string", id="share-set-type"),
        pytest.param(share_set_from_doc, "shares", ["5a", "٥a", "5"],
                     "share_set.shares[1]: not lowercase hexadecimal [0-9a-f]: '٥a'",
                     id="share-set-non-ascii-digit"),
        pytest.param(safe_state_from_doc, "keys", ["0f", "0f0", "+f"],
                     "safe_state.keys[1]: expected 2 hex characters for 8 bits, got 3",
                     id="safe-state-length"),
    ])
    def test_list_first_fault_wins(self, decode, field, items, message):
        doc = {**VALID_DOCUMENTS[decode], field: items}
        with pytest.raises(ParseError) as caught:
            decode(doc)
        assert str(caught.value) == message

    def test_protected_is_read_before_keys(self):
        doc = {**VALID_DOCUMENTS[safe_state_from_doc], "protected": ["0f", "zz"],
               "keys": ["z"]}
        with pytest.raises(ParseError, match=r"^safe_state\.protected\[1\]: not lowercase"):
            safe_state_from_doc(doc)


# Each document as its LF text, a CRLF copy and a lone-CR copy.
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


class TestReadsAsTextMode:
    """The readers read bytes and decode them, with a text-mode read's
    results and error texts: strict UTF-8, CRLF and a lone CR as LF."""

    @staticmethod
    def copies(tmp_path, name: str, text: str) -> dict:
        paths = {}
        for ends, newline in LINE_ENDS.items():
            paths[ends] = tmp_path / f"{ends}-{name}"
            paths[ends].write_bytes(text.replace("\n", newline).encode())
        return paths

    def test_documents_decode_alike_whatever_the_line_ends(self, tmp_path):
        env = ProtocolEnv.seeded(5, 12)
        state = safe_shares(ShareVector.from_int(env.params, 0x5A5), 3, env)
        transcript = self.copies(tmp_path, "transcript.json", dumps_transcript(env.transcript))
        decoded = {ends: transcript_from_doc(load_document(path, "transcript"))
                   for ends, path in transcript.items()}
        for ends in LINE_ENDS:
            assert rows(decoded[ends]) == rows(env.transcript), ends
        share_set = AuthorizedShareSet(SetRole.OWNER, state.owner_share_ints, env.params)
        shares = self.copies(tmp_path, "shares.json", dumps_document(share_set_to_doc(share_set)))
        for ends, path in shares.items():
            assert share_set_from_doc(load_document(path, "share_set")) == share_set, ends
        fixture = self.copies(tmp_path, "draws.txt", "# dealer draws\n0f # first\n\n  21\n43")
        for ends, path in fixture.items():
            assert read_fixture_file(path, P8) == [0x0F, 0x21, 0x43], ends

    @pytest.mark.parametrize("ends", list(LINE_ENDS))
    def test_malformed_document_error_text_is_the_text_mode_one(self, tmp_path, ends):
        # The offset counts characters after the newline translation
        # (35 bytes in the CRLF copy).
        text = '{\n  "version": 1,\n  "bits": 8\n  "kind"\n}\n'
        path = self.copies(tmp_path, "doc.json", text)[ends]
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text_mode_read(path))
        with pytest.raises(ParseError) as caught:
            load_document(path)
        assert str(caught.value) == f"{path}: not valid JSON: {expected.value}"
        assert "line 4 column 3 (char 32)" in str(caught.value)

    @pytest.mark.parametrize("read", [load_document, lambda path: read_fixture_file(path, P8)],
                             ids=["document", "fixture"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    def test_unreadable_path_raises_an_os_error_naming_it(self, tmp_path, read, missing):
        path = tmp_path / "input.json"
        if not missing:
            path.mkdir()
        with pytest.raises(OSError) as expected:
            text_mode_read(path)
        with pytest.raises(OSError) as caught:
            read(path)
        assert str(caught.value) == str(expected.value)
        assert str(path) in str(caught.value)

    @given(content=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"0f", b"#", b" ", b"\xc3\xa9",
                                             b"\xc3", b"\xff", b"\xed\xa0\x80", b'{"a": 1}']),
                            max_size=12).map(b"".join))
    def test_read_text_is_a_text_mode_read(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.txt"
            path.write_bytes(content)
            try:
                expected = text_mode_read(path)
            except UnicodeDecodeError as exc:
                with pytest.raises(ParseError) as caught:
                    _read_text(path)
                assert str(caught.value) == f"{path}: not UTF-8 text: {exc}"
            else:
                assert _read_text(path) == expected


class TestWriteText:
    def test_writes_utf8_bytes_with_the_line_ends_given(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"a longer file that was here before\r\n" * 4)
        write_text(path, '{\n  "k": "\u00e9\U0001f600"\n}\n')
        assert path.read_bytes() == '{\n  "k": "\u00e9\U0001f600"\n}\n'.encode()

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        real_write, sizes = os.write, []

        def one_byte_at_a_time(fd, data):
            sizes.append(len(data))
            return real_write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", one_byte_at_a_time)
        write_text(tmp_path / "out.txt", "0f\n\u00e9")
        monkeypatch.undo()
        assert (tmp_path / "out.txt").read_bytes() == "0f\n\u00e9".encode()
        assert sizes == [5, 4, 3, 2, 1]

    def test_a_failed_write_closes_the_file(self, tmp_path, monkeypatch):
        real_open, opened = os.open, []

        def record_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def disk_full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "open", record_open)
        monkeypatch.setattr(os, "write", disk_full)
        with pytest.raises(OSError) as caught:
            write_text(tmp_path / "out.txt", "0f\n")
        monkeypatch.undo()
        assert caught.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as closed:
            os.fstat(opened[0])
        assert closed.value.errno == errno.EBADF

    def test_dump_document_writes_the_canonical_bytes(self, tmp_path):
        share_set = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x01, 0xFE]))
        document = share_set_to_doc(share_set)
        path = dump_document(document, tmp_path / "set.json")
        assert path.read_bytes() == dumps_document(document).encode()

    def test_unwritable_path_raises_an_os_error_naming_it(self, tmp_path):
        for path in (tmp_path / "no-such-dir" / "out.json", tmp_path):
            with pytest.raises(OSError) as caught:
                write_text(path, "{}\n")
            assert str(path) in str(caught.value)
