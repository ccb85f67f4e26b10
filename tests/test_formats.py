"""Hex encoding, fixture files, and JSON document round trips."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
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
    DEALER,
    KIND_IDENTIFICATION,
    KIND_SECRET,
    Message,
    ProtocolEnv,
    Transcript,
    fast_share,
    participant,
    safe_shares,
)
from helpers import P8, bv, bvs, ints


class TestHexCodec:
    def test_single_byte(self):
        assert encode_vector(bv(0x03)) == "03"
        assert decode_vector("03", P8).to_int() == 0x03

    def test_known_bit_pattern(self):
        assert encode_vector(bv(0b01011010)) == "5a"
        assert decode_vector("5a", P8).components == (0, 1, 0, 1, 1, 0, 1, 0)

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
        assert ints(read_fixture_file(path, P8)) == [0x0F, 0x21, 0x43]

    def test_inline_comment_after_value(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("0f # first mask\n")
        assert ints(read_fixture_file(path, P8)) == [0x0F]

    def test_bad_line_reports_path_and_number(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("0f\nnope\n")
        with pytest.raises(ParseError) as excinfo:
            read_fixture_file(path, P8)
        message = str(excinfo.value)
        assert "draws.txt" in message
        assert "2" in message

    def test_non_utf8_file_reports_path(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_bytes(b"0f\n\xff\xfe\n")
        with pytest.raises(ParseError, match="draws.txt"):
            read_fixture_file(path, P8)

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
        path.write_bytes(b'{"version": 1, "kind": "\xff"}')
        with pytest.raises(ParseError, match="doc.json"):
            load_document(path)

    def test_width_above_bound_rejected(self):
        doc = share_set_to_doc(AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x80])))
        with pytest.raises(ParseError, match="share_set: dimension must be <="):
            share_set_from_doc({**doc, "bits": MAX_DIMENSION + 1})
        transcript = transcript_to_doc(Transcript({"bits": MAX_DIMENSION + 1}))
        with pytest.raises(ParseError, match="transcript.config: dimension must be <="):
            transcript_from_doc(transcript)


class TestBooleansAreNotIntegers:
    """JSON true/false decode to Python bool, a subclass of int; every
    decoder that expects an integer must still reject them."""

    def safe_state_doc(self):
        env = ProtocolEnv.with_fixtures(P8, dealer=bvs([0x0F, 0x21, 0x43]), owner=bvs([0x55]))
        return safe_state_to_doc(safe_shares(bv(0x03), 2, env))

    def test_bits(self):
        from asgs.pvss import BulletinBoard, KeyAssignment

        share_set = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x80]))
        for decode, doc in (
            (share_set_from_doc, share_set_to_doc(share_set)),
            (mask_set_from_doc, mask_set_to_doc(MaskSet.from_vectors(bvs([0x80, 0x80])))),
            (bulletin_from_doc, bulletin_to_doc(BulletinBoard(bvs([0x80]), (), P8))),
            (key_assignment_from_doc,
             key_assignment_to_doc(KeyAssignment({("1", 1): bv(0x80)}), 8)),
            (safe_state_from_doc, self.safe_state_doc()),
        ):
            with pytest.raises(ParseError, match="bits"):
                decode({**doc, "bits": True})

    def test_safe_state_assignment(self):
        with pytest.raises(ParseError, match="assignment"):
            safe_state_from_doc({**self.safe_state_doc(), "assignment": [True, 2]})

    def test_transcript_seq_and_element_index(self):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01), element_index=1))
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
        masks = MaskSet.from_vectors(bvs([0x0F, 0x0F]))
        assert mask_set_from_doc(mask_set_to_doc(masks)) == masks

    def test_broken_zero_sum_rejected(self):
        doc = mask_set_to_doc(MaskSet.from_vectors(bvs([0x0F, 0x0F])))
        doc = {**doc, "vectors": ["0f", "0e"]}
        with pytest.raises(ParseError):
            mask_set_from_doc(doc)


class TestPvssDocs:
    def test_bulletin_round_trip(self):
        env = ProtocolEnv.with_fixtures(
            P8, dealer=bvs([0x10, 0x20, 0x40, 0x80, 0x31])
        )
        from asgs.pvss import distribute_shares_and_keys

        bulletin, assignment = distribute_shares_and_keys(
            AuthorizedShareSet.from_shares(SetRole.TEMPLATE, bvs([0x01, 0x02])),
            AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x04, 0x08, 0x0F])),
            env,
        )
        assert bulletin_from_doc(bulletin_to_doc(bulletin)) == bulletin
        restored = key_assignment_from_doc(key_assignment_to_doc(assignment, 8))
        assert restored == assignment

    def test_key_assignment_doc_indexes_by_set(self):
        from asgs.pvss import KeyAssignment

        assignment = KeyAssignment({("1", 1): bv(0x10), ("2", 1): bv(0x40)})
        doc = key_assignment_to_doc(assignment, 8)
        assert doc["kind"] == "key_assignment"
        restored = key_assignment_from_doc(doc)
        assert restored.key_for("2", 1).to_int() == 0x40


class TestSafeStateDocs:
    def test_round_trip(self):
        env = ProtocolEnv.with_fixtures(
            P8, dealer=bvs([0x0F, 0x21, 0x43]), owner=bvs([0x55])
        )
        state = safe_shares(bv(0x03), 2, env)
        assert safe_state_from_doc(safe_state_to_doc(state)) == state

    def test_round_trip_with_nonidentity_assignment(self):
        env = ProtocolEnv.with_fixtures(
            P8,
            dealer=bvs([0x0F, 0x21, 0x43]),
            owner=bvs([0x55]),
            assignment=(2, 1),
        )
        state = safe_shares(bv(0x03), 2, env)
        restored = safe_state_from_doc(safe_state_to_doc(state))
        assert restored.assignment == (2, 1)
        assert restored == state


class TestTranscriptDocs:
    def test_round_trip_vector_payloads(self):
        env = ProtocolEnv.with_fixtures(P8, owner=bvs([0x0B, 0x16]))
        fast_share(bv(0x5A), 3, env)
        doc = transcript_to_doc(env.transcript)
        restored = transcript_from_doc(doc)
        assert list(restored) == list(env.transcript)
        assert restored.config.get("bits") == 8

    def test_bool_payloads_encode_as_single_byte_flags(self):
        transcript = Transcript({"bits": 8})
        p1 = participant("p", 1)
        transcript.append(
            Message(1, p1, DEALER, KIND_IDENTIFICATION, True, element_index=1)
        )
        transcript.append(
            Message(2, p1, DEALER, KIND_IDENTIFICATION, False, element_index=1)
        )
        doc = transcript_to_doc(transcript)
        assert [s["payload_hex"] for s in doc["steps"]] == ["01", "00"]
        restored = transcript_from_doc(doc)
        assert [m.payload for m in restored] == [True, False]

    def test_element_index_preserved_when_present(self):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01)))
        transcript.append(
            Message(2, DEALER, DEALER, KIND_SECRET, bv(0x02), element_index=7)
        )
        doc = transcript_to_doc(transcript)
        assert "element_index" not in doc["steps"][0]
        assert doc["steps"][1]["element_index"] == 7
        restored = transcript_from_doc(doc)
        assert list(restored)[0].element_index is None
        assert list(restored)[1].element_index == 7

    def test_unknown_kind_rejected(self):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01)))
        for kind in ("telegram", []):
            doc = transcript_to_doc(transcript)
            doc["steps"][0]["kind"] = kind
            with pytest.raises(ParseError):
                transcript_from_doc(doc)

    def test_non_canonical_party_label_rejected(self):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, participant("1", 3), DEALER, KIND_SECRET, bv(0x01)))
        doc = transcript_to_doc(transcript)
        assert doc["steps"][0]["from"] == "p1-3"
        doc["steps"][0]["from"] = "p1-03"
        with pytest.raises(ParseError, match="p1-03"):
            transcript_from_doc(doc)

    def test_seq_order_and_element_index_rejected(self):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, DEALER, DEALER, KIND_SECRET, bv(0x01), element_index=1))
        transcript.append(Message(2, DEALER, DEALER, KIND_SECRET, bv(0x02), element_index=2))
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


def _valid_documents() -> dict:
    """One valid document of each kind, all from a single fixture run."""
    from asgs.protocol import activate_shares
    from asgs.pvss import distribute_shares_and_keys

    env = ProtocolEnv.with_fixtures(
        P8, dealer=bvs([0x0F, 0x21, 0x43, 0x10, 0x20, 0x40, 0x80]), owner=bvs([0x55])
    )
    state = safe_shares(bv(0x03), 2, env)
    activated = activate_shares(state, env)
    bulletin, keys = distribute_shares_and_keys(state.protected_set(), activated, env)
    return {
        share_set_from_doc: share_set_to_doc(activated),
        mask_set_from_doc: mask_set_to_doc(state.masks),
        bulletin_from_doc: bulletin_to_doc(bulletin),
        key_assignment_from_doc: key_assignment_to_doc(keys, 8),
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
