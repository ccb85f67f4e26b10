"""Command line driver: exit codes, artifacts, and reproducibility."""

import json

import pytest

from asgs.cli import default_bits, main, parse_tamper_rule
from asgs.formats import (
    ParseError,
    dump_document,
    load_document,
    transcript_to_doc,
)
from asgs.kgh import MAX_DIMENSION
from asgs.protocol import (
    DEALER,
    KIND_SECRET,
    Message,
    OWNER,
    Transcript,
)
from helpers import bv


def write_fixture(tmp_path, name, values):
    path = tmp_path / name
    lines = [format(v, "02x") for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_doc(tmp_path, name, kind=None):
    return load_document(tmp_path / "out" / name, kind)


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path / "out")])


class TestFastshare:
    def test_worked_fixture(self, tmp_path):
        owner = write_fixture(tmp_path, "owner.txt", [0x11, 0x22])
        code = run(
            tmp_path,
            "fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
            "--fixture", f"owner:{owner}",
        )
        assert code == 0
        doc = read_doc(tmp_path, "shares.json", "share_set")
        assert doc["shares"] == ["11", "22", "69"]
        assert doc["role"] == "o"

    def test_transcript_always_written(self, tmp_path):
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "2", "--seed", "7")
        assert code == 0
        doc = read_doc(tmp_path, "transcript.json", "transcript")
        assert doc["config"]["bits"] == 8
        assert doc["steps"]

    def test_failed_write_leaves_no_artifacts(self, tmp_path, capsys):
        # shares.json is written first, then transcript.json fails.
        (tmp_path / "out" / "transcript.json").mkdir(parents=True)
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a", "--n", "3")
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["transcript.json"]
        assert (tmp_path / "out" / "transcript.json").is_dir()


class TestGenM:
    def test_masks_sum_to_zero(self, tmp_path):
        code = run(tmp_path, "gen-m", "--bits", "8", "--n", "5", "--seed", "3")
        assert code == 0
        doc = read_doc(tmp_path, "masks.json", "mask_set")
        folded = 0
        for text in doc["vectors"]:
            folded ^= int(text, 16)
        assert len(doc["vectors"]) == 5
        assert folded == 0


class TestReplicate:
    def test_equal_mode_worked_fixture(self, tmp_path):
        accumulator = write_fixture(
            tmp_path, "acc.txt", [0x01, 0x02, 0x04, 0x08]
        )
        assert run(
            tmp_path, "set-generate", "--bits", "8", "--d", "2", "--n", "3",
            "--fixture", f"accumulator:{accumulator}",
        ) == 0
        assert read_doc(tmp_path, "u2.json")["shares"] == ["04", "08", "0f"]

        masks = write_fixture(
            tmp_path, "masks.txt", [0x10, 0x20, 0x30, 0x40, 0x50, 0x10]
        )
        code = main([
            "replicate", "--mode", "equal",
            "--in", str(tmp_path / "out" / "u2.json"),
            "--fixture", f"accumulator:{masks}",
            "--out", str(tmp_path / "out2"),
        ])
        assert code == 0
        derived = load_document(tmp_path / "out2" / "derived.json", "share_set")
        assert derived["shares"] == ["54", "78", "2f"]
        assert derived["role"] == "3"

    def test_bits_come_from_the_input_document(self, tmp_path):
        assert run(tmp_path, "set-generate", "--bits", "8", "--d", "1",
                   "--n", "2", "--seed", "5") == 0
        code = main([
            "replicate", "--mode", "equal",
            "--in", str(tmp_path / "out" / "u2.json"),
            "--seed", "6",
            "--out", str(tmp_path / "out2"),
        ])
        assert code == 0
        doc = load_document(tmp_path / "out2" / "derived.json")
        assert doc["bits"] == 8

    def test_explicit_bits_conflict_is_an_error(self, tmp_path, capsys):
        assert run(tmp_path, "set-generate", "--bits", "8", "--d", "1",
                   "--n", "2", "--seed", "5") == 0
        code = main([
            "replicate", "--mode", "equal", "--bits", "16",
            "--in", str(tmp_path / "out" / "u2.json"),
            "--seed", "6",
            "--out", str(tmp_path / "out2"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_target_with_equal_mode_is_an_error(self, tmp_path, capsys):
        assert run(tmp_path, "set-generate", "--bits", "8", "--d", "1",
                   "--n", "2", "--seed", "5") == 0
        code = main([
            "replicate", "--mode", "equal", "--d", "99",
            "--in", str(tmp_path / "out" / "u2.json"),
            "--out", str(tmp_path / "out2"),
        ])
        assert code == 1
        assert "error: --d 99 applies only to --mode bigger or smaller" in capsys.readouterr().err
        assert not (tmp_path / "out2").exists()


class TestSafeSharesAndActivate:
    def run_safeshares(self, tmp_path):
        dealer = write_fixture(tmp_path, "dealer.txt", [0x0F, 0x21, 0x43])
        owner = write_fixture(tmp_path, "owner.txt", [0x55])
        return run(
            tmp_path,
            "safeshares", "--bits", "8", "--secret", "03", "--n", "2",
            "--fixture", f"dealer:{dealer}", "--fixture", f"owner:{owner}",
        )

    def test_worked_fixture(self, tmp_path):
        assert self.run_safeshares(tmp_path) == 0
        protected = read_doc(tmp_path, "protected.json", "share_set")
        assert protected["shares"] == ["7b", "1a"]
        state = read_doc(tmp_path, "state.json", "safe_state")
        assert state["assignment"] == [1, 2]

    def test_activation_releases_keys(self, tmp_path):
        assert self.run_safeshares(tmp_path) == 0
        code = main([
            "activate", "--state", str(tmp_path / "out" / "state.json"),
            "--seed", "0",
            "--out", str(tmp_path / "out2"),
        ])
        assert code == 0
        doc = load_document(tmp_path / "out2" / "activated.json", "share_set")
        assert doc["shares"] == ["5a", "59"]
        assert doc["role"] == "a"


class TestPvssCommands:
    def distribute(self, tmp_path):
        accumulator = write_fixture(tmp_path, "acc.txt", [0x01, 0x02, 0x04, 0x08])
        assert run(
            tmp_path, "set-generate", "--bits", "8", "--d", "2", "--n", "3",
            "--fixture", f"accumulator:{accumulator}",
        ) == 0
        dealer = write_fixture(
            tmp_path, "dealer.txt", [0x10, 0x20, 0x40, 0x80, 0x31]
        )
        out = tmp_path / "out"
        return main([
            "pvss", "distribute",
            "--set1", str(out / "u1.json"), "--set2", str(out / "u2.json"),
            "--fixture", f"dealer:{dealer}",
            "--out", str(out),
        ])

    def test_distribute_worked_fixture(self, tmp_path):
        assert self.distribute(tmp_path) == 0
        bulletin = read_doc(tmp_path, "bulletin.json", "bulletin")
        assert bulletin["set1"] == ["11", "22"]
        assert bulletin["set2"] == ["44", "88", "3e"]

    def test_recover_keys_summary(self, tmp_path, capsys):
        assert self.distribute(tmp_path) == 0
        out = tmp_path / "out"
        code = main([
            "pvss", "recover-keys", "--keys", str(out / "keys.json"),
            "--seed", "0", "--out", str(tmp_path / "out2"),
        ])
        assert code == 0
        assert "xored_keys=c1" in capsys.readouterr().out

    def test_verify_positive(self, tmp_path, capsys):
        assert self.distribute(tmp_path) == 0
        out = tmp_path / "out"
        code = main([
            "pvss", "verify",
            "--bulletin", str(out / "bulletin.json"),
            "--keys", str(out / "keys.json"),
            "--seed", "0", "--out", str(tmp_path / "out2"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "xored_encrypted_shares=c1" in printed
        assert "xored_keys=c1" in printed
        assert "verdict=POSITIVE" in printed

    def test_verify_negative_after_bulletin_edit(self, tmp_path, capsys):
        assert self.distribute(tmp_path) == 0
        out = tmp_path / "out"
        doc = load_document(out / "bulletin.json", "bulletin")
        doc["set1"] = ["10", "22"]
        dump_document(doc, out / "bulletin.json")
        code = main([
            "pvss", "verify",
            "--bulletin", str(out / "bulletin.json"),
            "--keys", str(out / "keys.json"),
            "--seed", "0", "--out", str(tmp_path / "out2"),
        ])
        assert code == 2
        assert "verdict=NEGATIVE" in capsys.readouterr().out

    def test_verify_rejects_a_key_without_bulletin_entry(self, tmp_path, capsys):
        assert self.distribute(tmp_path) == 0
        out = tmp_path / "out"
        doc = load_document(out / "keys.json", "key_assignment")
        doc["set2"].append(doc["set2"][0])
        dump_document(doc, out / "keys.json")
        code = main([
            "pvss", "verify",
            "--bulletin", str(out / "bulletin.json"),
            "--keys", str(out / "keys.json"),
            "--seed", "0", "--out", str(tmp_path / "out2"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: set 2: bulletin has 3 entries, key assignment has 4 keys" in captured.err
        assert "verdict" not in captured.out
        assert not (tmp_path / "out2").exists()


class TestSimulate:
    CHAIN = ["simulate", "safeshares", "--bits", "8", "--secret", "5a",
             "--n", "2", "--then", "activate", "--then", "pvss"]

    def test_honest_chain_is_positive(self, tmp_path, capsys):
        code = run(tmp_path, *self.CHAIN)
        assert code == 0
        assert "verdict=POSITIVE" in capsys.readouterr().out
        assert (tmp_path / "out" / "activated.json").exists()
        assert (tmp_path / "out" / "bulletin.json").exists()

    def test_tampered_key_chain_is_negative(self, tmp_path, capsys):
        code = run(tmp_path, *self.CHAIN, "--tamper", "dealer:key:2:bit:0")
        assert code == 2
        assert "verdict=NEGATIVE" in capsys.readouterr().out

    def test_runs_are_byte_identical_without_seed_flags(self, tmp_path):
        assert main([*self.CHAIN, "--out", str(tmp_path / "a")]) == 0
        assert main([*self.CHAIN, "--out", str(tmp_path / "b")]) == 0
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_replication_steps_chain_from_set_generate(self, tmp_path, capsys):
        code = run(
            tmp_path,
            "simulate", "set-generate", "--bits", "8", "--d", "2", "--n", "3",
            "--then", "replicate-equal", "--then", "replicate-bigger=4",
            "--then", "pvss", "--seed", "11",
        )
        assert code == 0
        derived = read_doc(tmp_path, "derived.json")
        assert len(derived["shares"]) == 4
        assert "verdict=POSITIVE" in capsys.readouterr().out

    def test_failed_chain_leaves_no_artifacts(self, tmp_path, capsys):
        start = ["simulate", "set-generate", "--bits", "8", "--d", "2", "--n", "3"]
        for k, then in enumerate(
            (["--then", "pvss", "--then", "replicate-smaller=9"], ["--then", "activate"])
        ):
            out = tmp_path / f"out{k}"
            assert main([*start, *then, "--out", str(out)]) == 1
            assert "error:" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_unknown_step_is_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "safeshares", "--bits", "8",
                   "--secret", "5a", "--n", "2", "--then", "teleport")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAudit:
    def test_honest_transcript_is_clean(self, tmp_path):
        assert run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--seed", "2") == 0
        code = main(["audit", str(tmp_path / "out" / "transcript.json")])
        assert code == 0

    def test_injected_secret_delivery_is_flagged(self, tmp_path, capsys):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, OWNER, DEALER, KIND_SECRET, bv(0x5A)))
        path = dump_document(transcript_to_doc(transcript), tmp_path / "bad.json")
        code = main(["audit", str(path)])
        assert code == 3
        printed = capsys.readouterr().out
        assert "dealer" in printed
        assert "secret" in printed

    def test_audit_flag_on_a_tampered_run(self, tmp_path):
        """--audit on a scenario checks the transcript it just produced."""
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--seed", "2", "--audit")
        assert code == 0


class TestUsageErrors:
    def test_missing_required_option(self, tmp_path, capsys):
        code = run(tmp_path, "fastshare", "--bits", "8", "--n", "3")
        assert code == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_seed_and_fixture_are_mutually_exclusive(self, tmp_path, capsys):
        owner = write_fixture(tmp_path, "owner.txt", [0x11, 0x22])
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--seed", "1", "--fixture", f"owner:{owner}")
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fixture_without_colon(self, tmp_path, capsys):
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--fixture", "ownerdraws.txt")
        assert code == 1
        capsys.readouterr()

    def test_fixture_for_unknown_party(self, tmp_path, capsys):
        owner = write_fixture(tmp_path, "owner.txt", [0x11])
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--fixture", f"auditor:{owner}")
        assert code == 1
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "replicate", "--mode", "equal", "--in",
            str(tmp_path / "nope.json"), "--seed", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_tamper_rule_that_matches_nothing(self, tmp_path, capsys):
        fastshare = ["fastshare", "--bits", "8", "--secret", "5a", "--n", "3"]
        cases = (
            (fastshare + ["--tamper", "dealer:key:1:bit:0"], "dealer:key:1:bit:0"),
            # The first rule fires, the second never does.
            (TestSimulate.CHAIN + ["--tamper", "dealer:key:2:bit:0",
                                   "--tamper", "dealer:key:9:bit:0"], "dealer:key:9:bit:0"),
        )
        for k, (argv, idle) in enumerate(cases):
            out = tmp_path / f"out{k}"
            assert main([*argv, "--out", str(out)]) == 1
            assert f"error: tamper rule {idle} matched no message" in capsys.readouterr().err
            assert not out.exists()

    def test_width_above_bound(self, tmp_path, capsys):
        for bits in ("3000000000", str(MAX_DIMENSION + 1)):
            code = run(tmp_path, "gen-m", "--bits", bits, "--n", "2")
            assert code == 1
            assert "error: dimension must be <=" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_bad_secret_hex(self, tmp_path, capsys):
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "S!",
                   "--n", "3", "--seed", "1")
        assert code == 1
        capsys.readouterr()


class TestTamperRuleParsing:
    def test_round_trip(self):
        rule = parse_tamper_rule("dealer:key:2:bit:0")
        assert rule.spec() == "dealer:key:2:bit:0"

    @pytest.mark.parametrize(
        "text",
        [
            "dealer:key:2:bit",
            "dealer:key:2:byte:0",
            "dealer:telegram:1:bit:0",
            "nobody:key:1:bit:0",
            "dealer:key:0:bit:0",
            "dealer:key:1:bit:-1",
            "dealer:key:one:bit:0",
            "p2-01:masked_share:1:bit:0",
        ],
    )
    def test_malformed_rules_rejected(self, text):
        with pytest.raises(ParseError):
            parse_tamper_rule(text)


class TestDefaultBits:
    def test_built_in_default(self, monkeypatch):
        monkeypatch.delenv("ASGS_DEFAULT_BITS", raising=False)
        assert default_bits() == 128

    def test_environment_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ASGS_DEFAULT_BITS", "16")
        assert default_bits() == 16
        assert run(tmp_path, "gen-m", "--n", "2", "--seed", "1") == 0
        assert read_doc(tmp_path, "masks.json")["bits"] == 16

    @pytest.mark.parametrize("raw", ["zero", "0", "-8"])
    def test_invalid_override_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("ASGS_DEFAULT_BITS", raw)
        with pytest.raises(ParseError):
            default_bits()
