"""Command line driver: exit codes, artifacts, and reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asgs.cli as cli
from asgs.cli import COMMANDS, _spec_from_args, build_parser, default_bits, main, parse_tamper_rule
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


    def test_verify_rejects_an_empty_bulletin_set(self, tmp_path, capsys):
        assert self.distribute(tmp_path) == 0
        out = tmp_path / "out"
        for name, kind in (("bulletin.json", "bulletin"), ("keys.json", "key_assignment")):
            doc = load_document(out / name, kind)
            doc["set1"] = doc["set2"] = []
            dump_document(doc, out / name)
        code = main([
            "pvss", "verify",
            "--bulletin", str(out / "bulletin.json"),
            "--keys", str(out / "keys.json"),
            "--seed", "0", "--out", str(tmp_path / "out2"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "bulletin.set1: empty" in captured.err
        assert "verdict" not in captured.out
        assert not (tmp_path / "out2").exists()


class TestSimulate:
    CHAIN = ["simulate", "safeshares", "--bits", "8", "--secret", "5a",
             "--n", "2", "--then", "activate", "--then", "pvss"]
    PVSS_NEEDS_ACTIVATE = ("pvss after safeshares needs --then activate first: "
                           "the protected set does not share the secret")

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

    def test_options_and_steps_it_would_ignore_are_errors(self, tmp_path, capsys):
        """--secret is for a safeshares start, --d for a set-generate
        start, and activate works on the protected set only, so it must
        be the first step; anything else would be dropped silently. A
        safeshares chain reaches pvss only through activate: the
        protected set combines to the secret XOR the keys, so its
        verdict would always be NEGATIVE."""
        cases = (
            (["simulate", "set-generate", "--d", "1", "--n", "2", "--secret", "zz"],
             "--secret applies only to simulate safeshares"),
            ([*self.CHAIN, "--d", "7"], "--d 7 applies only to simulate set-generate"),
            ([*self.CHAIN[:-4], "--then", "replicate-equal", *self.CHAIN[-4:]],
             "activate may only be the first --then step"),
            ([*self.CHAIN, "--then", "activate"], "activate may only be the first --then step"),
            ([*self.CHAIN[:-4], "--then", "pvss"], self.PVSS_NEEDS_ACTIVATE),
            ([*self.CHAIN[:-4], "--then", "replicate-equal", "--then", "pvss"],
             self.PVSS_NEEDS_ACTIVATE),
        )
        for k, (argv, message) in enumerate(cases):
            out = tmp_path / f"out{k}"
            assert main([*argv, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()


class TestOneProcess:
    """main parses every call with one parser, built on first use."""

    def test_nothing_leaks_into_the_next_call(self, tmp_path, capsys):
        fixtures = []
        for role, values in (("dealer", [0x3C, 0xC3, 0x5A, 0xA5, 0x11, 0x22]),
                             ("owner", [0x11, 0x22, 0x33, 0x44]),
                             ("accumulator", [1 << k for k in range(8)])):
            fixtures += ["--fixture", f"{role}:{write_fixture(tmp_path, f'{role}.txt', values)}"]
        first = [*TestSimulate.CHAIN, "--tamper", "dealer:key:2:bit:0", *fixtures]
        assert main([*first, "--out", str(tmp_path / "first")]) == 2
        assert "verdict=NEGATIVE" in capsys.readouterr().out
        assert main([*TestSimulate.CHAIN, "--out", str(tmp_path / "second")]) == 0
        assert "verdict=POSITIVE" in capsys.readouterr().out
        config = load_document(tmp_path / "second" / "transcript.json", "transcript")["config"]
        assert config["tamper"] == []
        assert config["randomness"] == {"mode": "seeded", "seed": 0}
        assert "fixture_paths" not in config

    def test_parser_is_built_once_and_not_at_import(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import asgs.cli as cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
            "assert cli.main(['gen-m', '--bits', '8', '--n', '2', '--out', 'a']) == 0\n"
            "assert cli.main(['audit', 'a/transcript.json']) == 0\n"
            "info = cli.build_parser.cache_info()\n"
            "assert (info.misses, info.hits) == (1, 1), info\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


def valid_lines(inputs: dict[str, str]) -> dict[str, list[str]]:
    """One valid command line per COMMANDS entry; ``inputs`` maps
    u1, u2, state, bulletin, keys and transcript to document paths."""
    return {
        "gen-m": ["gen-m", "--bits", "8", "--n", "3", "--seed", "1"],
        "set-generate": ["set-generate", "--bits", "8", "--d=2", "--n", "3", "--audit"],
        "replicate": ["replicate", "--mode", "bigger", "--d", "4", "--in", inputs["u2"]],
        "fastshare": ["fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
                      "--tamper", "owner:secret:1:bit:0"],
        "safeshares": ["safeshares", "--secret=5a", "--bits", "8", "--n", "3", "--seed", "4"],
        "activate": ["activate", "--state", inputs["state"]],
        "pvss-distribute": ["pvss", "distribute", "--set1", inputs["u1"],
                            "--set2", inputs["u2"]],
        "pvss-recover-keys": ["pvss", "recover-keys", "--keys", inputs["keys"]],
        "pvss-verify": ["pvss", "verify", "--bulletin", inputs["bulletin"],
                        "--keys", inputs["keys"]],
        "simulate": [*TestSimulate.CHAIN, "--then", "replicate-equal"],
        "audit": ["audit", inputs["transcript"]],
    }


def equivalence_lines(inputs: dict[str, str], out: str) -> list[list[str]]:
    """Each valid line writing to ``out`` (audit writes nothing), each
    with six usage errors, and lines that name no command."""
    lines = []
    for name, line in valid_lines(inputs).items():
        words = line[:2] if name.startswith("pvss-") else line[:1]
        if name != "audit":
            line = [*line, "--out", out]
        lines += [
            line,
            [*line, "--bogus"],
            [*line, "extra"],
            words,
            [*line, "--n", "x"],
            [*words, "--", *line[len(words):]],
            [*words, "-h"],
        ]
    return lines + [
        [], ["-h"], ["--help", "gen-m"],
        ["transmogrify"], ["pvss"], ["pvss", "-h"], ["pvss", "bogus"], ["pvss-verify"],
        ["fastshare", "--se", "5a", "--n", "3", "--out", out],
        ["gen-m", "--n", "2", "--bits", "8", "--out", out, "--out"],
    ]


def write_inputs(root: Path) -> dict[str, str]:
    """Documents for the commands that read them, from seeded runs."""
    for argv, out in (
        (["set-generate", "--bits", "8", "--d", "2", "--n", "3"], "sets"),
        (["safeshares", "--bits", "8", "--secret", "5a", "--n", "3"], "safe"),
    ):
        assert main([*argv, "--out", str(root / out)]) == 0
    sets = root / "sets"
    argv = ["pvss", "distribute", "--set1", str(sets / "u1.json"),
            "--set2", str(sets / "u2.json"), "--out", str(root / "pvss")]
    assert main(argv) == 0
    return {
        "u1": str(sets / "u1.json"),
        "u2": str(sets / "u2.json"),
        "state": str(root / "safe" / "state.json"),
        "bulletin": str(root / "pvss" / "bulletin.json"),
        "keys": str(root / "pvss" / "keys.json"),
        "transcript": str(sets / "transcript.json"),
    }


@pytest.mark.parametrize("out_dir", [".", "", "/", "//", "a/", "./a//b/", "a/./b", "a b"])
def test_summary_paths_read_as_the_path_would(out_dir):
    result = cli.RunResult(cli.ScenarioSpec("gen-m", out_dir=out_dir))
    assert result.path("masks.json") == str(Path(out_dir) / "masks.json")


class TestParseEquivalence:
    """A line that names a command is parsed by that command's parser
    alone; main answers it as it did when the whole tree parsed it."""

    def test_every_command_has_a_valid_line(self):
        assert list(valid_lines(dict.fromkeys(
            ("u1", "u2", "state", "bulletin", "keys", "transcript"), ""))) == list(COMMANDS)

    def test_valid_lines_give_the_tree_spec(self, tmp_path, capsys):
        inputs = write_inputs(tmp_path)
        capsys.readouterr()
        for line in valid_lines(inputs).values():
            assert _spec_from_args(cli.parse_command_line(line)) == \
                _spec_from_args(build_parser().parse_args(line)), line

    def test_leaf_and_tree_answer_alike(self, tmp_path, capsys, monkeypatch):
        inputs = write_inputs(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "out")
        tree = build_parser()
        for line in equivalence_lines(inputs, out):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "parse_command_line", tree.parse_args)
                want = main(line), capsys.readouterr()
            assert (main(line), capsys.readouterr()) == want, line


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

    def test_label_with_a_quote_is_a_usage_error(self, tmp_path, capsys):
        transcript = Transcript({"bits": 8})
        transcript.append(Message(1, OWNER, DEALER, KIND_SECRET, bv(0x5A)))
        doc = transcript_to_doc(transcript)
        doc["steps"][0]["from"] = 'p"x-1'
        path = dump_document(doc, tmp_path / "bad.json")
        assert main(["audit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: transcript.steps[0]: unrecognized party label 'p\"x-1'\n"

    @pytest.mark.parametrize("value", [
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
        pytest.param("7" * 5000, id="huge-int", marks=pytest.mark.skipif(
            not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
            reason="the interpreter accepts a 5000-digit int literal")),
    ])
    def test_unparseable_json_is_a_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "kind": "transcript", "steps": ' + value + "}")
        assert main(["audit", str(path)]) == 1
        assert f"{path}: not valid JSON" in capsys.readouterr().err

    def test_audit_flag_on_a_tampered_run(self, tmp_path):
        """--audit on a scenario checks the transcript it just produced."""
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a",
                   "--n", "3", "--seed", "2", "--audit")
        assert code == 0


class TestUsageErrors:
    @pytest.mark.parametrize("line", [["--"], ["--", "gen-m", "--n", "2"], ["--", "-h"]])
    def test_a_leading_double_dash_is_not_a_command(self, tmp_path, monkeypatch, capsys, line):
        # Some argparse versions drop a leading "--" before a subcommand
        # and would run gen-m here, writing into the working directory.
        monkeypatch.chdir(tmp_path)
        assert main(line) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: asgs [-h]\n")
        assert captured.err.endswith(
            "asgs: error: argument command: invalid choice: '--' (choose from 'gen-m', "
            "'set-generate', 'replicate', 'fastshare', 'safeshares', 'activate', 'pvss', "
            "'simulate', 'audit')\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_tamper_rule_given_twice(self, tmp_path, capsys):
        owner = write_fixture(tmp_path, "owner.txt", [0x11, 0x22])
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
                   "--fixture", f"owner:{owner}", "--tamper", "owner:secret:1:bit:0",
                   "--tamper", "owner:secret:1:bit:0")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: tamper rule owner:secret:1:bit:0 given twice\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_fixture_given_twice_for_one_party(self, tmp_path, capsys):
        first = write_fixture(tmp_path, "a.txt", [0x11, 0x22])
        second = write_fixture(tmp_path, "b.txt", [0x33, 0x44])
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
                   "--fixture", f"owner:{first}", "--fixture", f"owner:{second}")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --fixture owner given twice\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_tamper_bit_outside_the_payload(self, tmp_path, capsys):
        code = run(tmp_path, "fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
                   "--tamper", "owner:secret:1:bit:8")
        assert code == 1
        assert "error: tamper rule owner:secret:1:bit:8: bit index 8 outside 0..7" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

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
        for text in ("dealer:key:2:bit:0", "p1-10:key:10:bit:127"):
            assert parse_tamper_rule(text).spec() == text

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
            "dealer:key:+2:bit:0",
            "dealer:key:2:bit: 3",
            "dealer:key:1_0:bit:0",
            "dealer:key:02:bit:0",
            "dealer:key:\u0662:bit:0",
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
