"""The three benchmark workloads.

Each workload derives scenario ``index``'s inputs from the workload seed
alone, runs one closed-loop scenario against asgs and returns its wall
time, and then checks the outputs, outside the timed interval, against
the integer replays in :mod:`oracle`. A check returns an
:class:`Outcome`: the failures found plus the deterministic counts and
the SHA-256 digest that must repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import oracle

ROLES = ("dealer", "owner", "accumulator")
# Message kinds whose transcript payload is a boolean "00"/"01".
CONTROL_KINDS = frozenset({"key_request", "identification", "ack"})


@dataclass
class Outcome:
    """What the checks of one scenario found and counted."""

    errors: list[str] = field(default_factory=list)
    messages: int = 0
    kinds: Counter = field(default_factory=Counter)
    draws: Counter = field(default_factory=Counter)
    artifact_bytes: int = 0
    pvss_entries: int = 0
    zero_keys: int = 0
    keys_kept: int = 0
    key_draws: int = 0
    oracle_ns: int = 0
    digest: str = ""

    def expect(self, label: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{label}: got {_short(got)}, want {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def ints(vectors) -> list[int]:
    return [v.to_int() for v in vectors]


def payload_int(payload) -> int:
    return int(payload) if isinstance(payload, bool) else payload.to_int()


def digest_rows(digest, rows) -> int:
    """Feed (seq, from, to, kind, payload int) rows into a hash; return
    how many there were."""
    count = 0
    for seq, sender, recipient, kind, payload in rows:
        digest.update(f"{seq} {sender} {recipient} {kind} {payload:x}\n".encode())
        count += 1
    return count


def message_rows(transcript):
    for m in transcript:
        yield m.seq, m.sender.label(), m.recipient.label(), m.kind, payload_int(m.payload)


class Workload:
    name = ""
    bits = 0

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def bind(self) -> None:
        """Look the asgs modules up once they are imported."""
        self.kgh = sys.modules["asgs.kgh"]
        self.protocol = sys.modules["asgs.protocol"]
        self.pvss = sys.modules["asgs.pvss"]

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{seed}:{index}")

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def run(self, inp) -> tuple[int, object]:
        raise NotImplementedError

    def check(self, inp, out, warned: int) -> Outcome:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Release what a scenario left behind (after its checks)."""

    def _check_library(self, outcome: Outcome, exp: dict, out, secret: int) -> None:
        """Checks shared by the two library workloads."""
        env = out.env
        outcome.expect("verdict", out.result.verdict.value, "POSITIVE")
        outcome.expect("oracle verdict", exp["positive"], True)
        outcome.expect("xored_keys", out.result.xored_keys.to_int(), exp["recovered"])
        outcome.expect("bulletin set1", ints(out.bulletin.set1_entries), exp["dealt"]["bulletin1"])
        outcome.expect("bulletin set2", ints(out.bulletin.set2_entries), exp["dealt"]["bulletin2"])
        for tag, want in (("1", exp["dealt"]["keys1"]), ("2", exp["dealt"]["keys2"])):
            got = [out.keys.key_for(tag, i).to_int() for i in range(1, len(want) + 1)]
            outcome.expect(f"keys set{tag}", got, want)
        outcome.expect("violations", [str(v) for v in out.violations], [])
        outcome.draws = Counter({role: env.source(role).consumed for role in ROLES})
        outcome.expect("draws", dict(outcome.draws), exp["draws"])
        outcome.kinds = Counter(m.kind for m in env.transcript)
        outcome.pvss_entries = len(out.bulletin.set1_entries) + len(out.bulletin.set2_entries)
        digest = hashlib.sha256()
        outcome.messages = digest_rows(digest, message_rows(env.transcript))
        digest.update(f"secret {secret:x} verdict {out.result.verdict.value}\n".encode())
        outcome.digest = digest.hexdigest()


class Wide(Workload):
    """Library calls at 4096 bits, n=4: pre-position, activate, replicate,
    publicly verify against the one-share secret set, audit."""

    name = "wide"
    bits = 4096
    n = 4

    def inputs(self, seed: int, index: int):
        rng = self.rng(seed, index)
        return rng.getrandbits(63), rng.getrandbits(self.bits)

    def run(self, inp):
        run_seed, secret_int = inp
        kgh, protocol, pvss = self.kgh, self.protocol, self.pvss
        start = time.perf_counter_ns()
        env = protocol.ProtocolEnv.seeded(run_seed, self.bits)
        secret = kgh.ShareVector.from_int(env.params, secret_int)
        state = protocol.safe_shares(secret, self.n, env)
        activated = protocol.activate_shares(state, env)
        derived = protocol.equal_set_replicate(activated, env)
        reference = kgh.AuthorizedShareSet.from_shares(kgh.SetRole.TEMPLATE, [secret])
        bulletin, keys = pvss.distribute_shares_and_keys(reference, derived, env)
        result = pvss.verify(bulletin, keys, env)
        violations = protocol.check_visibility(env.transcript)
        elapsed = time.perf_counter_ns() - start
        return elapsed, SimpleNamespace(
            env=env, state=state, activated=activated, derived=derived,
            bulletin=bulletin, keys=keys, result=result, violations=violations,
        )

    def check(self, inp, out, warned):
        run_seed, secret = inp
        outcome = Outcome()
        start = time.perf_counter_ns()
        exp = oracle.wide(run_seed, self.bits, secret, self.n)
        outcome.oracle_ns = time.perf_counter_ns() - start
        state = exp["state"]
        outcome.expect("masks", ints(out.state.masks.vectors), state["masks"])
        outcome.expect("state keys", ints(out.state.keys), state["keys"])
        outcome.expect("owner shares", ints(out.state.owner_shares), state["owner_shares"])
        outcome.expect("assignment", list(out.state.assignment), state["assignment"])
        outcome.expect("protected", ints(out.state.protected), state["protected"])
        outcome.expect("activated", ints(out.activated.shares), exp["activated"])
        outcome.expect("activated secret", oracle.xor_all(exp["activated"]), secret)
        outcome.expect("derived", ints(out.derived.shares), exp["derived"])
        outcome.expect("derived secret", oracle.xor_all(exp["derived"]), secret)
        self._check_library(outcome, exp, out, secret)
        outcome.keys_kept = self.n
        outcome.key_draws = outcome.draws["dealer"] - (self.n - 1) - outcome.pvss_entries
        outcome.expect("key draws", outcome.key_draws, state["key_draws"])
        dealt = exp["dealt"]
        outcome.zero_keys = warned
        outcome.expect("zero-key warnings", warned, (dealt["keys1"] + dealt["keys2"]).count(0))
        return outcome


class Narrow(Workload):
    """Library calls at 16 bits: set-generate (d=125, n=500), replicate to
    625 and back to 500, publicly verify against the template set."""

    name = "narrow"
    bits = 16
    d = 125
    n = 500
    bigger = 625

    def inputs(self, seed: int, index: int):
        return self.rng(seed, index).getrandbits(63)

    def run(self, run_seed):
        protocol, pvss = self.protocol, self.pvss
        start = time.perf_counter_ns()
        env = protocol.ProtocolEnv.seeded(run_seed, self.bits)
        template, master = protocol.set_generate_m(self.d, self.n, env)
        grown = protocol.set_replicate_to_bigger(master, self.bigger, env)
        shrunk = protocol.set_replicate_to_smaller(grown, self.n, env)
        bulletin, keys = pvss.distribute_shares_and_keys(template, shrunk, env)
        result = pvss.verify(bulletin, keys, env)
        elapsed = time.perf_counter_ns() - start
        return elapsed, SimpleNamespace(
            env=env, template=template, master=master, grown=grown, shrunk=shrunk,
            bulletin=bulletin, keys=keys, result=result,
        )

    def check(self, run_seed, out, warned):
        outcome = Outcome()
        start = time.perf_counter_ns()
        exp = oracle.narrow(run_seed, self.bits, self.d, self.n, self.bigger)
        outcome.oracle_ns = time.perf_counter_ns() - start
        secret = exp["secret"]
        outcome.expect("template", ints(out.template.shares), exp["template"])
        outcome.expect("master", ints(out.master.shares), exp["master"])
        outcome.expect("master secret", oracle.xor_all(exp["master"]), secret)
        outcome.expect("bigger", ints(out.grown.shares), exp["bigger"])
        outcome.expect("smaller", ints(out.shrunk.shares), exp["smaller"])
        outcome.expect("derived secret", oracle.xor_all(exp["smaller"]), secret)
        # The audit is not part of this workload's timed chain.
        out.violations = self.protocol.check_visibility(out.env.transcript)
        self._check_library(outcome, exp, out, secret)
        dealt = exp["dealt"]
        outcome.zero_keys = warned
        outcome.expect("zero-key warnings", warned, (dealt["keys1"] + dealt["keys2"]).count(0))
        return outcome


@dataclass
class CliInput:
    index: int
    seeds: list[int]
    secret: int
    tampered: bool


class Cli(Workload):
    """In-process ``asgs.cli.main`` at 128 bits, n=32: seven commands per
    scenario, artifacts in a fresh directory, one scenario in four with
    a tampered pvss key."""

    name = "cli"
    bits = 128
    n = 32
    d = 16
    tamper_every = 4
    tamper_bit = 3
    # Commands that build an environment, in order; audit builds none.
    env_commands = 6

    def bind(self) -> None:
        super().bind()
        self.cli = sys.modules["asgs.cli"]
        self.tmp = self.workdir / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Keep each environment the CLI builds, so the checks can read
        # RandSource.consumed. The hook adds one list append per command.
        self.envs: list = []
        env_class = self.protocol.ProtocolEnv
        seeded = env_class.__dict__["seeded"].__func__
        envs = self.envs

        def keep_env(cls, *args, **kwargs):
            env = seeded(cls, *args, **kwargs)
            envs.append(env)
            return env

        env_class.seeded = classmethod(keep_env)

    def inputs(self, seed: int, index: int):
        rng = self.rng(seed, index)
        seeds = [rng.getrandbits(63) for _ in range(self.env_commands)]
        return CliInput(index, seeds, rng.getrandbits(self.bits),
                        index % self.tamper_every == 0)

    def argvs(self, inp: CliInput, root: Path) -> list[list[str]]:
        d = [str(root / str(k)) for k in range(1, self.env_commands + 1)]
        s = [str(seed) for seed in inp.seeds]
        tamper = ["--tamper", f"dealer:key:1:bit:{self.tamper_bit}"] if inp.tampered else []
        return [
            ["set-generate", "--d", str(self.d), "--n", str(self.n), "--seed", s[0], "--out", d[0], "--audit"],
            ["replicate", "--mode", "equal", "--in", f"{d[0]}/u2.json", "--seed", s[1], "--out", d[1], "--audit"],
            ["pvss", "distribute", "--set1", f"{d[0]}/u1.json", "--set2", f"{d[1]}/derived.json",
             "--seed", s[2], "--out", d[2], "--audit"] + tamper,
            ["pvss", "verify", "--bulletin", f"{d[2]}/bulletin.json", "--keys", f"{d[2]}/keys.json",
             "--seed", s[3], "--out", d[3], "--audit"],
            ["safeshares", "--secret", format(inp.secret, f"0{self.bits // 4}x"), "--n", str(self.n),
             "--seed", s[4], "--out", d[4], "--audit"],
            ["activate", "--state", f"{d[4]}/state.json", "--seed", s[5], "--out", d[5], "--audit"],
            ["audit", f"{d[5]}/transcript.json"],
        ]

    def run(self, inp: CliInput):
        root = Path(tempfile.mkdtemp(prefix=f"s{inp.index}-", dir=self.tmp))
        try:
            argvs = self.argvs(inp, root)
            stdout = [io.StringIO() for _ in argvs]
            stderr = io.StringIO()
            codes = []
            self.envs.clear()
            saved = sys.stdout, sys.stderr
            sys.stderr = stderr
            try:
                start = time.perf_counter_ns()
                for argv, buffer in zip(argvs, stdout):
                    sys.stdout = buffer
                    codes.append(self.cli.main(argv))
                elapsed = time.perf_counter_ns() - start
            finally:
                sys.stdout, sys.stderr = saved
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        return elapsed, SimpleNamespace(
            root=root, codes=codes, stdout=[b.getvalue().splitlines() for b in stdout],
            stderr=stderr.getvalue(), envs=list(self.envs),
        )

    def discard(self, out) -> None:
        shutil.rmtree(out.root, ignore_errors=True)

    def _vectors(self, items: list[str]) -> list[int]:
        padding = -self.bits % 8
        return [int(item, 16) >> padding for item in items]

    def _payload(self, kind: str, text: str) -> int:
        if kind in CONTROL_KINDS:
            return int(text, 16)
        return self._vectors([text])[0]

    def check(self, inp: CliInput, out, warned):
        outcome = Outcome()
        start = time.perf_counter_ns()
        exp = oracle.cli(inp.seeds, self.bits, inp.secret, self.d, self.n,
                         self.tamper_bit if inp.tampered else None)
        outcome.oracle_ns = time.perf_counter_ns() - start
        verdict = "POSITIVE" if exp["positive"] else "NEGATIVE"
        outcome.expect("oracle verdict", verdict, "NEGATIVE" if inp.tampered else "POSITIVE")
        outcome.expect("exit codes", out.codes, [0, 0, 0, 0 if exp["positive"] else 2, 0, 0, 0])
        outcome.expect("stderr", out.stderr, "")
        for k, lines in enumerate(out.stdout[:self.env_commands]):
            outcome.expect(f"command {k + 1} audit", "audit: no visibility violations" in lines, True)
        outcome.expect("audit command", out.stdout[-1], ["no visibility violations"])
        hex_width = self.bits // 4
        outcome.expect("verdict line", f"verdict={verdict}" in out.stdout[3], True)
        outcome.expect("xored_keys line",
                       f"xored_keys={exp['recovered']:0{hex_width}x}" in out.stdout[3], True)
        try:
            self._check_artifacts(outcome, exp, out, inp.secret)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome.errors.append(f"artifacts unreadable: {exc!r}")
        outcome.expect("environments", len(out.envs), self.env_commands)
        for k, (env, want) in enumerate(zip(out.envs, exp["draws"])):
            consumed = {role: env.source(role).consumed for role in ROLES}
            outcome.expect(f"command {k + 1} draws", consumed, want)
            outcome.draws.update(consumed)
        if len(out.envs) == self.env_commands:
            outcome.keys_kept = self.n
            outcome.key_draws = out.envs[4].source("dealer").consumed - (self.n - 1)
        dealt = exp["dealt"]
        outcome.zero_keys = warned
        outcome.expect("zero-key warnings", warned, (dealt["keys1"] + dealt["keys2"]).count(0))
        return outcome

    def _check_artifacts(self, outcome: Outcome, exp: dict, out, secret: int) -> None:
        root = out.root
        docs = {}
        digest = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            rel = path.relative_to(root).as_posix()
            digest.update(f"{rel} {len(data)}\n".encode())
            digest.update(data)
            outcome.artifact_bytes += len(data)
            docs[rel] = json.loads(data)
        vec = self._vectors
        outcome.expect("template", vec(docs["1/u1.json"]["shares"]), exp["template"])
        outcome.expect("master", vec(docs["1/u2.json"]["shares"]), exp["master"])
        outcome.expect("derived", vec(docs["2/derived.json"]["shares"]), exp["derived"])
        outcome.expect("derived secret", oracle.xor_all(exp["derived"]), oracle.xor_all(exp["template"]))
        bulletin, keys = docs["3/bulletin.json"], docs["3/keys.json"]
        dealt = exp["dealt"]
        outcome.expect("bulletin set1", vec(bulletin["set1"]), dealt["bulletin1"])
        outcome.expect("bulletin set2", vec(bulletin["set2"]), dealt["bulletin2"])
        outcome.expect("keys set1", vec(keys["set1"]), exp["delivered1"])
        outcome.expect("keys set2", vec(keys["set2"]), dealt["keys2"])
        outcome.pvss_entries = len(bulletin["set1"]) + len(bulletin["set2"])
        state, want = docs["5/state.json"], exp["state"]
        for field_name in ("protected", "keys", "masks", "owner_shares"):
            outcome.expect(f"state {field_name}", vec(state[field_name]), want[field_name])
        outcome.expect("assignment", state["assignment"], want["assignment"])
        outcome.expect("protected set", vec(docs["5/protected.json"]["shares"]), want["protected"])
        outcome.expect("activated", vec(docs["6/activated.json"]["shares"]), exp["activated"])
        outcome.expect("activated secret", oracle.xor_all(exp["activated"]), secret)
        for k in range(1, self.env_commands + 1):
            steps = docs[f"{k}/transcript.json"]["steps"]
            outcome.kinds.update(step["kind"] for step in steps)
            outcome.messages += digest_rows(digest, (
                (s["seq"], s["from"], s["to"], s["kind"], self._payload(s["kind"], s["payload_hex"]))
                for s in steps))
        outcome.digest = digest.hexdigest()
