"""Command-line front end for the automatic sharing simulator.

Every subcommand builds a :class:`ScenarioSpec`, hands it to
:func:`run_scenario`, prints the summary, and exits with the scenario's
code: 0 for success or a POSITIVE verdict, 2 for a NEGATIVE verdict,
3 for a visibility violation found under --audit, 1 for usage or input
errors.

:data:`COMMANDS` declares each command once: its handler, help line and
options, input documents included. :func:`build_parser` turns it into
the argparse tree once per process, on first use. :func:`run_scenario`
is the one run path: it loads and decodes the input documents, takes
the width from them (or from ``--bits``), builds the one
:class:`ProtocolEnv` (``audit`` builds none), and calls the handler,
which runs the protocol steps and fills in its documents by artifact
name, summary lines and exit code; it writes nothing. ``simulate``
chains the same step functions the single commands use.
:func:`run_scenario` is also the only writer: once the handler has
succeeded and every ``--tamper`` rule has fired, it writes the
documents, then ``transcript.json``, then runs the optional audit. A
failed run, one whose tamper rule matched no message, or one whose
write fails, exits 1 and leaves no artifacts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from asgs.formats import (
    ParseError,
    bulletin_from_doc,
    bulletin_to_doc,
    decode_vector,
    dumps_document,
    dumps_transcript,
    encode_vector,
    key_assignment_from_doc,
    key_assignment_to_doc,
    load_document,
    mask_set_to_doc,
    read_fixture_file,
    safe_state_from_doc,
    safe_state_to_doc,
    share_set_from_doc,
    share_set_to_doc,
    transcript_from_doc,
)
from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    SchemeParams,
    SetRole,
    ShareVector,
    generate_mask_set,
)
from asgs.protocol import (
    ProtocolEnv,
    ROLE_ACCUMULATOR,
    SOURCE_ROLES,
    SafeSharesState,
    TamperRule,
    Transcript,
    Violation,
    activate_shares,
    check_visibility,
    equal_set_replicate,
    fast_share,
    safe_shares,
    set_generate_m,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)
from asgs.pvss import (
    BulletinBoard,
    KeyAssignment,
    Verdict,
    distribute_shares_and_keys,
    recover_xored_keys,
    verify,
)

def default_bits() -> int:
    """CLI default bit width; ASGS_DEFAULT_BITS overrides the built-in 128."""
    raw = os.environ.get("ASGS_DEFAULT_BITS")
    if raw is None or not raw.strip():
        return 128
    try:
        bits = int(raw)
    except ValueError:
        raise ParseError(f"ASGS_DEFAULT_BITS must be an integer, got {raw!r}") from None
    if bits < 1:
        raise ParseError(f"ASGS_DEFAULT_BITS must be >= 1, got {bits}")
    return bits


def parse_tamper_rule(text: str) -> TamperRule:
    """Parse party:kind:occurrence:bit:index into a tamper rule whose
    spec is ``text``, so numbers must be plain decimal integers."""
    parts = text.split(":")
    if len(parts) != 5 or parts[3] != "bit":
        raise ParseError(
            f"tamper rule must look like party:kind:occurrence:bit:index, got {text!r}"
        )
    party, kind, occurrence, _, bit = parts
    try:
        rule = TamperRule(party, kind, int(occurrence), int(bit))
        if rule.spec() != text:
            raise ValueError("occurrence and bit must be plain decimal integers")
    except ValueError as exc:
        raise ParseError(f"tamper rule {text!r}: {exc}") from None
    return rule


@dataclass
class ScenarioSpec:
    """One fully described run: command, parameters, randomness, outputs."""

    command: str
    bits: int | None = None
    seed: int | None = None
    fixtures: dict[str, str] = field(default_factory=dict)
    out_dir: str = "."
    audit: bool = False
    tamper: tuple[str, ...] = ()
    n: int | None = None
    d: int | None = None
    secret_hex: str | None = None
    mode: str | None = None
    in_path: str | None = None
    state_path: str | None = None
    set1_path: str | None = None
    set2_path: str | None = None
    bulletin_path: str | None = None
    keys_path: str | None = None
    transcript_path: str | None = None
    start: str | None = None
    then: tuple[str, ...] = ()


@dataclass
class RunResult:
    """What one command produced. A handler fills in ``documents``,
    ``summary`` and ``exit_code``; :func:`run_scenario` writes the
    documents and records where in ``artifacts``."""

    spec: ScenarioSpec
    env: ProtocolEnv | None = None
    documents: dict[str, dict] = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)
    exit_code: int = 0
    artifacts: dict[str, Path] = field(default_factory=dict)
    out_dir: Path = field(init=False)

    def __post_init__(self) -> None:
        self.out_dir = Path(self.spec.out_dir)
        text = str(self.out_dir)
        self._prefix = "" if text == "." else os.path.join(text, "")

    def path(self, name: str) -> str:
        """``str(self.out_dir / name)``, for summary lines, without
        building a path."""
        return self._prefix + name


def _build_env(spec: ScenarioSpec, bits: int) -> ProtocolEnv:
    params = SchemeParams.binary(bits)
    rules = tuple(parse_tamper_rule(t) for t in spec.tamper)
    for k, rule in enumerate(rules):
        # Two flips of one bit cancel, so a repeated rule is a mistake.
        if rule in rules[:k]:
            raise ParseError(f"tamper rule {rule.spec()} given twice")
    if spec.seed is not None and spec.fixtures:
        raise ParseError("--seed and --fixture are mutually exclusive")
    if not spec.fixtures:
        # Runs stay reproducible when neither flag is given: seed 0.
        return ProtocolEnv.seeded(spec.seed if spec.seed is not None else 0, bits,
                                  tamper_rules=rules)
    vectors = {role: read_fixture_file(path, params) for role, path in spec.fixtures.items()}
    return ProtocolEnv.with_fixtures(
        params,
        **vectors,
        tamper_rules=rules,
        config={"fixture_paths": dict(sorted(spec.fixtures.items()))},
    )


def _resolve_bits(spec: ScenarioSpec, *doc_bits: int) -> int:
    """Document-driven commands take their width from the documents."""
    agreed = set(doc_bits)
    if len(agreed) > 1:
        raise ParseError(f"input documents disagree on bit width: {sorted(agreed)}")
    if doc_bits:
        bits = doc_bits[0]
        if spec.bits is not None and spec.bits != bits:
            raise ParseError(
                f"--bits {spec.bits} conflicts with input documents at {bits} bits"
            )
        return bits
    return spec.bits if spec.bits is not None else default_bits()


def _require(value, flag: str):
    if value is None:
        raise ParseError(f"missing required option {flag}")
    return value


def _violation_lines(violations: list[Violation]) -> list[str]:
    return [
        f"violation: seq={v.seq} recipient={v.recipient} "
        f"class={v.value_class} kind={v.kind}"
        for v in violations
    ]


# ---------------------------------------------------------------------------
# Protocol steps, shared by the single commands and by simulate, and the
# command handlers, which return documents, summary and exit code
# ---------------------------------------------------------------------------


def _set_generate_step(
    spec: ScenarioSpec, out: RunResult
) -> tuple[AuthorizedShareSet, AuthorizedShareSet]:
    template_count = _require(spec.d, "--d")
    master_count = _require(spec.n, "--n")
    template, master = set_generate_m(template_count, master_count, out.env)
    out.documents["u1.json"] = share_set_to_doc(template)
    out.documents["u2.json"] = share_set_to_doc(master)
    return template, master


def _safeshares_step(spec: ScenarioSpec, out: RunResult) -> tuple[SafeSharesState, ShareVector]:
    count = _require(spec.n, "--n")
    secret = decode_vector(_require(spec.secret_hex, "--secret"), out.env.params)
    state = safe_shares(secret, count, out.env)
    out.documents["state.json"] = safe_state_to_doc(state)
    out.documents["protected.json"] = share_set_to_doc(state.protected_set())
    return state, secret


def _activate_step(state: SafeSharesState, out: RunResult) -> AuthorizedShareSet:
    activated = activate_shares(state, out.env)
    out.documents["activated.json"] = share_set_to_doc(activated)
    return activated


def _replicate_step(
    source: AuthorizedShareSet, mode: str, target: int | None, out: RunResult
) -> AuthorizedShareSet:
    if mode == "equal":
        if target is not None:
            raise ParseError(f"--d {target} applies only to --mode bigger or smaller")
        derived = equal_set_replicate(source, out.env)
    elif mode == "bigger":
        derived = set_replicate_to_bigger(source, _require(target, "--d"), out.env)
    elif mode == "smaller":
        derived = set_replicate_to_smaller(source, _require(target, "--d"), out.env)
    else:
        raise ParseError(f"unknown replication mode {mode!r}")
    out.documents["derived.json"] = share_set_to_doc(derived)
    return derived


def _distribute_step(
    set1: AuthorizedShareSet, set2: AuthorizedShareSet, out: RunResult
) -> tuple[BulletinBoard, KeyAssignment]:
    bulletin, assignment = distribute_shares_and_keys(set1, set2, out.env)
    out.documents["bulletin.json"] = bulletin_to_doc(bulletin)
    out.documents["keys.json"] = key_assignment_to_doc(assignment)
    return bulletin, assignment


def _gen_m(spec: ScenarioSpec, out: RunResult) -> None:
    count = _require(spec.n, "--n")
    params = out.env.params
    out.env.note_operation("generate_mask_set", n=count)
    masks = generate_mask_set(count, out.env.source(ROLE_ACCUMULATOR), params)
    out.documents["masks.json"] = mask_set_to_doc(masks)
    out.summary.append(
        f"mask set of {count} vectors ({params.dimension} bits) -> {out.path('masks.json')}"
    )


def _set_generate(spec: ScenarioSpec, out: RunResult) -> None:
    template, master = _set_generate_step(spec, out)
    out.summary.append(f"template set ({len(template)} shares) -> {out.path('u1.json')}")
    out.summary.append(f"master set ({len(master)} shares) -> {out.path('u2.json')}")


def _replicate(spec: ScenarioSpec, out: RunResult, source: AuthorizedShareSet) -> None:
    derived = _replicate_step(source, _require(spec.mode, "--mode"), spec.d, out)
    out.summary.append(f"derived set ({len(derived)} shares) -> {out.path('derived.json')}")


def _fastshare(spec: ScenarioSpec, out: RunResult) -> None:
    count = _require(spec.n, "--n")
    secret = decode_vector(_require(spec.secret_hex, "--secret"), out.env.params)
    shares = fast_share(secret, count, out.env)
    out.documents["shares.json"] = share_set_to_doc(shares)
    out.summary.append(f"owner set ({count} shares) -> {out.path('shares.json')}")


def _safeshares(spec: ScenarioSpec, out: RunResult) -> None:
    state, _ = _safeshares_step(spec, out)
    out.summary.append(
        f"protected set ({len(state.protected_ints)} shares) -> {out.path('protected.json')}"
    )
    out.summary.append(f"full pre-positioning state -> {out.path('state.json')}")


def _activate(spec: ScenarioSpec, out: RunResult, state: SafeSharesState) -> None:
    activated = _activate_step(state, out)
    out.summary.append(f"activated set ({len(activated)} shares) -> {out.path('activated.json')}")


def _pvss_distribute(
    spec: ScenarioSpec, out: RunResult, set1: AuthorizedShareSet, set2: AuthorizedShareSet
) -> None:
    _distribute_step(set1, set2, out)
    out.summary.append(
        f"bulletin ({len(set1)}+{len(set2)} entries) -> {out.path('bulletin.json')}"
    )
    out.summary.append(f"key assignment -> {out.path('keys.json')}")


def _pvss_recover_keys(spec: ScenarioSpec, out: RunResult, assignment: KeyAssignment) -> None:
    result = recover_xored_keys(
        assignment, len(assignment.set1_ints), len(assignment.set2_ints), out.env
    )
    out.summary.append(f"xored_keys={encode_vector(result)}")


def _pvss_verify(
    spec: ScenarioSpec, out: RunResult, bulletin: BulletinBoard, assignment: KeyAssignment
) -> None:
    result = verify(bulletin, assignment, out.env)
    out.summary.append(f"xored_encrypted_shares={encode_vector(result.xored_encrypted_shares)}")
    out.summary.append(f"xored_keys={encode_vector(result.xored_keys)}")
    out.summary.append(f"verdict={result.verdict.value}")
    out.exit_code = 0 if result.verdict is Verdict.POSITIVE else 2


def _audit(spec: ScenarioSpec, out: RunResult, transcript: Transcript) -> None:
    violations = check_visibility(transcript)
    out.summary += _violation_lines(violations) or ["no visibility violations"]
    out.exit_code = 3 if violations else 0


def _parse_then_step(token: str) -> tuple[str, tuple[str, int | None] | None]:
    if token in ("activate", "pvss"):
        return token, None
    if token.startswith("replicate-"):
        rest = token[len("replicate-"):]
        if rest == "equal":
            return "replicate", ("equal", None)
        for mode in ("bigger", "smaller"):
            prefix = mode + "="
            if rest.startswith(prefix):
                try:
                    return "replicate", (mode, int(rest[len(prefix):]))
                except ValueError:
                    break
    raise ParseError(
        f"unknown pipeline step {token!r}; expected activate, pvss, replicate-equal, "
        "replicate-bigger=N, or replicate-smaller=N"
    )


def _simulate(spec: ScenarioSpec, out: RunResult) -> None:
    """Run a chained scenario in one environment and one transcript."""
    start = _require(spec.start, "a starting algorithm")
    steps = [_parse_then_step(t) for t in spec.then]
    if start == "safeshares":
        if spec.d is not None:
            raise ParseError(f"--d {spec.d} applies only to simulate set-generate")
        state, secret = _safeshares_step(spec, out)
        out.summary.append(f"safeshares: protected set of {len(state.protected_ints)} shares")
        # what pvss compares against
        reference = AuthorizedShareSet.from_shares(SetRole.TEMPLATE, [secret])
        current = state.protected_set()
    elif start == "set-generate":
        if spec.secret_hex is not None:
            raise ParseError("--secret applies only to simulate safeshares")
        reference, current = _set_generate_step(spec, out)
        out.summary.append(
            f"set-generate: template of {len(reference)}, master of {len(current)}"
        )
    else:
        raise ParseError(
            f"unknown starting algorithm {start!r}; expected safeshares or set-generate"
        )
    for k, (step, arg) in enumerate(steps):
        if step == "activate":
            if start != "safeshares":
                raise ParseError("activate only follows safeshares")
            if k:
                raise ParseError("activate may only be the first --then step")
            current = _activate_step(state, out)
            out.summary.append(f"activate: {len(current)} shares activated")
        elif step == "replicate":
            mode, target = arg
            current = _replicate_step(current, mode, target, out)
            out.summary.append(f"replicate-{mode}: derived set of {len(current)} shares")
        else:
            if start == "safeshares" and steps[0][0] != "activate":
                raise ParseError(
                    "pvss after safeshares needs --then activate first: "
                    "the protected set does not share the secret"
                )
            result = verify(*_distribute_step(reference, current, out), out.env)
            if result.verdict is Verdict.NEGATIVE:
                out.exit_code = 2
            out.summary.append(f"pvss: verdict={result.verdict.value}")


class Option:
    """One argument of a command, as the keywords of its ``add_argument``
    call. An input document also names its ``kind``: :func:`run_scenario`
    loads the path in the ScenarioSpec field ``dest`` and decodes it
    with ``<kind>_from_doc``."""

    def __init__(self, flag: str, *, kind: str | None = None, **kwargs) -> None:
        self.flag, self.kind, self.kwargs = flag, kind, kwargs

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest", self.flag)

    def replace(self, **kwargs) -> Option:
        """The same option with some ``add_argument`` keywords replaced."""
        return Option(self.flag, kind=self.kind, **{**self.kwargs, **kwargs})


def _input(flag: str, dest: str, kind: str, help: str | None = None) -> Option:
    return Option(flag, kind=kind, dest=dest, required=True, metavar="PATH", help=help)


class Command(NamedTuple):
    handler: Callable[..., None]
    help: str
    options: tuple[Option, ...]


# Options shared by several commands. COMMON is taken by every command
# that runs a protocol, that is, all but audit.
COMMON = (
    Option("--bits", type=int,
           help="vector width in bits (default 128, or ASGS_DEFAULT_BITS)"),
    Option("--seed", type=int, help="64-bit run seed"),
    Option("--fixture", dest="fixtures", action="append", default=[], metavar="PARTY:PATH",
           help="fixture vector file for one party (dealer, owner, accumulator); repeatable"),
    Option("--out", dest="out_dir", default=".", metavar="DIR", help="output directory"),
    Option("--audit", action="store_true",
           help="audit the transcript for visibility violations"),
    Option("--tamper", action="append", default=[], metavar="RULE",
           help="bit-flip rule party:kind:occurrence:bit:index; repeatable"),
)
N = Option("--n", type=int)
D = Option("--d", type=int)
SECRET = Option("--secret", dest="secret_hex", metavar="HEX")
SPLIT = (SECRET.replace(required=True, help="secret vector in hex"),
         N.replace(required=True, help="share count"))
KEYS = _input("--keys", "keys_path", "key_assignment")

# Command name -> Command. The command "<group>-<sub>" of a group in
# GROUPS is the subcommand <sub> of <group> on the command line. Handlers
# and run_scenario look up protocol operations and decoders by their
# module-global names when they run, so wrappers installed on those
# names see every call.
COMMANDS = {
    "gen-m": Command(_gen_m, "generate a zero-sum mask set", (
        *COMMON, N.replace(required=True, help="mask set cardinality"))),
    "set-generate": Command(_set_generate, "create two share sets of a fresh unseen secret", (
        *COMMON,
        D.replace(required=True, help="template set cardinality"),
        N.replace(required=True, help="master set cardinality"))),
    "replicate": Command(_replicate, "derive a fresh share set from an existing one", (
        *COMMON,
        Option("--mode", choices=("equal", "bigger", "smaller"), required=True),
        D.replace(help="target cardinality (bigger/smaller)"),
        _input("--in", "in_path", "share_set", "share_set document to replicate"))),
    "fastshare": Command(_fastshare, "split an owner secret into shares", (*COMMON, *SPLIT)),
    "safeshares": Command(
        _safeshares, "pre-position protected shares that need later activation",
        (*COMMON, *SPLIT)),
    "activate": Command(_activate, "release keys and activate protected shares", (
        *COMMON,
        _input("--state", "state_path", "safe_state",
               "safe_state document from a safeshares run"))),
    "pvss-distribute": Command(_pvss_distribute, "publish encrypted shares and deal keys", (
        *COMMON,
        _input("--set1", "set1_path", "share_set"),
        _input("--set2", "set2_path", "share_set"))),
    "pvss-recover-keys": Command(
        _pvss_recover_keys, "recover the XOR of all dealt keys", (*COMMON, KEYS)),
    "pvss-verify": Command(_pvss_verify, "compare bulletin XOR against key XOR", (
        *COMMON, _input("--bulletin", "bulletin_path", "bulletin"), KEYS)),
    "simulate": Command(_simulate, "run a chained scenario in one transcript", (
        *COMMON,
        Option("start", choices=("safeshares", "set-generate"),
               help="first algorithm of the chain"),
        SECRET, N, D,
        Option("--then", action="append", default=[], metavar="STEP",
               help="next pipeline step: activate, pvss, replicate-equal, "
               "replicate-bigger=N, replicate-smaller=N; repeatable"))),
    "audit": Command(_audit, "audit a transcript document", (
        Option("transcript_path", kind="transcript", metavar="PATH",
               help="transcript document to audit"),)),
}
GROUPS = {"pvss": "publicly verifiable consistency checks"}


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Run one command, then write everything it produced.

    The command's input documents are loaded and decoded first, and the
    width comes from them (see :func:`_resolve_bits`). Nothing reaches
    ``spec.out_dir`` unless the command succeeds and every tamper rule
    flipped a message: first the command's documents, then
    ``transcript.json``, then the optional audit of that transcript. If
    a write fails, the files this run wrote are removed again.
    """
    try:
        handler, _, options = COMMANDS[spec.command]
    except KeyError:
        raise ParseError(f"unknown command {spec.command!r}") from None
    decoded, widths = [], []
    for option in options:
        if option.kind:
            path = _require(getattr(spec, option.dest), option.flag)
            document = load_document(path, option.kind)
            decoded.append(globals()[f"{option.kind}_from_doc"](document))
            widths.append(document["bits"])
    result = RunResult(spec)
    if spec.command == "audit":
        handler(spec, result, *decoded)
        return result
    env = result.env = _build_env(spec, _resolve_bits(spec, *widths))
    handler(spec, result, *decoded)
    fired = {rule for rule, _ in env.tamper_fired}
    for rule in env.tamper_rules:
        if rule not in fired:
            raise ParseError(f"tamper rule {rule.spec()} matched no message")
    texts = {name: dumps_document(doc) for name, doc in result.documents.items()}
    texts["transcript.json"] = dumps_transcript(env.transcript)
    out_dir = result.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = result.artifacts
    try:
        for name, text in texts.items():
            artifacts[name] = out_dir / name
            artifacts[name].write_text(text, encoding="utf-8")
    except OSError:
        # Take back what this run wrote, a half-written file included.
        for path in artifacts.values():
            if path.is_file():
                path.unlink()
        raise
    result.summary.append(f"transcript -> {artifacts['transcript.json']}")
    if spec.audit:
        violations = check_visibility(env.transcript)
        result.summary += _violation_lines(violations) or ["audit: no visibility violations"]
        if violations:
            result.exit_code = 3
    return result


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1.

    The tree that :func:`build_parser` returns also holds ``leaves``:
    each command's own parser, by the words that name it on the
    command line (``("gen-m",)``, ``("pvss", "verify")``)."""

    leaves: dict[tuple[str, ...], argparse.ArgumentParser]

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree of :data:`COMMANDS`, built on first use and then
    reused for the rest of the process."""
    # --help shows the user-facing first two paragraphs of the docstring.
    parser = _Parser(prog="asgs", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.leaves = {}
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in COMMANDS.items():
        group, _, sub_name = name.partition("-")
        if group in GROUPS:
            if group not in groups:
                group_parser = commands.add_parser(group, help=GROUPS[group])
                groups[group] = group_parser.add_subparsers(dest=f"{group}_command",
                                                            required=True)
            sub = groups[group].add_parser(sub_name, help=command.help)
            words = (group, sub_name)
        else:
            sub = commands.add_parser(name, help=command.help)
            words = (name,)
        sub.set_defaults(command=name)
        for option in command.options:
            sub.add_argument(option.flag, **option.kwargs)
        parser.leaves[words] = sub
    return parser


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """Parse one command line with the parser of the command it names.

    A line that starts with a command's words goes to that command's
    leaf parser, which is the parser the tree would hand it to. What
    the leaf leaves over is reported by the tree with argparse's own
    text, as :meth:`~argparse.ArgumentParser.parse_args` would. A line
    that starts with ``--`` is rejected here, with the text argparse
    gives where it takes ``--`` for the command: some argparse versions
    drop it and run the command after it. Every other line (empty,
    ``-h``, an unknown command, a bare group) goes through the tree,
    which prints its help and usage errors.
    """
    tree = build_parser()
    if argv[:1] == ["--"]:
        choices = ", ".join(map(repr, dict.fromkeys(words[0] for words in tree.leaves)))
        tree.error(f"argument command: invalid choice: '--' (choose from {choices})")
    words = tuple(argv[:2] if argv[:1] and argv[0] in GROUPS else argv[:1])
    leaf = tree.leaves.get(words)
    if leaf is None:
        return tree.parse_args(argv)
    args, extras = leaf.parse_known_args(argv[len(words):])
    if extras:
        tree.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The argparse destinations are named after the ScenarioSpec fields."""
    values = vars(args)
    fixtures = {}
    for item in values.get("fixtures", ()):
        party, sep, path = item.partition(":")
        if not sep or party not in SOURCE_ROLES:
            raise ParseError(
                f"--fixture wants PARTY:PATH with party in {'/'.join(SOURCE_ROLES)}, got {item!r}"
            )
        if party in fixtures:
            raise ParseError(f"--fixture {party} given twice")
        fixtures[party] = path
    values["fixtures"] = fixtures
    for name in ("tamper", "then"):
        values[name] = tuple(values.get(name, ()))
    return ScenarioSpec(**{f.name: values[f.name] for f in fields(ScenarioSpec)
                           if f.name in values})


def main(argv=None) -> int:
    try:
        args = parse_command_line(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = run_scenario(_spec_from_args(args))
    except (AsgsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result.summary:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
