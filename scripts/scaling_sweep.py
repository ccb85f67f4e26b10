#!/usr/bin/env python3
"""Time each protocol operation against its int oracle as n and width grow.

For every operation, share count n and width, the script draws one set
of random ints, replays them into the engine as fixture streams and into
the matching straight-line function of ``tests/oracles.py``, and times
both. The engine call returns the results' int columns, as the oracle
does and as a chain passes them on; building the results' vector views,
which the int columns defer to their first read, is timed on its own.
It then times what the CLI does with the operation's transcript:
writing its text (``dumps_transcript``), reading the parsed document
back (``transcript_from_doc``) and auditing it (``check_visibility``).
It prints the median times over the repeats, which follow one untimed
engine run and view read and so are warm figures, the engine/oracle ratio,
the view time (``view_ms``), the transcript length (``msgs``), the engine time per message
(``engine_us_per_msg``) and ``total_ms``, the sum of the engine, ``dumps_ms`` and
``audit_ms`` medians (so a cost moved from the engine into a reader shows in the same row),
and exits 1 if any engine output differs from
the oracle's, any transcript text differs from ``json.dumps(doc,
sort_keys=True, indent=2) + "\\n"`` of the document it parses to, the
transcript read back differs from the one written, or the audit flags
any delivery of these honest runs.

With ``--cli`` it runs the CLI cold instead: for each n and width, a
chain of seven commands (set-generate, replicate, pvss distribute and
verify, safeshares, activate, audit), one subprocess each, in sequence.
Its header gives the cold ``import asgs.cli`` time: the median of five
``python -c "import asgs.cli"`` runs minus the start of a bare
interpreter (``python -c pass``, median of five). It prints each
command's wall time, that time minus the bare start, and the bytes of
the artifacts it wrote, and exits 1 if any command exits nonzero.

    PYTHONPATH=src python3 scripts/scaling_sweep.py
    PYTHONPATH=src python3 scripts/scaling_sweep.py --sizes 10 1000 --widths 128
    PYTHONPATH=src python3 scripts/scaling_sweep.py --cli --sizes 10 1000
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from asgs.formats import dumps_transcript, encode_vector, transcript_from_doc  # noqa: E402
from asgs.kgh import AuthorizedShareSet, SchemeParams, SetRole, ShareVector  # noqa: E402
from asgs.protocol import (  # noqa: E402
    KEY_RETRY_LIMIT,
    ProtocolEnv,
    activate_shares,
    check_visibility,
    equal_set_replicate,
    safe_shares,
    set_generate_m,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)
from asgs.pvss import Verdict, distribute_shares_and_keys, verify  # noqa: E402


# Each case takes (n, params, draw) and returns the fixture streams, an
# engine call on a fresh environment, and the oracle call. Both calls
# return the same list of outputs: packed ints and verdicts. The engine
# call also returns its result objects, whose views are timed apart.


def case_set_generate(n, params, draw):
    masks = draw(2 * n - 1)

    def engine(env):
        template, master = set_generate_m(n, n, env)
        return [*template.ints, *master.ints], (template, master)

    def oracle():
        template, master = oracles.set_generate(iter(masks), n, n)
        return template + master

    return {"accumulator": masks}, engine, oracle


def replication_case(operation, oracle_operation, target, mask_draws):
    """A replication to ``target(n)`` shares (None: equal size), whose
    mask set takes ``mask_draws(n, target)`` draws."""

    def case(n, params, draw):
        d = target(n)
        shares = draw(n)
        masks = draw(mask_draws(n, d))
        master = share_set(SetRole.MASTER, shares, params)
        args = () if d is None else (d,)

        def engine(env):
            derived = operation(master, *args, env)
            return list(derived.ints), (derived,)

        def oracle():
            return oracle_operation(iter(masks), shares, *args)

        return {"accumulator": masks}, engine, oracle

    return case


def case_safe_shares(n, params, draw):
    # Enough dealer draws for the masks, the keys and every guard retry.
    dealer = draw(2 * n + KEY_RETRY_LIMIT)
    owner = draw(n - 1)
    secret = draw(1)[0]
    secret_vector = ShareVector.from_int(params, secret)

    def engine(env):
        state = safe_shares(secret_vector, n, env)
        activated = activate_shares(state, env)
        return [*state.protected_ints, *activated.ints], (state, state.masks, activated)

    def oracle():
        state = oracles.safe_shares(iter(dealer), iter(owner), secret, n)
        return state["protected"] + oracles.activate(state["protected"], state["keys"])

    return {"dealer": dealer, "owner": owner}, engine, oracle


def case_pvss(n, params, draw):
    set1 = draw(n)
    head = draw(n - 1)
    set2 = head + [oracles.xor_all(set1) ^ oracles.xor_all(head)]
    keys = draw(2 * n)
    first = share_set(SetRole.TEMPLATE, set1, params)
    second = share_set(SetRole.MASTER, set2, params)

    def engine(env):
        bulletin, assignment = distribute_shares_and_keys(first, second, env)
        result = verify(bulletin, assignment, env)
        return [*bulletin.set1_ints, *bulletin.set2_ints, result.xored_keys,
                result.verdict is Verdict.POSITIVE], (bulletin, assignment)

    def oracle():
        b1, b2, k1, k2 = oracles.distribute(iter(keys), set1, set2)
        return [*b1, *b2, oracles.recover_keys(k1, k2), oracles.verify(b1, b2, k1, k2)]

    return {"dealer": keys}, engine, oracle


CASES = {
    "set_generate_m": case_set_generate,
    "equal_set_replicate": replication_case(
        equal_set_replicate, oracles.equal_replicate,
        target=lambda n: None, mask_draws=lambda n, d: 2 * n - 1),
    "set_replicate_to_bigger": replication_case(
        set_replicate_to_bigger, oracles.replicate_bigger,
        target=lambda n: 2 * n, mask_draws=lambda n, d: n + d - 1),
    "set_replicate_to_smaller": replication_case(
        set_replicate_to_smaller, oracles.replicate_smaller,
        target=lambda n: max(1, n // 2), mask_draws=lambda n, d: n + d - 2),
    "safe_shares+activate_shares": case_safe_shares,
    "distribute_shares_and_keys+verify": case_pvss,
}


def share_set(role, values, params):
    return AuthorizedShareSet.from_shares(
        role, [ShareVector.from_int(params, v) for v in values]
    )


def read_views(results):
    """Build every vector view of the result objects: the work their
    int columns defer to the first read."""
    for result in results:
        for name, attribute in vars(type(result)).items():
            if isinstance(attribute, cached_property):
                getattr(result, name)


def plain(outputs):
    return [v.to_int() if isinstance(v, ShareVector) else v for v in outputs]


def run_cell(case, n, bits, rng, repeat):
    """Median engine, oracle, view, ``dumps_transcript``,
    ``transcript_from_doc`` and ``check_visibility`` ms over ``repeat``
    runs; the transcript length; whether the outputs agree with the
    oracle's and the audit found nothing, and whether the transcript
    text is the canonical json.dumps text of a document that reads back
    to the same transcript.

    The engine first runs once untimed on its own environment, and the
    views of its results are read, so the timed runs are warm: no cell
    pays for the participants that ``participant()`` interns on first
    use, whichever width runs first."""
    params = SchemeParams.binary(bits)
    streams, engine, oracle = case(
        n, params, lambda count: [rng.getrandbits(bits) for _ in range(count)]
    )
    times = {"engine": [], "oracle": [], "views": [], "dumps": [], "from_doc": [], "audit": []}

    def timed(name, call):
        start = time.perf_counter()
        result = call()
        times[name].append((time.perf_counter() - start) * 1000)
        return result

    read_views(engine(ProtocolEnv.with_fixtures(params, **streams))[1])
    match = True
    for _ in range(repeat):
        env = ProtocolEnv.with_fixtures(params, **streams)
        engine_out, results = timed("engine", lambda: engine(env))
        oracle_out = timed("oracle", oracle)
        timed("views", lambda: read_views(results))
        text = timed("dumps", lambda: dumps_transcript(env.transcript))
        document = json.loads(text)  # the stdlib's parser, not timed
        restored = timed("from_doc", lambda: transcript_from_doc(document))
        violations = timed("audit", lambda: check_visibility(env.transcript))
        match = match and plain(engine_out) == oracle_out and not violations
    canonical = (text == json.dumps(document, sort_keys=True, indent=2) + "\n"
                 and list(restored) == list(env.transcript))
    medians = {name: statistics.median(ms) for name, ms in times.items()}
    return medians, len(env.transcript), match, canonical


def cli_chain(root, n, bits, secret_hex):
    """(command, argv, output directory) of one cold CLI chain, in order."""
    d = [root / str(k) for k in range(1, 7)]
    return [
        ("set-generate", ["set-generate", "--bits", str(bits), "--d", str(n), "--n", str(n),
                          "--seed", "1", "--audit"], d[0]),
        ("replicate", ["replicate", "--mode", "equal", "--in", str(d[0] / "u2.json"),
                       "--seed", "2", "--audit"], d[1]),
        ("pvss distribute", ["pvss", "distribute", "--set1", str(d[0] / "u1.json"),
                             "--set2", str(d[1] / "derived.json"), "--seed", "3", "--audit"],
         d[2]),
        ("pvss verify", ["pvss", "verify", "--bulletin", str(d[2] / "bulletin.json"),
                         "--keys", str(d[2] / "keys.json"), "--seed", "4", "--audit"], d[3]),
        ("safeshares", ["safeshares", "--bits", str(bits), "--secret", secret_hex,
                        "--n", str(n), "--seed", "5", "--audit"], d[4]),
        ("activate", ["activate", "--state", str(d[4] / "state.json"), "--seed", "6",
                      "--audit"], d[5]),
        ("audit", ["audit", str(d[5] / "transcript.json")], None),
    ]


def wall_ms(argv, env):
    """Wall time of one subprocess in ms, and its exit code."""
    start = time.perf_counter()
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
    return (time.perf_counter() - start) * 1000, code


def cli_sweep(sizes, widths, seed):
    """Run the CLI chain cold at every n and width; return the number of
    commands that exited nonzero."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    def median_ms(code):
        return statistics.median(wall_ms([sys.executable, "-c", code], env)[0] for _ in range(5))

    bare = median_ms("pass")
    print(f"python {platform.python_version()}, cold CLI: one subprocess per command; "
          f"net_ms is wall_ms minus a bare interpreter start ({bare:.1f} ms)")
    print(f"cold import asgs.cli: {median_ms('import asgs.cli') - bare:.1f} ms "
          "above a bare interpreter start (median of five)")
    print(f"{'command':<16} {'n':>6} {'bits':>5} {'wall_ms':>10} {'net_ms':>10} "
          f"{'artifact_bytes':>14}  exit")
    failures = 0
    for bits in widths:
        for n in sizes:
            rng = random.Random(f"{seed}:cli:{n}:{bits}")
            secret = encode_vector(ShareVector.from_int(SchemeParams.binary(bits),
                                                        rng.getrandbits(bits)))
            with tempfile.TemporaryDirectory() as tmp:
                for name, argv, out in cli_chain(Path(tmp), n, bits, secret):
                    argv = [sys.executable, "-m", "asgs.cli", *argv]
                    if out is not None:
                        argv += ["--out", str(out)]
                    ms, code = wall_ms(argv, env)
                    failures += code != 0
                    written = out.iterdir() if out and out.is_dir() else ()
                    size = sum(f.stat().st_size for f in written)
                    print(f"{name:<16} {n:>6} {bits:>5} {ms:>10.1f} {ms - bare:>10.1f} "
                          f"{size:>14}  {code}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 1000, 10000],
                        help="share counts n (each >= 2)")
    parser.add_argument("--widths", type=int, nargs="+", default=[128, 4096],
                        help="vector widths in bits")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cli", action="store_true",
                        help="run the CLI cold, one subprocess per command, instead")
    args = parser.parse_args()
    if min(args.sizes) < 2 or args.repeat < 1:
        parser.error("every size must be >= 2 and --repeat >= 1")
    if args.cli:
        failures = cli_sweep(args.sizes, args.widths, args.seed)
        print(f"\nfailed commands: {failures}")
        raise SystemExit(1 if failures else 0)

    print(f"python {platform.python_version()}, median of {args.repeat} runs per cell")
    print(f"{'operation':<34} {'n':>6} {'bits':>5} {'engine_ms':>10} "
          f"{'oracle_ms':>10} {'ratio':>7} {'view_ms':>9} {'msgs':>6} {'engine_us_per_msg':>17} "
          f"{'dumps_ms':>9} {'from_doc_ms':>11} {'audit_ms':>9} {'total_ms':>9}  match  text")
    mismatches = 0
    with warnings.catch_warnings():
        # Narrow widths can draw a zero one-time key; pvss warns about it.
        warnings.simplefilter("ignore", UserWarning)
        for name, case in CASES.items():
            for bits in args.widths:
                for n in args.sizes:
                    rng = random.Random(f"{args.seed}:{name}:{n}:{bits}")
                    ms, msgs, match, canonical = run_cell(case, n, bits, rng, args.repeat)
                    mismatches += not match
                    mismatches += not canonical
                    ratio = ms["engine"] / ms["oracle"] if ms["oracle"] else float("inf")
                    print(f"{name:<34} {n:>6} {bits:>5} {ms['engine']:>10.3f} "
                          f"{ms['oracle']:>10.3f} {ratio:>7.1f} {ms['views']:>9.3f} {msgs:>6} "
                          f"{ms['engine'] * 1000 / msgs:>17.3f} {ms['dumps']:>9.3f} "
                          f"{ms['from_doc']:>11.3f} {ms['audit']:>9.3f} "
                          f"{ms['engine'] + ms['dumps'] + ms['audit']:>9.3f}  "
                          f"{'yes' if match else 'NO':<5}  "
                          f"{'yes' if canonical else 'NO'}")
    print(f"\nmismatches: {mismatches}")
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
