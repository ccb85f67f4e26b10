"""Paired timing of two source trees of asgs in one process.

Each tree (``--parent DIR``, ``--change DIR``) is a checkout with the
package under ``DIR/src/asgs``. Both are imported into this interpreter;
each tree's ``asgs*`` modules are kept aside and swapped into
``sys.modules`` around every call, because some functions import inside
their bodies. Each round runs every chain ``--calls`` times per tree on
the same inputs, the trees taking turns call by call (which goes first
alternates by round), and the round's ratio is the change's time over
the parent's. Each timed call follows a ``gc.collect()``, as each
perfbench scenario does, so no call pays for garbage an earlier one
left. Per chain it prints the median ratio, its quartiles and
the rounds the change won (ratio below 1).

Where a tree's modules sit in memory moves one process's ratios by a
percent or two. ``--processes N`` (N > 1) therefore runs the rounds in N
fresh child processes, which import the parent first and the change
first in turn, and prints per chain the median of the children's
medians and their min and max.

Chains:
  main    perfbench's seven ``cli`` commands of one scenario through
          ``asgs.cli.main``, stdout captured, in a fresh temporary
          directory outside the checkout (the seven calls only)
  narrow  perfbench's 16-bit library chain (its own timed interval)
  wide    perfbench's 4096-bit library chain (its own timed interval)
  cli     safe_shares(32) + activate_shares + check_visibility +
          dumps_transcript at 128 bits
  codec   dumps_transcript, then transcript_from_doc of the parsed text,
          on one set_generate_m(1000, 1000) transcript at 128 bits,
          built once per tree outside the timed call

The scenarios come from ``perfbench/workloads.py``, imported read-only.
Run from the repository root:

    python scripts/ab.py --parent ../parent --change . --rounds 30 --processes 5
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import multiprocessing
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in either tree or in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

PACKAGES = ("asgs.protocol", "asgs.pvss", "asgs.formats", "asgs.cli")


def _loaded() -> list[str]:
    return [name for name in sys.modules if name == "asgs" or name.startswith("asgs.")]


def _clear() -> None:
    for name in _loaded():
        del sys.modules[name]


def load_tree(tree: Path) -> dict:
    """The modules of ``tree``'s asgs, imported afresh and then taken
    out of ``sys.modules`` again."""
    _clear()
    src = str((tree / "src").resolve())
    sys.path.insert(0, src)
    try:
        for name in PACKAGES:
            importlib.import_module(name)
        return {name: sys.modules[name] for name in _loaded()}
    finally:
        sys.path.remove(src)
        _clear()


def use(modules: dict) -> None:
    _clear()
    sys.modules.update(modules)


def library_chain(workload: workloads.Workload):
    """A perfbench library workload's scenario ``index`` at seed 0; its
    time is the workload's own timed interval."""
    def run(index: int) -> int:
        workload.bind()
        return workload.run(workload.inputs(0, index))[0]
    return run


CLI = workloads.Cli(ROOT)  # argvs and inputs only: bind() would patch ProtocolEnv.seeded


def main_chain(index: int) -> int:
    """perfbench's ``cli`` scenario ``index`` at seed 0 through
    ``asgs.cli.main``, in a fresh directory removed after the call; a
    command that exits 1 (an error) stops the run."""
    main = sys.modules["asgs.cli"].main
    root = Path(tempfile.mkdtemp(prefix="ab-main-"))
    try:
        argvs = CLI.argvs(CLI.inputs(0, index), root)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter_ns()
            codes = [main(argv) for argv in argvs]
            elapsed = time.perf_counter_ns() - start
    finally:
        shutil.rmtree(root)
    if 1 in codes:
        raise RuntimeError(f"cli scenario {index} exited {codes}")
    return elapsed


def cli_chain(index: int) -> int:
    """The library calls behind ``safeshares``, ``activate`` and
    ``--audit``, then the transcript text, at 128 bits."""
    kgh, protocol = sys.modules["asgs.kgh"], sys.modules["asgs.protocol"]
    formats = sys.modules["asgs.formats"]
    start = time.perf_counter_ns()
    env = protocol.ProtocolEnv.seeded(index, 128)
    state = protocol.safe_shares(kgh.ShareVector.from_int(env.params, index + 1), 32, env)
    protocol.activate_shares(state, env)
    protocol.check_visibility(env.transcript)
    formats.dumps_transcript(env.transcript)
    return time.perf_counter_ns() - start


@functools.cache
def codec_transcript(protocol) -> object:
    """A tree's ``set_generate_m(1000, 1000)`` transcript at 128 bits,
    built once per tree (keyed by its ``asgs.protocol`` module)."""
    env = protocol.ProtocolEnv.seeded(0, 128)
    protocol.set_generate_m(1000, 1000, env)
    return env.transcript


def codec_chain(index: int) -> int:
    """The transcript writer and reader on 2000 rows at 128 bits."""
    formats = sys.modules["asgs.formats"]
    transcript = codec_transcript(sys.modules["asgs.protocol"])
    start = time.perf_counter_ns()
    formats.transcript_from_doc(json.loads(formats.dumps_transcript(transcript)))
    return time.perf_counter_ns() - start


CHAINS = {
    "main": main_chain,
    "narrow": library_chain(workloads.Narrow(ROOT)),
    "wide": library_chain(workloads.Wide(ROOT)),
    "cli": cli_chain,
    "codec": codec_chain,
}


SIDES = ("parent", "change")


def paired(trees: dict, order: tuple[str, str], chain, indices: range) -> dict[str, int]:
    """Each tree's total time over ``indices``, the trees taking turns
    call by call in ``order``, each call after a ``gc.collect()``."""
    times = dict.fromkeys(order, 0)
    for index in indices:
        for side in order:
            use(trees[side])
            gc.collect()
            times[side] += chain(index)
    return times


def run_rounds(parent: Path, change: Path, rounds: int, calls: int,
               imported: tuple[str, str] = SIDES) -> dict[str, list[float]]:
    """Each chain's change/parent ratio per round, the trees imported in
    the order ``imported`` names them."""
    warnings.simplefilter("ignore")  # the zero-key warning of 16-bit pvss runs
    paths = {"parent": parent, "change": change}
    trees = {side: load_tree(paths[side]) for side in imported}
    ratios: dict[str, list[float]] = {name: [] for name in CHAINS}
    for chain in CHAINS.values():  # one warm-up call per tree
        paired(trees, imported, chain, range(1))
    for round_index in range(rounds):
        indices = range(round_index * calls, (round_index + 1) * calls)
        order = SIDES if round_index % 2 == 0 else SIDES[::-1]
        for name, chain in CHAINS.items():
            times = paired(trees, order, chain, indices)
            ratios[name].append(times["change"] / times["parent"])
    _clear()
    return ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree timed as the parent")
    parser.add_argument("--change", type=Path, required=True, help="tree timed as the change")
    parser.add_argument("--rounds", type=int, default=30, help="paired rounds per chain")
    parser.add_argument("--calls", type=int, default=10, help="calls per tree per round")
    parser.add_argument("--processes", type=int, default=1,
                        help="fresh child processes to run the rounds in (default 1: this one)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1 or args.processes < 1:
        parser.error("--rounds, --calls and --processes must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "asgs" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/asgs package")
    rounds = (args.parent, args.change, args.rounds, args.calls)
    if args.processes == 1:
        print(f"{'chain':<8} {'rounds':>6} {'median':>7} {'q1':>7} {'q3':>7} {'wins':>7}")
        for name, values in run_rounds(*rounds).items():
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            wins = sum(value < 1 for value in values)
            print(f"{name:<8} {len(values):>6} {median:>7.3f} {q1:>7.3f} {q3:>7.3f} "
                  f"{f'{wins}/{len(values)}':>7}")
        return 0
    # One fresh spawned process per run, importing the parent first in
    # every other one.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        runs = [pool.apply(run_rounds, (*rounds, SIDES if child % 2 == 0 else SIDES[::-1]))
                for child in range(args.processes)]
    print(f"{'chain':<8} {'procs':>6} {'median':>7} {'min':>7} {'max':>7}")
    for name in CHAINS:
        medians = [statistics.median(run[name]) for run in runs]
        print(f"{name:<8} {len(medians):>6} {statistics.median(medians):>7.3f} "
              f"{min(medians):>7.3f} {max(medians):>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
