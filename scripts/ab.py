"""Paired timing of two source trees of asgs in one process.

Each tree (``--parent DIR``, ``--change DIR``) is a checkout with the
package under ``DIR/src/asgs``. Both are imported into this interpreter;
each tree's ``asgs*`` modules are kept aside and swapped into
``sys.modules`` around every call, because some functions import inside
their bodies. Each round runs every chain ``--calls`` times per tree on
the same inputs, the trees taking turns call by call (which goes first
alternates by round), and the round's ratio is the change's time over
the parent's. Per chain it prints the median ratio, its quartiles and
the rounds the change won (ratio below 1).

Chains:
  narrow  perfbench's 16-bit library chain (its own timed interval)
  wide    perfbench's 4096-bit library chain (its own timed interval)
  cli     safe_shares(32) + activate_shares + check_visibility +
          dumps_transcript at 128 bits

The scenarios come from ``perfbench/workloads.py``, imported read-only.
Run from the repository root:

    python scripts/ab.py --parent ../parent --change . --rounds 30
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
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


CHAINS = {
    "narrow": library_chain(workloads.Narrow(ROOT)),
    "wide": library_chain(workloads.Wide(ROOT)),
    "cli": cli_chain,
}


def paired(trees: dict, order: tuple[str, str], chain, indices: range) -> dict[str, int]:
    """Each tree's total time over ``indices``, the trees taking turns
    call by call in ``order``."""
    gc.collect()
    times = dict.fromkeys(order, 0)
    for index in indices:
        for side in order:
            use(trees[side])
            times[side] += chain(index)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree timed as the parent")
    parser.add_argument("--change", type=Path, required=True, help="tree timed as the change")
    parser.add_argument("--rounds", type=int, default=30, help="paired rounds per chain")
    parser.add_argument("--calls", type=int, default=10, help="calls per tree per round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "asgs" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/asgs package")
    warnings.simplefilter("ignore")  # the zero-key warning of 16-bit pvss runs
    trees = {"parent": load_tree(args.parent), "change": load_tree(args.change)}
    ratios: dict[str, list[float]] = {name: [] for name in CHAINS}
    for chain in CHAINS.values():  # one warm-up call per tree
        paired(trees, tuple(trees), chain, range(1))
    for round_index in range(args.rounds):
        indices = range(round_index * args.calls, (round_index + 1) * args.calls)
        order = ("parent", "change") if round_index % 2 == 0 else ("change", "parent")
        for name, chain in CHAINS.items():
            times = paired(trees, order, chain, indices)
            ratios[name].append(times["change"] / times["parent"])
    _clear()
    print(f"{'chain':<8} {'rounds':>6} {'median':>7} {'q1':>7} {'q3':>7} {'wins':>7}")
    for name, values in ratios.items():
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        wins = sum(value < 1 for value in values)
        print(f"{name:<8} {len(values):>6} {median:>7.3f} {q1:>7.3f} {q3:>7.3f} "
              f"{f'{wins}/{len(values)}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
