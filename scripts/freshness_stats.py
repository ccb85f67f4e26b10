#!/usr/bin/env python3
"""Measure share freshness across replication chains.

Every replication is supposed to re-randomize the set: a derived share
should almost never equal any share of the generation it came from, and
collisions should shrink fast as the bit width grows. This script runs
seeded chains at several widths and reports the observed collision
rates next to the 2^-l birthday-style expectation.
"""

import argparse
import random

from asgs.kgh import combine
from asgs.protocol import (
    ProtocolEnv,
    equal_set_replicate,
    set_generate_m,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)


def run_chain(seed: int, bits: int, steps: int, rng: random.Random):
    """One chain; returns (comparisons, collisions, drift_failures).

    Replicating a single-share set onto itself is excluded: a two-element
    zero-sum mask set is always a repeated pair, so that step is the
    identity by construction and says nothing about freshness.
    """
    env = ProtocolEnv.seeded(seed, bits)
    template, current = set_generate_m(rng.randint(1, 8), rng.randint(1, 8), env)
    expected = combine(template.shares)
    comparisons = 0
    collisions = 0
    expectation = 0.0
    drift = 0
    for _ in range(steps):
        target = rng.randint(1, 8)
        identity_step = target == 1 and len(current) == 1
        previous = set(current.shares)
        if target > len(current):
            current = set_replicate_to_bigger(current, target, env)
        elif target < len(current):
            current = set_replicate_to_smaller(current, target, env)
        else:
            current = equal_set_replicate(current, env)
        if not identity_step:
            for share in current.shares:
                comparisons += 1
                expectation += len(previous) * 2.0 ** -bits
                if share in previous:
                    collisions += 1
        if combine(current.shares) != expected:
            drift += 1
    return comparisons, collisions, expectation, drift


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=200, help="chains per width")
    parser.add_argument("--steps", type=int, default=10, help="replications per chain")
    parser.add_argument(
        "--widths", type=int, nargs="+", default=[8, 16, 32, 64], help="bit widths"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    args = parser.parse_args()

    print(f"{'bits':>5} {'comparisons':>12} {'collisions':>11} "
          f"{'rate':>10} {'expected':>10} {'drift':>6}")
    for bits in args.widths:
        rng = random.Random(f"{args.seed}:{bits}")
        comparisons = collisions = drift = 0
        expectation = 0.0
        for chain in range(args.chains):
            c, hits, exp, d = run_chain(
                args.seed * 100_000 + chain, bits, args.steps, rng
            )
            comparisons += c
            collisions += hits
            expectation += exp
            drift += d
        rate = collisions / comparisons if comparisons else 0.0
        predicted = expectation / comparisons if comparisons else 0.0
        print(f"{bits:>5} {comparisons:>12} {collisions:>11} "
              f"{rate:>10.2e} {predicted:>10.2e} {drift:>6}")
    print("\ndrift counts replication steps whose combined value moved; "
          "all should be zero.")


if __name__ == "__main__":
    main()
