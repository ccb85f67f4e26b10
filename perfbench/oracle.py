"""Straight-line integer replays of the benchmark scenarios.

Nothing here imports asgs. A vector of l bits is the int that packs its
components MSB first, and every party's stream is rebuilt from the run
seed the way the engine documents it: blake2b("SEED:LABEL") names a
Mersenne Twister stream, binary vectors come from getrandbits(l), and the
envelope assignment pops randrange picks out of 1..n. The expected values
of a scenario are therefore computed from the same draws the engine sees,
by code that shares none of its machinery.
"""

from __future__ import annotations

import hashlib
import random

KEY_RETRY_LIMIT = 64


def stream_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Draws:
    """Seeded vector stream of one party that counts what it handed out."""

    def __init__(self, seed: int, label: str, bits: int) -> None:
        self._rng = random.Random(stream_seed(seed, label))
        self._bits = bits
        self.count = 0

    def __next__(self) -> int:
        self.count += 1
        return self._rng.getrandbits(self._bits)


def xor_all(values) -> int:
    out = 0
    for value in values:
        out ^= value
    return out


def draw_assignment(seed: int, n: int) -> list[int]:
    rng = random.Random(stream_seed(seed, "assignment"))
    remaining = list(range(1, n + 1))
    return [remaining.pop(rng.randrange(len(remaining))) for _ in range(n)]


def generate_m(draws: Draws, n: int) -> list[int]:
    head = [next(draws) for _ in range(n - 1)]
    return head + [xor_all(head)]


def replicate_equal(draws: Draws, shares: list[int]) -> list[int]:
    n = len(shares)
    masks = generate_m(draws, 2 * n)
    return [shares[i] ^ masks[i] ^ masks[n + i] for i in range(n)]


def replicate_bigger(draws: Draws, shares: list[int], d: int) -> list[int]:
    n = len(shares)
    masks = generate_m(draws, n + d)
    head = [shares[i] ^ masks[i] ^ masks[n + i] for i in range(n)]
    return head + masks[2 * n:]


def replicate_smaller(draws: Draws, shares: list[int], d: int) -> list[int]:
    n = len(shares)
    masks = generate_m(draws, n + d - 1)
    blinded = [shares[i] ^ masks[i] for i in range(n)]
    head = [blinded[i] ^ masks[n + i] for i in range(d - 1)]
    return head + [xor_all(blinded[d - 1:])]


def safe_shares(seed: int, bits: int, secret: int, n: int) -> dict:
    """Masks then guarded keys off the dealer stream, the owner's split,
    and the envelope delivery by participant."""
    dealer = Draws(seed, "dealer", bits)
    owner = Draws(seed, "owner", bits)
    masks = generate_m(dealer, n)
    owner_head = [next(owner) for _ in range(n - 1)]
    owner_shares = owner_head + [xor_all(owner_head) ^ secret]
    keys = [next(dealer) for _ in range(n - 1)]
    partial = xor_all(keys)
    key_draws = n - 1
    while True:
        last = next(dealer)
        key_draws += 1
        if partial ^ last:
            break
        if key_draws - (n - 1) >= KEY_RETRY_LIMIT:
            raise RuntimeError("zero-sum key guard exhausted")
    keys.append(last)
    assignment = draw_assignment(seed, n)
    protected = [0] * n
    for i, target in enumerate(assignment):
        protected[target - 1] = masks[i] ^ keys[i] ^ owner_shares[i]
    return {
        "masks": masks,
        "keys": keys,
        "owner_shares": owner_shares,
        "protected": protected,
        "assignment": assignment,
        "key_draws": key_draws,
        "dealer": dealer,
        "owner": owner,
    }


def distribute(draws: Draws, set1: list[int], set2: list[int]) -> dict:
    keys1 = [next(draws) for _ in set1]
    keys2 = [next(draws) for _ in set2]
    return {
        "bulletin1": [s ^ k for s, k in zip(set1, keys1)],
        "bulletin2": [s ^ k for s, k in zip(set2, keys2)],
        "keys1": keys1,
        "keys2": keys2,
    }


def verify(dealt: dict, keys1: list[int], keys2: list[int]) -> tuple[bool, int]:
    """Public check: bulletin XOR against the interleaved recovery of the
    keys as their holders received them."""
    recovered = 0
    for i in range(max(len(keys1), len(keys2))):
        recovered ^= keys1[i] if i < len(keys1) else 0
        recovered ^= keys2[i] if i < len(keys2) else 0
    published = xor_all(dealt["bulletin1"]) ^ xor_all(dealt["bulletin2"])
    return published == recovered, recovered


# ---------------------------------------------------------------------------
# Whole scenarios, one per workload
# ---------------------------------------------------------------------------


def wide(seed: int, bits: int, secret: int, n: int) -> dict:
    """safe_shares -> activate -> equal replicate -> pvss against [secret]."""
    state = safe_shares(seed, bits, secret, n)
    activated = [p ^ k for p, k in zip(state["protected"], state["keys"])]
    accumulator = Draws(seed, "accumulator", bits)
    derived = replicate_equal(accumulator, activated)
    dealt = distribute(state["dealer"], [secret], derived)
    positive, recovered = verify(dealt, dealt["keys1"], dealt["keys2"])
    return {
        "state": state,
        "activated": activated,
        "derived": derived,
        "dealt": dealt,
        "positive": positive,
        "recovered": recovered,
        "draws": {
            "dealer": state["dealer"].count,
            "owner": state["owner"].count,
            "accumulator": accumulator.count,
        },
    }


def narrow(seed: int, bits: int, d: int, n: int, bigger: int) -> dict:
    """set-generate -> replicate bigger -> replicate smaller -> pvss."""
    accumulator = Draws(seed, "accumulator", bits)
    dealer = Draws(seed, "dealer", bits)
    masks = generate_m(accumulator, d + n)
    template, master = masks[:d], masks[d:]
    grown = replicate_bigger(accumulator, master, bigger)
    shrunk = replicate_smaller(accumulator, grown, n)
    dealt = distribute(dealer, template, shrunk)
    positive, recovered = verify(dealt, dealt["keys1"], dealt["keys2"])
    return {
        "secret": xor_all(template),
        "template": template,
        "master": master,
        "bigger": grown,
        "smaller": shrunk,
        "dealt": dealt,
        "positive": positive,
        "recovered": recovered,
        "draws": {"dealer": dealer.count, "owner": 0, "accumulator": accumulator.count},
    }


def cli(seeds: list[int], bits: int, secret: int, d: int, n: int, tamper_bit: int | None) -> dict:
    """The seven CLI commands; ``seeds`` holds one run seed per command
    that builds an environment."""
    s_generate, s_replicate, s_distribute, _, s_safe, _ = seeds
    accumulator = Draws(s_generate, "accumulator", bits)
    masks = generate_m(accumulator, d + n)
    template, master = masks[:d], masks[d:]
    replicate_draws = Draws(s_replicate, "accumulator", bits)
    derived = replicate_equal(replicate_draws, master)
    dealer = Draws(s_distribute, "dealer", bits)
    dealt = distribute(dealer, template, derived)
    # A tamper rule flips the first dealer key on its way to the holder,
    # so keys.json holds the flipped key while the bulletin was computed
    # with the key as drawn.
    delivered1 = list(dealt["keys1"])
    if tamper_bit is not None:
        delivered1[0] ^= 1 << tamper_bit
    positive, recovered = verify(dealt, delivered1, dealt["keys2"])
    state = safe_shares(s_safe, bits, secret, n)
    activated = [p ^ k for p, k in zip(state["protected"], state["keys"])]
    zero = {"dealer": 0, "owner": 0, "accumulator": 0}
    return {
        "template": template,
        "master": master,
        "derived": derived,
        "dealt": dealt,
        "delivered1": delivered1,
        "positive": positive,
        "recovered": recovered,
        "state": state,
        "activated": activated,
        "draws": [
            dict(zero, accumulator=accumulator.count),
            dict(zero, accumulator=replicate_draws.count),
            dict(zero, dealer=dealer.count),
            dict(zero),
            dict(zero, dealer=state["dealer"].count, owner=state["owner"].count),
            dict(zero),
        ],
    }
