"""Automatic secret generation and sharing over XOR of l-bit vectors.

The package simulates a small cast of parties (a dealer, a secret owner,
an accumulator device, and numbered participants) running share
generation, replication, pre-positioning, and public verification
protocols for an additive sharing scheme.  All randomness flows through
seeded or fixture-backed sources, so every run is reproducible down to
the message transcript.

Layout:

* :mod:`asgs.kgh` holds the share algebra: vectors, share sets, mask
  sets, mask generation and recovery.
* :mod:`asgs.devices` holds the accumulator register and the randomness
  sources.
* :mod:`asgs.protocol` holds the message-level protocol engine, the
  generation and replication algorithms, pre-positioning, activation,
  tampering, and the visibility audit.
* :mod:`asgs.pvss` holds distribution of encrypted shares with keys,
  key recovery, and the public consistency check.
* :mod:`asgs.formats` holds hex and JSON document codecs plus fixture
  parsing.
* :mod:`asgs.cli` holds the ``asgs`` command-line front end.
"""

from asgs.devices import Accumulator, RandSource, derive_stream_seed
from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    IndexOutOfRange,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    check_zero_sum,
    combine,
    generate_mask_set,
    partition_sums,
)
from asgs.protocol import (
    Message,
    ProtocolEnv,
    SafeSharesState,
    TamperRule,
    Transcript,
    activate_shares,
    check_visibility,
    equal_set_replicate,
    fast_share,
    safe_shares,
    set_generate_m,
    set_replicate,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)
from asgs.pvss import (
    BulletinBoard,
    KeyAssignment,
    Verdict,
    VerificationResult,
    distribute_shares_and_keys,
    recover_xored_keys,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Accumulator",
    "AsgsError",
    "AuthorizedShareSet",
    "BulletinBoard",
    "IndexOutOfRange",
    "KeyAssignment",
    "MaskSet",
    "Message",
    "MixedParams",
    "ProtocolEnv",
    "RandSource",
    "SafeSharesState",
    "SchemeParams",
    "SetRole",
    "ShareVector",
    "TamperRule",
    "Transcript",
    "Verdict",
    "VerificationResult",
    "activate_shares",
    "check_visibility",
    "check_zero_sum",
    "combine",
    "derive_stream_seed",
    "distribute_shares_and_keys",
    "equal_set_replicate",
    "fast_share",
    "generate_mask_set",
    "partition_sums",
    "recover_xored_keys",
    "safe_shares",
    "set_generate_m",
    "set_replicate",
    "set_replicate_to_bigger",
    "set_replicate_to_smaller",
    "verify",
]
