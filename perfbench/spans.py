"""Span recorder for the traced run.

The recorder wraps the public functions of each asgs module from the
outside: nothing in the package changes. A function imported into
another module by name (``combine`` in ``asgs.pvss``, the protocol
operations in ``asgs.cli``) is wrapped in every module that holds it, so
the wrapper sits where the name is looked up. Each call records one span
``(name, start_ns, end_ns, parent)``, where ``parent`` is the index of
the enclosing span or -1. Spans stay in memory; the caller takes them
after each scenario and derives self time per layer from them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# Span name -> layer bucket. The bucket is the part before the colon.
KGH = ("ShareVector.__add__", "ShareVector.__sub__", "ShareVector.from_int",
       "ShareVector.to_int", "ShareVector.is_zero", "combine")
PROTOCOL_OPS = ("set_generate_m", "set_replicate", "equal_set_replicate",
                "set_replicate_to_bigger", "set_replicate_to_smaller",
                "fast_share", "safe_shares", "activate_shares")
FORMATS_ENCODE = ("encode_vector", "share_set_to_doc", "mask_set_to_doc",
                  "bulletin_to_doc", "key_assignment_to_doc", "safe_state_to_doc",
                  "transcript_to_doc")
FORMATS_DECODE = ("decode_vector", "load_document", "read_fixture_file",
                  "share_set_from_doc", "mask_set_from_doc", "bulletin_from_doc",
                  "key_assignment_from_doc", "safe_state_from_doc",
                  "transcript_from_doc")
FORMATS_WRITE = ("dump_document", "dumps_document")

# (module, attribute path, bucket). A dotted path names a class attribute.
TARGETS = (
    [("asgs.kgh", name, "kgh") for name in KGH]
    + [
        ("asgs.devices", "RandSource.next_vector", "devices.draw"),
        ("asgs.devices", "Accumulator.store", "devices.store"),
        ("asgs.protocol", "ProtocolEnv.deliver", "protocol.deliver"),
        ("asgs.protocol", "ProtocolEnv.seeded", "protocol.env"),
        ("asgs.protocol", "check_visibility", "protocol.audit"),
    ]
    + [("asgs.protocol", name, "protocol.op") for name in PROTOCOL_OPS]
    + [("asgs.pvss", name, "pvss")
       for name in ("distribute_shares_and_keys", "recover_xored_keys", "verify")]
    + [("asgs.formats", name, "formats.encode") for name in FORMATS_ENCODE]
    + [("asgs.formats", name, "formats.decode") for name in FORMATS_DECODE]
    + [("asgs.formats", name, "formats.write") for name in FORMATS_WRITE]
    + [("asgs.cli", "main", "cli.parse"), ("asgs.cli", "run_scenario", "cli.self")]
)

# Buckets whose self times add up, with trace.unattributed_ms, to the
# traced scenario time.
BUCKETS = ("kgh", "devices.draw", "devices.store", "protocol.deliver",
           "protocol.op", "protocol.audit", "protocol.env", "pvss",
           "formats.encode", "formats.decode", "formats.write",
           "cli.parse", "cli.self")


class Tracer:
    """Installs span wrappers on demand and removes them again."""

    def __init__(self, observers: dict[str, Callable] | None = None) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._observers = observers or {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        append, push, pop = spans.append, stack.append, stack.pop
        clock = time.perf_counter_ns
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            append(None)
            parent = stack[-1] if stack else -1
            push(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        loaded = [m for key, m in sys.modules.items() if key == "asgs" or key.startswith("asgs.")]
        for module_name, path, bucket in TARGETS:
            module = sys.modules[module_name]
            name = f"{bucket}:{path}"
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._patch(owner, attr, raw, replacement)
            else:
                original = getattr(module, path)
                replacement = self._wrap(name, original)
                for holder in loaded:
                    if vars(holder).get(path) is original:
                        self._patch(holder, path, original, replacement)

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """Return and forget the spans recorded so far."""
        if self._stack:
            raise RuntimeError("spans taken while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def bucket_of(name: str) -> str:
    return name.split(":", 1)[0]


def self_times(spans: list) -> tuple[Counter, Counter, int]:
    """Self time per bucket (ns), calls per span name, and the summed
    duration of the root spans (ns). Self time is a span's duration minus
    the durations of its direct children, so the self times of all
    buckets add up to the root total."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    root_ns = 0
    for name, start, end, parent in spans:
        duration = end - start
        self_ns[bucket_of(name)] += duration
        calls[name] += 1
        if parent < 0:
            root_ns += duration
        else:
            self_ns[bucket_of(spans[parent][0])] -= duration
    return self_ns, calls, root_ns
