"""The one seed derivation behind every random stream in the project.

A seed is ``sha256("part|part|...")`` truncated to its first 8 bytes,
read big-endian (hashlib, not the salted built-in ``hash``), so a
stream is a pure function of its parts — the same in any process, in
any order, at any worker count.  Each scope leads its parts with its own
tag (``"ServiceEngine"``, ``"TrafficModel"``, ...), so streams of
different scopes never correlate.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict

__all__ = ["derive", "default_rng"]

#: One request counter per tag in this process (see :func:`default_rng`).
#: ``setdefault`` and ``next`` are each atomic, so two threads never
#: draw the same sequence number.
_REQUESTS: Dict[str, itertools.count] = {}


def derive(*parts) -> int:
    """``sha256("|".join(str(p) for p in parts))``, first 8 bytes, big-endian.

    Parts are formatted with ``str``; a caller that needs ``repr`` (a
    float whose exact digits matter) passes ``repr(x)`` itself.
    """
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def default_rng(tag: str) -> random.Random:
    """``Random(derive(tag, i))`` for the ``i``-th request of ``tag``.

    Requests are counted per process.  This is the fallback of
    constructors called without an ``rng``: repeated default-seeded
    objects of one kind draw different streams, while any single one
    stays reproducible from its tag and request number.  Pass an
    explicit ``rng`` for cross-process reproducibility.
    """
    sequence = next(_REQUESTS.setdefault(tag, itertools.count()))
    return random.Random(derive(tag, sequence))
