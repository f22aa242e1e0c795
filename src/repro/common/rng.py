"""Deterministic random-number helpers.

Every stochastic component (workload think times, pseudo-random backoff,
predictor reset) draws from its own :class:`random.Random` stream derived
from a master seed, so runs are reproducible across processes and
components do not perturb each other when one of them changes how many
numbers it draws.  Seeds are derived with SHA-256 (not ``hash()``, whose
string hashing is randomized per process), taken from CPython's built-in
module (:func:`repro.common.sha256`) rather than ``hashlib``: the digest
is the same, so every stream is too, but OpenSSL stays out of the process.
"""

from __future__ import annotations

import random

from repro.common import sha256


def substream(master_seed: int, *tags: object) -> random.Random:
    """Return an independent RNG derived from ``master_seed`` and ``tags``."""
    label = repr(master_seed) + "/" + "/".join(str(t) for t in tags)
    digest = sha256(label.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
