"""Protocol variant registry (paper Tables 1 and the baselines).

Each :class:`ProtocolConfig` fully determines how a machine is built:
which protocol family, how many transient requests a token policy issues
before falling back on the correctness substrate, which persistent-request
activation mechanism is used, and the optional predictor/filter features.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.common.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """One row of Table 1 (token variants) or a baseline protocol."""

    name: str
    family: str  # "token" | "directory" | "perfect"
    max_transient: int = 0  # transient requests before persistent (0, 1, 4)
    activation: str = "dst"  # "arb" | "dst"
    use_predictor: bool = False  # TokenCMP-dst1-pred
    use_filter: bool = False  # TokenCMP-dst1-filt
    dir_zero_cycle: bool = False  # DirectoryCMP-zero
    migratory: bool = True  # migratory-sharing optimization
    read_tokens_c: bool = True  # external read responses carry C tokens
    response_delay: bool = True  # bounded hold window (Section 3.2)
    # TokenB (Martin et al., ISCA 2003): the original *flat* performance
    # policy the paper argues against for M-CMPs — every transient request
    # broadcasts to every cache in the machine, and the timeout averages
    # ALL response latencies (fast on-chip hits included).
    flat_policy: bool = False
    # Destination-set prediction (Section 8's pointer for larger systems):
    # escalated transient requests multicast to the predicted holder chips
    # instead of broadcasting to every CMP.
    use_multicast: bool = False

    def __post_init__(self) -> None:
        if self.family not in ("token", "directory", "perfect", "snooping"):
            raise ConfigError(f"unknown protocol family {self.family!r}")
        if self.activation not in ("arb", "dst"):
            raise ConfigError(f"unknown activation mechanism {self.activation!r}")
        if self.max_transient not in (0, 1, 2, 4):
            raise ConfigError(
                "max_transient must be 0, 1 or 4 (Table 1) — or 2 for the "
                "multicast extension (predicted set, then one full broadcast)"
            )


def _token(name: str, **kw) -> ProtocolConfig:
    return ProtocolConfig(name=name, family="token", **kw)


PROTOCOLS: Dict[str, ProtocolConfig] = {
    # Table 1: TokenCMP variants.
    "TokenCMP-arb0": _token("TokenCMP-arb0", max_transient=0, activation="arb"),
    "TokenCMP-dst0": _token("TokenCMP-dst0", max_transient=0, activation="dst"),
    "TokenCMP-dst4": _token("TokenCMP-dst4", max_transient=4, activation="dst"),
    "TokenCMP-dst1": _token("TokenCMP-dst1", max_transient=1, activation="dst"),
    "TokenCMP-dst1-pred": _token(
        "TokenCMP-dst1-pred", max_transient=1, activation="dst", use_predictor=True
    ),
    "TokenCMP-dst1-filt": _token(
        "TokenCMP-dst1-filt", max_transient=1, activation="dst", use_filter=True
    ),
    # Extension the paper points to for systems with more CMPs.
    "TokenCMP-dst1-mcast": _token(
        # Two transient attempts: the multicast to the predicted set, then
        # (on misprediction) one full broadcast before going persistent.
        "TokenCMP-dst1-mcast", max_transient=2, activation="dst", use_multicast=True
    ),
    # The original flat policy (Section 4 explains why it fits M-CMPs
    # poorly); retained for the hierarchical-vs-flat policy ablation.
    "TokenB": _token(
        "TokenB", max_transient=4, activation="arb", flat_policy=True,
        read_tokens_c=False,  # C-token read responses are a TokenCMP addition
    ),
    # Baselines (Section 2 / Section 6).
    "DirectoryCMP": ProtocolConfig(name="DirectoryCMP", family="directory"),
    # Section 1's S-CMP baseline: MOESI snooping on a logical bus
    # (single-chip machines only).
    "SnoopingSCMP": ProtocolConfig(name="SnoopingSCMP", family="snooping"),
    "DirectoryCMP-zero": ProtocolConfig(
        name="DirectoryCMP-zero", family="directory", dir_zero_cycle=True
    ),
    "PerfectL2": ProtocolConfig(name="PerfectL2", family="perfect"),
}


def protocol(name: str) -> ProtocolConfig:
    """Look up a protocol by its paper name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigError(
            f"unknown protocol {name!r}; known: {', '.join(sorted(PROTOCOLS))}"
        ) from None
