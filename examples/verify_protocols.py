#!/usr/bin/env python3
"""Section 5 in miniature: model-check the coherence protocols.

Exhaustively explores the models ``python -m repro verify`` checks:
down-scaled TokenCMP correctness substrates (safety-only, distributed
activation, arbiter activation, token recreation) and a flat directory
protocol, verifying safety (token conservation, single writer, value
coherence), deadlock freedom, and liveness under fairness.

Because only the correctness substrate is modelled — the performance
policy is fully nondeterministic — a successful check covers every
performance policy at once, hierarchical ones included.  That is the
paper's central verification argument.

Usage:  python examples/verify_protocols.py [--fast]
"""

import argparse
import time

from repro.verification import verify_models
from repro.verification.checker import check, spec_size
from repro.verification.token_model import _TokenBase


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="skip TokenCMP-arb, the one slow model")
    args = parser.parse_args()

    print(f"{'model':22s} {'states':>10s} {'transitions':>12s} "
          f"{'diameter':>9s} {'spec lines':>11s} {'time':>8s}")
    for model, liveness in verify_models(fast=args.fast):
        t0 = time.time()
        result = check(model, max_states=6_000_000, check_liveness=liveness)
        lines = spec_size(type(model))
        if isinstance(model, _TokenBase):
            lines += spec_size(_TokenBase)
        print(f"{model.name:22s} {result.states:10d} {result.transitions:12d} "
              f"{result.diameter:9d} {lines:11d} {time.time() - t0:7.1f}s")
    print("\nAll properties verified: safety, deadlock freedom"
          " and (where applicable) liveness under fairness.")


if __name__ == "__main__":
    main()
