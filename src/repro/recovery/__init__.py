"""Token-recreation recovery subsystem (paper Sections 3 & 7).

Token coherence's strongest robustness claim is that *genuinely lost*
tokens — destroyed by a lossy fabric or by a controller losing its soft
state — are recoverable: the block's home memory controller is the ruler
of tokens and can, after a timeout tier above persistent requests, bump
the block's *recreation epoch*, invalidate every stale token, and
reconstitute the full token set at memory while preserving the
single-owner safety invariant.

This package holds the recovery bookkeeping shared across layers:

* :class:`~repro.recovery.ledger.RecoveryLedger` — per-block accounting
  of destroyed-then-recreated tokens, consulted by the epoch-aware
  conservation check;
* :mod:`repro.recovery.campaign` — the deterministic fault-campaign
  engine that drives recovery scenarios through the ``repro.exp`` Runner
  and emits canonical ``repro.campaign/1`` reports.

The protocol mechanics themselves live with the controllers
(``repro.core.memctrl`` owns epochs; ``repro.core.l1`` owns the
recreation escalation tier; ``repro.faults`` owns the injectors).
"""

from repro.recovery.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    Scenario,
    cell_verdict,
    render_text,
    run_campaign,
)
from repro.recovery.ledger import RecoveryLedger

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignConfig",
    "RecoveryLedger",
    "Scenario",
    "cell_verdict",
    "render_text",
    "run_campaign",
]
