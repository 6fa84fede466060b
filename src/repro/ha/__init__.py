"""Highly-available middleware tier (paper section 3.2 made whole).

The centralized middleware is the paper's sharpest theory/practice gap:
"a failure of the load balancer ... causes a complete system outage",
and rebuilding a certifier "requires retrieving state from every
replica".  This package eliminates the SPOF with an active/standby pair:

* :mod:`repro.ha.state` — the shipped-state data structures (commit
  ledger, epoch fence, standby mirror);
* :mod:`repro.ha.shipper` — synchronous per-commit state shipping
  (prepare before any replica commits, ack before the client's ack);
* :mod:`repro.ha.link` — the one object a middleware in a pair holds
  (``ReplicationMiddleware.ha``): role, fence + epoch, ledger, shipper;
* :mod:`repro.ha.promotion` — fenced promotion and the cold
  state-retrieval restart it is benchmarked against (E26);
* :mod:`repro.ha.pair` — the :class:`HAPair` orchestration (virtual IP,
  heartbeat arming, switchover);
* :mod:`repro.ha.client` — exactly-once client failover.
"""

from .client import COMMITTED, DEDUPED, HAClient
from .link import HALink
from .pair import HAPair, build_standby
from .promotion import (
    ColdRestartReport, PromotionReport, cold_restart,
    cold_restart_duration, promote,
)
from .shipper import StateShipper
from .state import (
    CommitLedger, EpochFence, LedgerRecord, ShippedCommit, StandbyState,
)

__all__ = [
    "COMMITTED", "DEDUPED", "HAClient",
    "HALink", "HAPair", "build_standby",
    "ColdRestartReport", "PromotionReport", "cold_restart",
    "cold_restart_duration", "promote",
    "StateShipper",
    "CommitLedger", "EpochFence", "LedgerRecord", "ShippedCommit",
    "StandbyState",
]
