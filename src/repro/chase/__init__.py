"""NS-rule chase, NECs, congruence closure (paper section 6).

One engine per role:

* :func:`chase` with ``engine="sweep"`` — the strategy-parametric
  Figure 5 chase (:mod:`repro.chase.engine`), the only basic-mode engine
  and the reference every differential suite holds the others to;
* :func:`chase` in extended mode (``engine="auto"``) — the
  batch fixpoint over maintained root arrays (:mod:`repro.chase.vector`),
  run over the columns some FD mentions, the others spliced back;
* :class:`ChaseSession` — the incremental fixpoint on the journalled
  worklist core (:mod:`repro.chase.core`).
"""

from .core import SignatureChaseCore
from .session import ChaseSession, ReadLease, ResultAnswer
from .vector import VectorChaseState
from .engine import (
    ENGINE_AUTO,
    ENGINE_SWEEP,
    MODE_BASIC,
    MODE_EXTENDED,
    STRATEGY_FD_ORDER,
    STRATEGY_RANDOM,
    STRATEGY_ROUND_ROBIN,
    Application,
    ChaseResult,
    ChaseState,
    XSubstitution,
    chase,
    x_side_substitutions,
)
from .minimal import (
    canonical_form,
    church_rosser_orders,
    is_minimally_incomplete,
    minimally_incomplete,
    weakly_satisfiable,
)

__all__ = [
    "Application",
    "ChaseResult",
    "ChaseSession",
    "ChaseState",
    "ENGINE_AUTO",
    "ENGINE_SWEEP",
    "MODE_BASIC",
    "MODE_EXTENDED",
    "STRATEGY_FD_ORDER",
    "STRATEGY_RANDOM",
    "STRATEGY_ROUND_ROBIN",
    "ReadLease",
    "ResultAnswer",
    "SignatureChaseCore",
    "VectorChaseState",
    "XSubstitution",
    "canonical_form",
    "chase",
    "church_rosser_orders",
    "is_minimally_incomplete",
    "minimally_incomplete",
    "weakly_satisfiable",
    "x_side_substitutions",
]
