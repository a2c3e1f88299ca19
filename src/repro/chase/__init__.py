"""NS-rule chase, NECs, congruence closure (paper section 6)."""

from .congruence import CongruenceEngine, congruence_chase
from .core import SignatureChaseCore
from .indexed import IndexedChaseState, indexed_chase
from .plan import Shard, ShardPlan, fuse_for_rows, plan_shards, prune_fds
from .session import ChaseSession, ReadLease, ResultAnswer, SessionSnapshot
from .sharded import sharded_chase
from .vector import VectorChaseState, vectorized_chase
from .engine import (
    ENGINE_AUTO,
    ENGINE_CONGRUENCE,
    ENGINE_INDEXED,
    ENGINE_SWEEP,
    ENGINE_VECTOR,
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
    "CongruenceEngine",
    "ENGINE_AUTO",
    "ENGINE_CONGRUENCE",
    "ENGINE_INDEXED",
    "ENGINE_SWEEP",
    "ENGINE_VECTOR",
    "IndexedChaseState",
    "MODE_BASIC",
    "MODE_EXTENDED",
    "STRATEGY_FD_ORDER",
    "STRATEGY_RANDOM",
    "STRATEGY_ROUND_ROBIN",
    "ReadLease",
    "ResultAnswer",
    "SessionSnapshot",
    "Shard",
    "ShardPlan",
    "SignatureChaseCore",
    "VectorChaseState",
    "XSubstitution",
    "canonical_form",
    "chase",
    "church_rosser_orders",
    "congruence_chase",
    "fuse_for_rows",
    "indexed_chase",
    "is_minimally_incomplete",
    "minimally_incomplete",
    "plan_shards",
    "prune_fds",
    "sharded_chase",
    "vectorized_chase",
    "weakly_satisfiable",
    "x_side_substitutions",
]
