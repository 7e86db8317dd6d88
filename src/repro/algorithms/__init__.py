"""Broadcast protocols: the generic framework and every special case."""

from .ahbp import AHBP
from .base import BroadcastProtocol, NodeContext, Timing
from .dominant_pruning import (
    DominantPruning,
    PartialDominantPruning,
    TotalDominantPruning,
)
from .flooding import Flooding
from .gossip import Gossip
from .generic import (
    GenericNeighborDesignating,
    GenericSelfPruning,
    GenericStatic,
)
from .hybrid import Hybrid, MaxDegHybrid, MinPriHybrid, RelaxedMaxDegHybrid
from .lenwb import LENWB
from .mpr import MultipointRelay
from .precomputed import PrecomputedForwardSet
from .registry import REGISTRY, ProtocolInfo, create, names, table1_rows
from .rule_k import RuleK
from .sba import SBA
from .span import Span
from .stojmenovic import Stojmenovic
from .wu_li import WuLi

__all__ = [
    "AHBP",
    "BroadcastProtocol",
    "NodeContext",
    "Timing",
    "DominantPruning",
    "PartialDominantPruning",
    "TotalDominantPruning",
    "Flooding",
    "Gossip",
    "GenericNeighborDesignating",
    "GenericSelfPruning",
    "GenericStatic",
    "Hybrid",
    "MaxDegHybrid",
    "MinPriHybrid",
    "RelaxedMaxDegHybrid",
    "LENWB",
    "MultipointRelay",
    "PrecomputedForwardSet",
    "REGISTRY",
    "ProtocolInfo",
    "create",
    "names",
    "table1_rows",
    "RuleK",
    "SBA",
    "Span",
    "Stojmenovic",
    "WuLi",
]
