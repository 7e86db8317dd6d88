"""Discrete-event simulation: scheduler, MAC models, hello, broadcast engine."""

from .engine import (
    BroadcastOutcome,
    SimulationEnvironment,
    run_broadcast,
)
from .energy import (
    EnergyAwarePriority,
    EnergyTracker,
    LifetimeResult,
    network_lifetime,
)
from .events import (
    NULL_BUS,
    BackoffScheduled,
    Decide,
    Deliver,
    Designate,
    Drop,
    EventBus,
    HelloBeacon,
    Nack,
    NullBus,
    RecordingBus,
    SimEvent,
    Transmit,
    events_from_jsonl,
    events_to_jsonl,
)
from .hello import HelloState, run_hello_rounds
from .mac import CollisionMac, IdealMac, JitterMac, MacModel
from .packet import Packet, TrailEntry
from .reliable import ReliableBroadcastSession, ReliableOutcome
from .scheduler import EventScheduler
from .service import (
    MessageOutcome,
    MessageState,
    ServiceEngine,
    ServiceOutcome,
    service_seed,
)
from .traffic import (
    BurstyTraffic,
    Message,
    PoissonTraffic,
    ScriptedTraffic,
    SingleShot,
    TrafficModel,
    ZipfTraffic,
    traffic_seed,
)

__all__ = [
    "BroadcastOutcome",
    "MessageState",
    "SimulationEnvironment",
    "run_broadcast",
    "MessageOutcome",
    "ServiceEngine",
    "ServiceOutcome",
    "service_seed",
    "BurstyTraffic",
    "Message",
    "PoissonTraffic",
    "ScriptedTraffic",
    "SingleShot",
    "TrafficModel",
    "ZipfTraffic",
    "traffic_seed",
    "EnergyAwarePriority",
    "EnergyTracker",
    "LifetimeResult",
    "network_lifetime",
    "SimEvent",
    "Transmit",
    "Deliver",
    "Drop",
    "Decide",
    "Designate",
    "BackoffScheduled",
    "HelloBeacon",
    "Nack",
    "EventBus",
    "NullBus",
    "RecordingBus",
    "NULL_BUS",
    "events_to_jsonl",
    "events_from_jsonl",
    "HelloState",
    "run_hello_rounds",
    "CollisionMac",
    "IdealMac",
    "JitterMac",
    "MacModel",
    "Packet",
    "ReliableBroadcastSession",
    "ReliableOutcome",
    "TrailEntry",
    "EventScheduler",
]
