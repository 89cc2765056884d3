"""Distributed substrate: DNS, transport, organizing and sensing agents.

The paper's deployment -- organizing agents on Internet-connected PCs,
sensor proxies feeding them, DNS carrying the node-to-site mapping --
rebuilt in-process with deterministic loopback delivery (serialized
per site, so concurrent clients are safe) and, in
:mod:`repro.net.tcpruntime`, over real localhost sockets.  The fault
layer -- retries with deterministic backoff, per-peer circuit breakers,
partial answers and the seeded :class:`FaultyNetwork` -- lives in
:mod:`repro.net.retry` and :mod:`repro.net.faults`.
"""

from repro.net.cluster import Cluster
from repro.net.continuous import ContinuousQueryManager, Subscription
from repro.net.dns import DnsRecord, DnsResolver, DnsServer
from repro.net.errors import (
    CircuitOpenError,
    FrameTooLarge,
    MessageError,
    MigrationError,
    NameNotFound,
    NetError,
    RemoteError,
    UnknownSite,
)
from repro.net.faults import FaultyNetwork, InjectedFault, SiteDown
from repro.net.framing import FrameReader
from repro.net.load import PathLoadTracker
from repro.net.messages import (
    AckMessage,
    AdoptMessage,
    AnswerMessage,
    BatchAnswerMessage,
    BatchQueryMessage,
    ErrorMessage,
    Message,
    QueryMessage,
    UpdateMessage,
)
from repro.net.oa import OAConfig, OrganizingAgent
from repro.net.retry import (
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    SiteHealthTracker,
)
from repro.net.sa import RandomSensorModel, SensingAgent
from repro.net.tcpruntime import TcpCluster, TcpNetwork, TcpSiteServer
from repro.net.transport import LoopbackNetwork, TrafficLog

__all__ = [
    "Cluster",
    "ContinuousQueryManager",
    "Subscription",
    "OrganizingAgent",
    "OAConfig",
    "PathLoadTracker",
    "SensingAgent",
    "RandomSensorModel",
    "DnsServer",
    "DnsResolver",
    "DnsRecord",
    "LoopbackNetwork",
    "TcpCluster",
    "TcpNetwork",
    "TcpSiteServer",
    "FrameReader",
    "TrafficLog",
    "FaultyNetwork",
    "InjectedFault",
    "SiteDown",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "SiteHealthTracker",
    "Deadline",
    "Message",
    "QueryMessage",
    "AnswerMessage",
    "BatchQueryMessage",
    "BatchAnswerMessage",
    "ErrorMessage",
    "UpdateMessage",
    "AckMessage",
    "AdoptMessage",
    "NetError",
    "FrameTooLarge",
    "NameNotFound",
    "UnknownSite",
    "MessageError",
    "MigrationError",
    "RemoteError",
    "CircuitOpenError",
]
