"""Failure detectors: application heartbeats vs TCP keep-alive defaults.

Section 4.3.4.2 of the paper: "Upon a network failure, the TCP
communication is blocked until the keep-alive timeout expires.  This
results in unacceptably long failure detection (ranging from 30 seconds to
2 hours, depending on the system defaults)", while aggressive timeouts
"generate false positives under heavy load by classifying slow connections
as failed".

Two detectors reproduce the trade-off:

* :class:`HeartbeatDetector` — periodic ping RPCs, suspect after N misses.
  The ping needs a CPU slot on the target, so an overloaded-but-alive node
  answers late and aggressive settings misfire.
* :class:`TcpKeepaliveDetector` — no probing; a peer is only discovered
  dead when ``keepalive_timeout`` elapses after its last observed traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .network import Network, NetworkTimeout, rpc_endpoint
from .nodes import Node
from .sim import Environment

# Linux default: 2 hours idle before the first keep-alive probe.
TCP_KEEPALIVE_DEFAULT = 7200.0


class DetectionRecord:
    """One failure (or false-positive) detection event."""

    __slots__ = ("target", "failed_at", "detected_at", "false_positive")

    def __init__(self, target: str, failed_at: Optional[float],
                 detected_at: float, false_positive: bool):
        self.target = target
        self.failed_at = failed_at
        self.detected_at = detected_at
        self.false_positive = false_positive

    @property
    def detection_latency(self) -> Optional[float]:
        if self.failed_at is None:
            return None
        return self.detected_at - self.failed_at


class HeartbeatDetector:
    """Pings a set of target nodes over the network."""

    def __init__(self, env: Environment, network: Network, name: str,
                 interval: float = 1.0, timeout: float = 1.0,
                 miss_threshold: int = 3,
                 ping_service_time: float = 0.0005):
        self.env = env
        self.network = network
        self.name = name
        self.interval = interval
        self.timeout = timeout
        self.miss_threshold = miss_threshold
        self.ping_service_time = ping_service_time
        self._targets: Dict[str, Node] = {}
        self._suspected: Dict[str, bool] = {}
        self._misses: Dict[str, int] = {}
        self._on_failure: List[Callable[[str], None]] = []
        self._on_recovery: List[Callable[[str], None]] = []
        self.detections: List[DetectionRecord] = []
        self._failed_at: Dict[str, Optional[float]] = {}
        self._running = False
        network.register(name, lambda message: None)

    # -- wiring ---------------------------------------------------------------

    def watch(self, node: Node) -> None:
        """Monitor ``node``; an RPC ping endpoint is installed on it that
        costs CPU time, so load delays responses."""
        self._targets[node.name] = node
        self._suspected[node.name] = False
        self._misses[node.name] = 0
        self._failed_at[node.name] = None
        node.on_crash(lambda n: self._note_real_failure(n.name))
        node.on_recover(lambda n: self._failed_at.__setitem__(n.name, None))

        def ping_handler(payload, sender):
            yield from node.execute(self.ping_service_time)
            return "pong"

        rpc_endpoint(self.network, f"ping:{node.name}", ping_handler)

    def _note_real_failure(self, target: str) -> None:
        self._failed_at[target] = self.env.now
        self.network.set_endpoint_down(f"ping:{target}", True)

    def on_failure(self, callback: Callable[[str], None]) -> None:
        self._on_failure.append(callback)

    def on_recovery(self, callback: Callable[[str], None]) -> None:
        self._on_recovery.append(callback)

    # -- the detector loop -------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for target in self._targets:
            self.env.process(self._monitor(target), name=f"hb:{target}")

    def stop(self) -> None:
        self._running = False

    def _monitor(self, target: str):
        while self._running:
            node = self._targets[target]
            if node.up:
                self.network.set_endpoint_down(f"ping:{target}", False)
            try:
                yield from self.network.rpc(
                    self.name, f"ping:{target}", "ping", timeout=self.timeout)
                self._misses[target] = 0
                if self._suspected[target]:
                    self._suspected[target] = False
                    for callback in self._on_recovery:
                        callback(target)
            except NetworkTimeout:
                self._misses[target] += 1
                if (self._misses[target] >= self.miss_threshold
                        and not self._suspected[target]):
                    self._suspected[target] = True
                    failed_at = self._failed_at.get(target)
                    record = DetectionRecord(
                        target, failed_at, self.env.now,
                        false_positive=node.up and self.network.connected(
                            self.name, f"ping:{target}"))
                    self.detections.append(record)
                    for callback in self._on_failure:
                        callback(target)
            yield self.env.timeout(self.interval)


class TcpKeepaliveDetector:
    """Detection by connection silence only — models drivers that rely on
    OS-default TCP keep-alive (section 4.3.4.2)."""

    def __init__(self, env: Environment,
                 keepalive_timeout: float = TCP_KEEPALIVE_DEFAULT):
        self.env = env
        self.keepalive_timeout = keepalive_timeout
        self._last_traffic: Dict[str, float] = {}
        self._failed_at: Dict[str, float] = {}
        self.detections: List[DetectionRecord] = []
        self._on_failure: List[Callable[[str], None]] = []
        self._watching: Dict[str, bool] = {}

    def note_traffic(self, peer: str) -> None:
        self._last_traffic[peer] = self.env.now

    def watch(self, node: Node) -> None:
        self._last_traffic[node.name] = self.env.now
        self._watching[node.name] = True
        node.on_crash(
            lambda n: self._failed_at.__setitem__(n.name, self.env.now))
        self.env.process(self._monitor(node.name), name=f"tcpka:{node.name}")

    def on_failure(self, callback: Callable[[str], None]) -> None:
        self._on_failure.append(callback)

    def _monitor(self, peer: str):
        while self._watching.get(peer):
            idle = self.env.now - self._last_traffic.get(peer, 0.0)
            if idle >= self.keepalive_timeout:
                failed_at = self._failed_at.get(peer)
                self.detections.append(DetectionRecord(
                    peer, failed_at, self.env.now,
                    false_positive=failed_at is None))
                for callback in self._on_failure:
                    callback(peer)
                return
            yield self.env.timeout(self.keepalive_timeout - idle)

    def stop(self, peer: Optional[str] = None) -> None:
        if peer is None:
            self._watching = {k: False for k in self._watching}
        else:
            self._watching[peer] = False
