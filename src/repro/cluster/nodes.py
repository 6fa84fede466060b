"""Simulated hosts: CPU capacity, speed factors, fault states.

Section 4.1.3 of the paper is about hardware heterogeneity and silent
degradation ("a RAID controller ... suddenly becomes 2x slower when the
battery fails, and the OS rarely finds out").  A :class:`Node` therefore
has a *speed factor* and a *disk factor* that faults can change at runtime
without the node "knowing" — load balancers that assume homogeneity will
misbehave accordingly.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .sim import Environment, Resource


class Node:
    """One simulated machine."""

    def __init__(self, env: Environment, name: str, cores: int = 1,
                 speed_factor: float = 1.0, disk_factor: float = 1.0):
        self.env = env
        self.name = name
        self.cpu = Resource(env, capacity=cores)
        self.speed_factor = speed_factor
        self.disk_factor = disk_factor
        self.up = True
        self.crash_count = 0
        self.total_downtime = 0.0
        self._down_since: Optional[float] = None
        self._crash_listeners: List[Callable[["Node"], None]] = []
        self._recover_listeners: List[Callable[["Node"], None]] = []
        # busy-time accounting for utilization reports
        self.busy_time = 0.0

    # -- work execution ----------------------------------------------------

    def execute(self, service_time: float, io_fraction: float = 0.0):
        """A generator: occupy one CPU slot for the scaled service time.

        ``service_time`` is the nominal cost on a factor-1.0 node; the
        effective cost divides CPU-bound work by ``speed_factor`` and
        IO-bound work by ``disk_factor``.
        """
        if not self.up:
            raise NodeDown(self.name)
        request = self.cpu.request()
        yield request
        try:
            cpu_part = service_time * (1.0 - io_fraction) / self.speed_factor
            io_part = service_time * io_fraction / self.disk_factor
            duration = cpu_part + io_part
            started = self.env.now
            yield self.env.timeout(duration)
            self.busy_time += self.env.now - started
        finally:
            self.cpu.release()
        if not self.up:
            raise NodeDown(self.name)

    @property
    def load(self) -> int:
        """Jobs currently on or queued for the CPU."""
        return self.cpu.in_use + self.cpu.queue_length

    # -- fault state ---------------------------------------------------------

    def crash(self) -> None:
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self._down_since = self.env.now
        for listener in list(self._crash_listeners):
            listener(self)

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        if self._down_since is not None:
            self.total_downtime += self.env.now - self._down_since
            self._down_since = None
        for listener in list(self._recover_listeners):
            listener(self)

    def on_crash(self, listener: Callable[["Node"], None]) -> None:
        self._crash_listeners.append(listener)

    def on_recover(self, listener: Callable[["Node"], None]) -> None:
        self._recover_listeners.append(listener)

    # -- silent degradation ---------------------------------------------------

    def degrade_disk(self, slowdown: float) -> None:
        """RAID-battery style silent slowdown: IO becomes ``slowdown``x
        slower and nothing reports it (section 4.1.3)."""
        self.disk_factor /= slowdown

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Node({self.name!r}, {state}, load={self.load})"


class NodeDown(Exception):
    """Work was submitted to (or interrupted on) a crashed node."""

    def __init__(self, name: str):
        super().__init__(f"node {name!r} is down")
        self.node_name = name
