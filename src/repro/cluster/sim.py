"""A small discrete-event simulation kernel (SimPy-flavoured).

Everything timing-related in the reproduction — network latency, CPU
service times, heartbeat timeouts, failover clocks — runs on this kernel,
so experiments are deterministic and a "one hour" availability run
finishes in milliseconds of wall time.

Model:

* an :class:`Environment` owns the clock and the event queue;
* a *process* is a Python generator that yields :class:`Event` objects
  (timeouts, other processes, resource requests, store gets...);
* when the yielded event triggers, the process resumes with the event's
  value (or the event's exception is thrown into it).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Kernel-level misuse (yielding a non-event, running a dead env...)."""


class Event:
    """A one-shot occurrence processes can wait on."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None
        self._defused = False

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        self.env._dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.env._dispatch(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it is not re-raised at run()."""
        self._defused = True


class Timeout(Event):
    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        env._schedule_at(env.now + delay, self, value)


class AllOf(Event):
    """Triggers when every child event has triggered (fails fast on the
    first failure)."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._pending = 0
        self._values: List[Any] = []
        events = list(events)
        if not events:
            env._schedule_at(env.now, self, [])
            return
        self._pending = len(events)
        self._values = [None] * len(events)
        for index, event in enumerate(events):
            event.callbacks.append(self._make_callback(index))

    def _make_callback(self, index: int):
        def callback(event: Event) -> None:
            if self.triggered:
                return
            if not event.ok:
                event.defuse()
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))
        return callback


class AnyOf(Event):
    """Triggers when the first child event triggers."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        if not events:
            env._schedule_at(env.now, self, None)
            return
        for event in events:
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
        else:
            self.succeed(event.value)


class Process(Event):
    """A running generator.  The process event triggers when the generator
    returns (value = return value) or raises (event fails)."""

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = ""):
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # bootstrap on the next dispatch slot
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        env._schedule_at(env.now, bootstrap, None)

    def interrupt(self, reason: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        event = Event(self.env)
        event.callbacks.append(
            lambda _ev: self._step(Interrupt(reason), throw=True))
        self.env._schedule_at(self.env.now, event, None)

    def _resume(self, event: Event) -> None:
        if event.ok:
            self._step(event.value, throw=False)
        else:
            event.defuse()
            self._step(event.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        if self.triggered:
            return
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            self.fail(interrupt)
            return
        except Exception as exc:  # noqa: BLE001 — propagate via event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._target = target
        target.callbacks.append(self._resume)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Environment:
    """The simulation world: clock + event queue."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List = []
        self._counter = itertools.count()
        self._dispatching: List[Event] = []
        self.process_count = 0

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        self.process_count += 1
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule_at(self, time: float, event: Event, value: Any) -> None:
        heapq.heappush(self._queue, (time, next(self._counter), event, value))

    def _dispatch(self, event: Event) -> None:
        # Run callbacks immediately (same simulated instant).
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event.ok and not event._defused and not callbacks:
            # failure nobody is waiting on: surface at run()
            self._dispatching.append(event)

    # -- running ------------------------------------------------------------

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("empty event queue")
        time, _tie, event, value = heapq.heappop(self._queue)
        self.now = time
        if event.triggered:
            return
        event.triggered = True
        event.ok = True
        event.value = value
        self._dispatch(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        while self._queue:
            self._raise_orphans()
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()
        self._raise_orphans()
        if until is not None and until > self.now:
            self.now = until

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value (raises its
        exception on failure).  ``limit`` guards against hangs."""
        while not event.triggered:
            if not self._queue:
                raise SimulationError(
                    "deadlock: event queue empty before target event")
            if limit is not None and self._queue[0][0] > limit:
                raise SimulationError(f"run_until exceeded limit {limit}")
            self.step()
        if not event.ok:
            event.defuse()
            raise event.value
        return event.value

    def _raise_orphans(self) -> None:
        while self._dispatching:
            event = self._dispatching.pop()
            if not event._defused:
                raise event.value


class Resource:
    """A capacity-limited resource with FIFO queuing (models a CPU, a disk,
    a connection slot).  ``request()`` returns an event that triggers when
    a slot is granted; callers must ``release()`` exactly once."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: List[Event] = []
        # simple stats for utilization reports
        self.total_wait_time = 0.0
        self.grants = 0
        self._wait_started: dict = {}

    def request(self) -> Event:
        event = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            self.grants += 1
            self.env._schedule_at(self.env.now, event, None)
        else:
            self._wait_started[id(event)] = self.env.now
            self._waiting.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without request")
        if self._waiting:
            event = self._waiting.pop(0)
            started = self._wait_started.pop(id(event), self.env.now)
            self.total_wait_time += self.env.now - started
            self.grants += 1
            self.env._schedule_at(self.env.now, event, None)
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)


class Store:
    """An unbounded FIFO message store (mailbox)."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.pop(0)
            self.env._schedule_at(self.env.now, getter, item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.env.event()
        if self._items:
            self.env._schedule_at(self.env.now, event, self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
