"""Traffic generators: open-loop arrival rates, closed-loop think times.

The difference between the two is the difference the paper's workload
section insists on declaring: an **open-loop** generator issues requests
at a Poisson arrival rate regardless of whether the server keeps up
(offered load is an independent variable; overload is possible), while
a **closed-loop** generator models N clients that each wait for their
response and think before the next request (offered load is bounded by
``clients / (response + think)``; overload shows up as latency, not
queue growth).  Mixing the two — a closed-loop client population with
an arrival rate — is a specification bug, and :func:`make_traffic`
rejects it eagerly instead of producing a plausible-looking curve for a
workload nobody declared.

Both generators are seeded and draw from private
:func:`numpy.random.default_rng` streams, so a traffic schedule is a
pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ServeError

OPEN_LOOP = "open"
CLOSED_LOOP = "closed"


def _session_name(index: int) -> str:
    return f"s{index}"


@dataclass(frozen=True)
class OpenLoopTraffic:
    """Poisson arrivals at a fixed offered rate.

    ``sessions`` virtual sessions issue the requests round-robin, so
    per-session fault scoping and per-session spans have something to
    attach to even though arrivals are independent of responses.
    """

    arrival_rate: float          # requests per simulated second
    duration_s: float            # arrival horizon
    sessions: int = 4
    seed: int = 0

    kind = OPEN_LOOP

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ServeError(
                f"arrival rate must be >= 0 req/s, got "
                f"{self.arrival_rate}")
        if self.duration_s <= 0:
            raise ServeError(
                f"traffic duration must be positive, got "
                f"{self.duration_s}")
        if self.sessions < 1:
            raise ServeError(
                f"open-loop traffic needs >= 1 session, got "
                f"{self.sessions}")

    def arrivals(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(arrival_time_s, session)`` pairs in time order."""
        if self.arrival_rate == 0:
            return
        rng = np.random.default_rng([self.seed & 0x7FFFFFFF, 0x0A11])
        t = 0.0
        index = 0
        while True:
            t += float(rng.exponential(1.0 / self.arrival_rate))
            if t >= self.duration_s:
                return
            yield t, _session_name(index % self.sessions)
            index += 1

    def describe(self) -> str:
        return (f"open-loop Poisson arrivals at "
                f"{self.arrival_rate:g} req/s over {self.duration_s:g}s "
                f"({self.sessions} sessions, seed={self.seed})")


@dataclass(frozen=True)
class ClosedLoopTraffic:
    """N clients, each waiting for its response then thinking.

    Think times are exponential with mean ``think_time_s`` (a constant
    zero think time is allowed and gives the classic batch-of-N
    closed system).  ``n_clients=0`` is the degenerate quiet system:
    valid, produces no requests.
    """

    n_clients: int
    think_time_s: float
    duration_s: float
    seed: int = 0

    kind = CLOSED_LOOP

    def __post_init__(self):
        if self.n_clients < 0:
            raise ServeError(
                f"client count must be >= 0, got {self.n_clients}")
        if self.think_time_s < 0:
            raise ServeError(
                f"think time must be >= 0 s, got {self.think_time_s}")
        if self.duration_s <= 0:
            raise ServeError(
                f"traffic duration must be positive, got "
                f"{self.duration_s}")

    def _rng(self, client: int) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed & 0x7FFFFFFF, 0xC105ED, client])

    def think_seconds(self, client: int,
                      rng: np.random.Generator) -> float:
        """One think-time draw for *client* from its private stream."""
        if self.think_time_s == 0:
            return 0.0
        return float(rng.exponential(self.think_time_s))

    def client_rngs(self) -> Tuple[np.random.Generator, ...]:
        """One private think-time stream per client."""
        return tuple(self._rng(c) for c in range(self.n_clients))

    def describe(self) -> str:
        return (f"closed-loop, {self.n_clients} clients, mean think "
                f"{self.think_time_s:g}s over {self.duration_s:g}s "
                f"(seed={self.seed})")


Traffic = "OpenLoopTraffic | ClosedLoopTraffic"


def make_traffic(loop: str, duration_s: float, seed: int = 0,
                 clients: Optional[int] = None,
                 arrival_rate: Optional[float] = None,
                 think_time_s: Optional[float] = None
                 ) -> "OpenLoopTraffic | ClosedLoopTraffic":
    """Build a traffic generator, rejecting nonsensical combinations.

    This is the fail-fast surface for traffic specs a user supplies as
    loose knobs: a closed loop with an arrival rate, or an open loop
    with a think time, is refused with a diagnostic naming the
    contradiction rather than silently ignoring one of the knobs.
    """
    if loop == OPEN_LOOP:
        if think_time_s is not None:
            raise ServeError(
                "open-loop traffic is driven by an arrival rate; a "
                "think time belongs to closed-loop clients — drop "
                "think_time or use loop='closed'")
        if arrival_rate is None:
            raise ServeError(
                "open-loop traffic needs an arrival rate (req/s)")
        return OpenLoopTraffic(
            arrival_rate=arrival_rate, duration_s=duration_s,
            sessions=clients if clients is not None else 4, seed=seed)
    if loop == CLOSED_LOOP:
        if arrival_rate is not None:
            raise ServeError(
                "closed-loop traffic is driven by clients and think "
                "time; an arrival rate is an open-loop concept — drop "
                "arrival_rate or use loop='open'")
        if clients is None:
            raise ServeError(
                "closed-loop traffic needs a client count")
        return ClosedLoopTraffic(
            n_clients=clients,
            think_time_s=think_time_s if think_time_s is not None
            else 0.0,
            duration_s=duration_s, seed=seed)
    raise ServeError(
        f"unknown traffic loop {loop!r}; valid: "
        f"{OPEN_LOOP!r}, {CLOSED_LOOP!r}")
