"""Many homes, one process: the :class:`HomeFleet`.

The paper deployed one UniInt server per home.  Scaling that to a hosted
service means packing many :class:`~repro.home.Home` instances into one
process — each home keeps its own deterministic virtual-time scheduler,
its own real TCP listener for UIP clients, and its own failure domain,
while a single :class:`~repro.net.reactor.Reactor` multiplexes all of
their events and sockets over one ``selectors`` loop.

Isolation is the point, and it is enforced per home:

* **fairness** — each home fires at most its *event budget* of scheduler
  events per reactor turn, so one home stuck in an event storm degrades
  into a slow tenant, not a noisy neighbour that freezes the loop;
* **containment** — an exception escaping any of a home's events or
  socket callbacks quarantines that home (events stop, its fds leave the
  selector, the error is recorded on its member) and the rest of the
  fleet keeps serving frames.

>>> fleet = HomeFleet()
>>> homes = [fleet.add_home(f"h{i}") for i in range(3)]   # doctest: +SKIP
>>> fleet.settle()                                        # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.home import Home
from repro.net.reactor import DEFAULT_EVENT_BUDGET, Reactor
from repro.util.errors import ProxyError
from repro.util.scheduler import Scheduler


@dataclass
class HomeFailureRecord:
    """The supervisor's memory of one home's crashes.

    Grows one entry per quarantine observed by :meth:`HomeFleet.supervise`;
    ``permanent`` flips once the restart budget is spent and the home is
    left quarantined for good, with ``reason`` saying why.
    """

    name: str
    restarts: int = 0
    errors: list = field(default_factory=list)
    tracebacks: list = field(default_factory=list)
    failed_at: list = field(default_factory=list)
    permanent: bool = False
    reason: Optional[str] = None


class HomeFleet:
    """N independent homes multiplexed over one I/O reactor.

    Every home added through :meth:`add_home` runs ``transport="tcp"``:
    its UIP sessions ride real kernel sockets accepted on the home's own
    listening port, so the fleet is exactly the hosted-deployment shape —
    one process, many tenants, per-tenant TCP endpoints.
    """

    def __init__(self, reactor: Optional[Reactor] = None,
                 event_budget: int = DEFAULT_EVENT_BUDGET) -> None:
        self.reactor = reactor if reactor is not None else Reactor()
        self._owns_reactor = reactor is None
        self.event_budget = event_budget
        self.homes: dict[str, Home] = {}
        self._closed = False
        # supervision (enable_supervision): restart quarantined homes
        # from their recorded provisioning spec, up to a capped budget
        self._supervised = False
        self._max_restarts = 3
        self._rebuild: Optional[Callable[["HomeFleet", str, Home],
                                         None]] = None
        self._home_specs: dict[str, dict] = {}
        self._failures: dict[str, HomeFailureRecord] = {}

    # -- tenancy ------------------------------------------------------------

    def add_home(self, name: str,
                 width: int = 160, height: int = 120,
                 **home_kwargs) -> Home:
        """Provision one tenant home on the shared reactor, with the
        fleet's event budget.  Remaining keyword arguments pass through
        to :class:`~repro.home.Home`.
        """
        if name in self.homes:
            raise ProxyError(f"home {name!r} is already in this fleet")
        home = Home(width=width, height=height,
                    scheduler=Scheduler(),
                    transport="tcp",
                    reactor=self.reactor,
                    name=name,
                    event_budget=self.event_budget,
                    **home_kwargs)
        self.homes[name] = home
        self._home_specs[name] = dict(width=width, height=height,
                                      **home_kwargs)
        return home

    def home(self, name: str) -> Home:
        found = self.homes.get(name)
        if found is None:
            raise ProxyError(f"no home {name!r} in this fleet "
                             f"(have: {sorted(self.homes) or 'none'})")
        return found

    def __len__(self) -> int:
        return len(self.homes)

    def __iter__(self) -> Iterator[Home]:
        return iter(self.homes.values())

    # -- health -------------------------------------------------------------

    @property
    def failed_homes(self) -> tuple[Home, ...]:
        """Homes the reactor has quarantined (their member raised)."""
        return tuple(home for home in self.homes.values()
                     if home.reactor_member is not None
                     and home.reactor_member.failed)

    def error_of(self, name: str) -> Optional[BaseException]:
        """The last contained exception of one home (None when healthy)."""
        member = self.home(name).reactor_member
        return member.last_error if member is not None else None

    # -- supervision --------------------------------------------------------

    def enable_supervision(self, max_restarts: int = 3,
                           rebuild: Optional[Callable[
                               ["HomeFleet", str, Home], None]] = None
                           ) -> None:
        """Arm the restart supervisor.

        A quarantined home found by :meth:`supervise` is torn down and
        re-provisioned from its recorded ``add_home`` spec, at most
        ``max_restarts`` times; a crash-looping tenant then fails
        permanently with a recorded reason.  ``rebuild(fleet, name,
        home)`` — when given — repopulates the fresh home (appliances,
        users, devices); without it the home comes back empty.
        """
        self._supervised = True
        self._max_restarts = max_restarts
        self._rebuild = rebuild

    def supervise(self) -> list[str]:
        """One supervision sweep: restart every quarantined home.

        Returns the names restarted this sweep.  Homes whose restart
        budget is spent are left quarantined and marked permanently
        failed (see :meth:`failure_of`); healthy homes are untouched.
        """
        if not self._supervised:
            return []
        restarted: list[str] = []
        for name, home in list(self.homes.items()):
            member = home.reactor_member
            if member is None or not member.failed:
                continue
            record = self._failures.setdefault(name,
                                               HomeFailureRecord(name=name))
            record.errors.append(member.last_error)
            record.tracebacks.append(member.last_traceback)
            record.failed_at.append(member.failed_at)
            if record.restarts >= self._max_restarts:
                if not record.permanent:
                    record.permanent = True
                    record.reason = (
                        f"crash loop: restart budget of "
                        f"{self._max_restarts} spent "
                        f"(last error: {member.last_error!r})")
                continue
            spec = self._home_specs.get(name, {})
            del self.homes[name]
            home.close()
            fresh = self.add_home(name, **spec)
            record.restarts += 1
            restarted.append(name)
            if self._rebuild is not None:
                self._rebuild(self, name, fresh)
        return restarted

    def failure_of(self, name: str) -> Optional[HomeFailureRecord]:
        """The supervisor's crash record for one home (None if clean)."""
        return self._failures.get(name)

    # -- driving ------------------------------------------------------------

    def settle(self) -> None:
        """Run the whole fleet until quiescent (events and sockets)."""
        self.reactor.run_until_idle()

    def run_until(self, predicate: Callable[[], bool],
                  timeout_s: Optional[float] = 5.0) -> bool:
        """Turn the reactor until ``predicate()`` holds; False on timeout."""
        return self.reactor.run_until(predicate, timeout_s=timeout_s)

    def turn(self, block_s: float = 0.0) -> bool:
        """One reactor turn (see :meth:`repro.net.reactor.Reactor.turn`)."""
        return self.reactor.turn(block_s=block_s)

    def close(self) -> None:
        """Tear down every home, then the shared reactor (if owned).

        Each home hard-closes its own registered fds (see
        :meth:`repro.home.Home.close` — no graceful drain, so a stalled
        tenant cannot wedge the teardown), then the selector itself
        closes.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for home in list(self.homes.values()):
            home.close()
        self.homes.clear()
        if self._owns_reactor:
            self.reactor.close()
