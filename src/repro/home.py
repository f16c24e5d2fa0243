"""The Home facade: one call assembles the entire simulated house.

A :class:`Home` contains the full stack of the paper's prototype:

* a :class:`~repro.havi.HomeNetwork` (HAVi middleware + hot-pluggable bus),
* one **UI surface per resident** — each a :class:`HomeView` bundling a
  :class:`~repro.windows.DisplayServer`, a
  :class:`~repro.toolkit.UIWindow` and that resident's own
  :class:`~repro.app.HomeApplianceApplication` instance (one bus/discovery
  event fan-out feeds N independent views),
* a :class:`~repro.server.UniIntServer` multiplexing all of those surfaces,
* one :class:`HomeUser` per resident — each with their own
  :class:`~repro.proxy.UniIntProxy`, server session bound to their view,
  :class:`~repro.context.ContextManager` and preference store,
* a shared :class:`~repro.context.DeviceArbiter` keeping contested devices
  owned by at most one user at a time.

A freshly built home has a single default user (``"resident"``), and all
the classic single-user attributes (``home.proxy``, ``home.session``,
``home.display``, ``home.window``, ``home.app``, ...) resolve to that
user, so existing code and the paper's original scenarios run unchanged.
``add_user`` turns the same house into the paper's headline scenario:
several people controlling *different* appliances at once — one resident
tabs their view to the TV while another drives the microwave — each
through whichever devices suit their current situation, with *follow-me*
migration as they move between rooms.  ``add_user(..., view_of=...)``
instead seats a resident in front of an existing view (the family around
the living-room panel), whose sessions share one encode of each frame
through the surface's encode cache.

Examples and experiments build on this facade; the pieces remain
individually constructible for tests.
"""

from __future__ import annotations

from typing import Optional

from repro.app.application import HomeApplianceApplication
from repro.app.commands import Command, CommandLog
from repro.appliances.base import Appliance
from repro.context.arbiter import DeviceArbiter
from repro.context.manager import ContextManager, SwitchRecord
from repro.context.model import UserSituation
from repro.context.policy import SelectionPolicy
from repro.context.preferences import PreferenceStore
from repro.devices.base import InteractionDevice
from repro.havi.manager import HomeNetwork
from repro.net import Transport, make_pipe
from repro.net.link import ETHERNET_100
from repro.net.reactor import (
    DEFAULT_EVENT_BUDGET,
    Reactor,
    ReactorMember,
    connect_tcp,
)
from repro.proxy.proxy import UniIntProxy
from repro.proxy.session import ProxySession
from repro.server.uniint_server import (
    ServerSession,
    ServerSurface,
    UniIntServer,
)
from repro.toolkit.window import UIWindow
from repro.util.errors import HaviError, ProxyError, TransportError
from repro.util.scheduler import Scheduler
from repro.windows.server import DisplayServer

#: The user every Home starts with (the classic single-user attributes
#: — ``home.proxy``, ``home.context``, ... — resolve to this user).
DEFAULT_USER = "resident"

#: What a Home's UIP sessions ride: the virtual-time pipe, or real TCP on
#: a reactor (whose device legs then ride reactor-registered socketpairs).
TRANSPORTS = ("pipe", "tcp")


class HomeView:
    """One UI surface of the home: display + window + application.

    Each view runs its *own* :class:`HomeApplianceApplication` over the
    shared middleware, so residents keep independent active tabs, focus
    and input state while one discovery/event fan-out feeds them all.
    Several users may share one view (``add_user(..., view_of=...)``) —
    their sessions then share the surface's encode cache.
    """

    def __init__(self, home: "Home", display: DisplayServer,
                 window: UIWindow, app: HomeApplianceApplication,
                 surface: ServerSurface) -> None:
        self.home = home
        self.display = display
        self.window = window
        self.app = app
        self.surface = surface
        #: The user_ids currently seated in front of this view.
        self.users: set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HomeView surface#{self.surface.surface_id} "
                f"users={sorted(self.users)}>")


class HomeUser:
    """One resident of a multi-user home.

    Bundles the per-user control plane: a UniInt proxy with its server
    session (bound to this user's view), a context manager driving that
    user's device selection, a preference store, and the set of
    personally owned devices.
    """

    def __init__(self, home: "Home", user_id: str, proxy: UniIntProxy,
                 preferences: PreferenceStore,
                 context: ContextManager, view: HomeView) -> None:
        self.home = home
        self.user_id = user_id
        self.proxy = proxy
        #: The proxy's session, set once it connects.
        self.session: Optional[ProxySession] = None
        #: The server's end of that session; a redial replaces it where
        #: the new connection is accepted.
        self.server_session: Optional[ServerSession] = None
        self.preferences = preferences
        self.context = context
        #: The UI surface this user watches (possibly shared with others).
        self.view = view
        #: Devices owned by (registered only with) this user.
        self.devices: dict[str, InteractionDevice] = {}

    # -- the user's view ----------------------------------------------------

    @property
    def display(self) -> DisplayServer:
        return self.view.display

    @property
    def window(self) -> UIWindow:
        return self.view.window

    @property
    def app(self) -> HomeApplianceApplication:
        return self.view.app

    @property
    def surface(self) -> ServerSurface:
        return self.view.surface

    def show_appliance(self, name: str) -> bool:
        """Bring the named appliance's tab to the front *of this user's
        view only* — other residents' views keep their own active tab."""
        return self.app.show_appliance(name)

    # -- situation ----------------------------------------------------------

    def set_situation(self, situation: UserSituation) -> SwitchRecord:
        """Replace this user's situation and re-select their devices."""
        return self.context.set_situation(situation)

    def update(self, **changes) -> SwitchRecord:
        """Evolve this user's situation (``user.update(hands_busy=True)``)."""
        return self.context.update(**changes)

    def move_to(self, location: str, **changes) -> SwitchRecord:
        """Follow-me: the user walks to another room.

        Re-scores devices for the new location and hands the live session
        off to whatever is at hand there; the handoff latency lands in the
        returned record's ``latency_s`` once the new output device has its
        first full frame (run the scheduler to observe it).
        """
        return self.update(location=location, **changes)

    # -- conveniences -------------------------------------------------------

    @property
    def current_input(self) -> Optional[str]:
        return self.proxy.current_input

    @property
    def current_output(self) -> Optional[str]:
        return self.proxy.current_output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HomeUser {self.user_id!r} in="
                f"{self.current_input!r} out={self.current_output!r}>")


class Home:
    """A complete simulated home with universal interaction."""

    def __init__(self, width: int = 480, height: int = 360,
                 scheduler: Optional[Scheduler] = None,
                 secret: Optional[str] = None,
                 preferences: Optional[PreferenceStore] = None,
                 transport: str = "pipe",
                 reactor: Optional[Reactor] = None,
                 name: str = "home",
                 event_budget: int = DEFAULT_EVENT_BUDGET,
                 resilience: bool = False,
                 heartbeat_s: float = 0.5) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r} "
                             f"(expected one of {TRANSPORTS})")
        if reactor is not None and transport != "tcp":
            raise ValueError("a reactor only drives transport='tcp' homes")
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.name = name
        self.network = HomeNetwork(self.scheduler)
        self._width = width
        self._height = height
        #: Self-healing mode: every user session gets heartbeats and
        #: redials a fresh session when its upstream dies, device legs
        #: redial on failure (see ``SessionResilience``).
        self._resilience = resilience
        self._heartbeat_s = heartbeat_s
        self.uniint_server = UniIntServer(None, self.scheduler,
                                          secret=secret)
        self._secret = secret
        self._transport = transport
        #: TCP mode: the I/O reactor, this home's membership in it, and
        #: the real listening socket UIP clients dial.  Device legs ride
        #: socketpairs registered under the same membership (devices are
        #: in-process peers, not TCP clients of the UIP listener).
        self.reactor: Optional[Reactor] = None
        self.reactor_member: Optional[ReactorMember] = None
        self.listener = None
        self._owns_reactor = False
        #: TCP mode: the user each dialed, not yet accepted connection
        #: belongs to, by the dialing socket's local port (the peer port
        #: the listener's accept sees).  First connects and redials both
        #: fill it.
        self._dialers: dict[int, HomeUser] = {}
        if transport == "tcp":
            self.reactor = reactor if reactor is not None else Reactor()
            self._owns_reactor = reactor is None
            self.reactor_member = self.reactor.add_scheduler(
                self.scheduler, name=name, budget=event_budget)
            self.listener = self.uniint_server.listen(
                self.reactor, member=self.reactor_member,
                on_accept=self._accept_tcp)
        self.arbiter = DeviceArbiter(self.scheduler)
        #: The home's command journal: every actuation from every view,
        #: device and API call lands here as a tracked Command.
        self.command_log = CommandLog()
        self.users: dict[str, HomeUser] = {}
        #: Every live UI surface of the home, in creation order.
        self.views: list[HomeView] = []
        # per-user last-seen output device, so switch-latency measurement
        # only arms on actual output handoffs (not input-only switches)
        self._last_outputs: dict[str, Optional[str]] = {}
        #: Every interaction device in the home, shared or personal.
        self.devices: dict[str, InteractionDevice] = {}
        #: device_id -> owning user_id, or None for shared-pool devices.
        self._device_owner: dict[str, Optional[str]] = {}
        self._shared_devices: dict[str, InteractionDevice] = {}
        self.appliances: dict[str, Appliance] = {}
        #: User hook fired once per appliance bell (each view's sessions
        #: additionally hear the bell as a beep on their output devices).
        self.on_bell = None
        self.network.events.subscribe("appliance.bell", self._on_bell_event)
        self.add_user(DEFAULT_USER, preferences=preferences)

    def _on_bell_event(self, event) -> None:
        if self.on_bell is not None:
            self.on_bell(event)

    def _route_bell(self, view: HomeView, event) -> None:
        """Per-surface bell routing: one application heard the appliance
        ding, so exactly its view's sessions get the UIP Bell."""
        self.uniint_server.ring_bell(view.surface)

    def _accept_tcp(self, transport: Transport, addr) -> None:
        """Seat an accepted TCP connection on the surface of the user who
        dialed it, and make it their server session; a connection no
        user here dialed lands on the default surface."""
        user = self._dialers.pop(addr[1], None)
        if user is None:
            self.uniint_server.accept(transport)
        else:
            user.server_session = self.uniint_server.accept(
                transport, surface=user.surface)

    # -- users ------------------------------------------------------------------

    def _make_view(self, user_id: str) -> HomeView:
        """Provision one UI surface: display + window + per-view app."""
        suffix = "" if user_id == DEFAULT_USER else f" [{user_id}]"
        window = UIWindow(self._width, self._height,
                          title=f"home appliances{suffix}")
        app_name = ("uniint-home-app" if user_id == DEFAULT_USER
                    else f"uniint-home-app-{user_id}")
        app = HomeApplianceApplication(self.network, window,
                                       app_name=app_name,
                                       command_log=self.command_log)
        display = DisplayServer(window)
        surface = self.uniint_server.add_surface(display)
        view = HomeView(self, display, window, app, surface)
        app.on_bell = lambda event, v=view: self._route_bell(v, event)
        self.views.append(view)
        return view

    def add_user(self, user_id: str,
                 situation: Optional[UserSituation] = None,
                 preferences: Optional[PreferenceStore] = None,
                 view_of: Optional[str] = None) -> HomeUser:
        """Provision one resident: view + proxy + server session + context.

        By default the new user gets their *own* UI surface — an
        independent appliance application with its own active tab, focus
        and input routing, fed by the same discovery fan-out.  With
        ``view_of`` the user instead sits down in front of an existing
        resident's view (sharing its surface *and* its encode cache),
        which is how a family watches one wall panel.

        Either way the newcomer immediately sees every *shared* device in
        the home (their proxy gets its own transport leg to each) plus
        whatever personal devices are added for them later.
        """
        if user_id in self.users:
            raise ProxyError(f"user {user_id!r} already lives here")
        view = (self._make_view(user_id) if view_of is None
                else self.user(view_of).view)
        view.users.add(user_id)
        proxy = user = None
        try:
            proxy = UniIntProxy(self.scheduler,
                                proxy_id=f"uniint-proxy-{user_id}")
            prefs = (preferences if preferences is not None
                     else PreferenceStore(user=user_id))
            context = ContextManager(proxy, SelectionPolicy(prefs),
                                     situation, user_id=user_id,
                                     arbiter=self.arbiter)
            context.on_switch = self._note_switch
            user = HomeUser(self, user_id, proxy, prefs, context, view)
            user.session = proxy.connect(self._dial(user),
                                         secret=self._secret)
            if self._transport == "tcp" and not self.reactor.run_until(
                    lambda: user.server_session is not None):
                raise TransportError(
                    f"timed out waiting for {self.name!r} to accept "
                    f"user {user_id!r}'s TCP connection")
            self.arbiter.register(context)
            self.users[user_id] = user
            for device in self._shared_devices.values():
                device.connect(proxy, member=self.reactor_member)
            if self._shared_devices:
                # the newcomer can use the shared pool right away (their
                # situation decides what, the arbiter decides whether)
                context.reselect()
            if self._resilience:
                self._enable_user_resilience(user)
        except BaseException:
            # a mid-provisioning failure (e.g. a shared device rejecting
            # the proxy) must not leak a ghost resident, session or view
            if user is not None:
                self._forget_dials(user)
            self.users.pop(user_id, None)
            self.arbiter.unregister(user_id)
            if proxy is not None:
                # shared devices that already grew a leg to this proxy
                # drop it again (tolerant of never-connected ones)
                for device in self._shared_devices.values():
                    device.disconnect(proxy.proxy_id)
                proxy.disconnect()
            if user is not None and user.server_session is not None:
                user.server_session.close()
            view.users.discard(user_id)
            if not view.users:
                view.app.close()
                self.uniint_server.remove_surface(view.surface)
                self.views.remove(view)
            raise
        return user

    def _enable_user_resilience(self, user: HomeUser) -> None:
        """Arm heartbeats + self-healing reconnect for one resident.

        Each redial opens a fresh session to this home's server, through
        :meth:`_dial` like the user's first connection, so it lands on
        the user's own surface.
        """
        user.session.enable_resilience(
            self.scheduler, lambda: self._dial(user),
            heartbeat_s=self._heartbeat_s, seed=(self.name, user.user_id))
        # a bounced device leg re-registers with a *new* binding: re-run
        # selection so the session points at it again
        user.proxy.on_device_registered = (
            lambda binding, u=user:
            u.context.reselect() if u.proxy.session is not None else None)

    def remove_user(self, user_id: str) -> None:
        """A resident leaves: tear down their sessions, device legs and —
        once nobody is left watching it — their UI surface.

        Their personal devices disconnect with them; shared devices stay
        (and any the user held are re-arbitrated to whoever wants them).
        """
        user = self.user(user_id)
        del self.users[user_id]
        self._forget_dials(user)
        self._last_outputs.pop(user_id, None)
        self.arbiter.unregister(user_id)
        for device_id in list(user.devices):
            device = user.devices.pop(device_id)
            self.devices.pop(device_id, None)
            self._device_owner.pop(device_id, None)
            device.disconnect()
        for device in self._shared_devices.values():
            device.disconnect(user.proxy.proxy_id)
        user.proxy.disconnect()
        view = user.view
        view.users.discard(user_id)
        if not view.users:
            # last viewer gone: stop this view's app from rebuilding on
            # discovery churn and release its surface + remaining sessions
            view.app.close()
            self.uniint_server.remove_surface(view.surface)
            self.views.remove(view)

    def user(self, user_id: str = DEFAULT_USER) -> HomeUser:
        found = self.users.get(user_id)
        if found is None:
            raise ProxyError(f"no user {user_id!r} in this home")
        return found

    def _dial(self, user: HomeUser) -> Transport:
        """Open a UIP connection from ``user``'s proxy to this home's
        server, their first or a redial; returns the proxy's end.

        The server's end of a pipe (the simulated Ethernet backbone) is
        accepted onto the user's surface at once.  A TCP connection is
        accepted when the reactor turns; its local port tells
        :meth:`_accept_tcp` whose it is.
        """
        if self._transport == "pipe":
            link = make_pipe(self.scheduler, ETHERNET_100,
                             name=f"uniint-link-{user.user_id}")
            user.server_session = self.uniint_server.accept(
                link.a, surface=user.surface)
            return link.b
        endpoint = connect_tcp(self.reactor, self.scheduler,
                               self.listener.address,
                               name=f"uniint-tcp-{user.user_id}",
                               member=self.reactor_member)
        self._dialers[endpoint.local_port] = user
        return endpoint

    def _forget_dials(self, user: HomeUser) -> None:
        """Drop ``user``'s connections no accept has bound yet."""
        for port in [port for port, dialer in self._dialers.items()
                     if dialer is user]:
            del self._dialers[port]

    def _note_switch(self, record: SwitchRecord) -> None:
        """Arm follow-me latency measurement for an output handoff."""
        previous = self._last_outputs.get(record.user_id)
        self._last_outputs[record.user_id] = record.output_device
        if record.output_device is None or record.output_device == previous:
            return  # no output handoff happened (e.g. input-only switch)
        device = self.devices.get(record.output_device)
        if device is None:
            return
        previous = device.on_frame

        def first_frame(image, _device=device, _previous=previous):
            if record.latency_s is None:
                record.latency_s = self.scheduler.now() - record.time
            _device.on_frame = _previous
            if _previous is not None:
                _previous(image)

        device.on_frame = first_frame

    # -- legacy single-user attributes ---------------------------------------------

    @property
    def default_user(self) -> HomeUser:
        return self.user(DEFAULT_USER)

    @property
    def display(self) -> DisplayServer:
        return self.default_user.display

    @property
    def window(self) -> UIWindow:
        return self.default_user.window

    @property
    def app(self) -> HomeApplianceApplication:
        return self.default_user.app

    @property
    def proxy(self) -> UniIntProxy:
        return self.default_user.proxy

    @property
    def session(self) -> ProxySession:
        return self.default_user.session

    @property
    def server_session(self) -> ServerSession:
        return self.default_user.server_session

    @property
    def context(self) -> ContextManager:
        return self.default_user.context

    @property
    def preferences(self) -> PreferenceStore:
        return self.default_user.preferences

    # -- population -----------------------------------------------------------

    def add_appliance(self, appliance: Appliance) -> Appliance:
        """Plug an appliance into the home bus (hotplug is fine)."""
        if appliance.name in self.appliances:
            raise HaviError(f"appliance {appliance.name!r} is already "
                            f"in this home")
        self.network.attach_device(appliance)
        self.appliances[appliance.name] = appliance
        return appliance

    def remove_appliance(self, name: str) -> None:
        """Unplug the named appliance (hot-unplug is fine).

        Views whose active tab showed it fall back to the next tab once
        the bus reset lands; re-adding an appliance with the same GUID
        later re-installs it cleanly.
        """
        appliance = self.appliances.pop(name, None)
        if appliance is None:
            raise HaviError(
                f"no appliance {name!r} in this home "
                f"(have: {sorted(self.appliances) or 'none'})")
        self.network.detach_device(appliance.guid)

    def add_device(self, device: InteractionDevice,
                   user: Optional[str] = None,
                   shared: bool = False,
                   reselect: bool = True) -> InteractionDevice:
        """Register an interaction device with the home.

        Personal devices (the default) belong to one user — only that
        user's proxy sees them.  ``shared=True`` puts the device in the
        shared pool instead: every current and future user's proxy gets a
        leg to it, and the arbiter decides who holds it at any moment.
        """
        if shared and user is not None:
            raise ProxyError("a device is either shared or owned, not both")
        if device.device_id in self.devices:
            raise ProxyError(
                f"device {device.device_id!r} already in this home")
        if self._resilience:
            device.auto_reconnect = True
        if shared:
            for home_user in self.users.values():
                device.connect(home_user.proxy, member=self.reactor_member)
            self._shared_devices[device.device_id] = device
            self._device_owner[device.device_id] = None
        else:
            owner = self.user(user if user is not None else DEFAULT_USER)
            device.connect(owner.proxy, member=self.reactor_member)
            owner.devices[device.device_id] = device
            self._device_owner[device.device_id] = owner.user_id
        self.devices[device.device_id] = device
        if reselect:
            if shared:
                for home_user in self.users.values():
                    home_user.context.reselect()
            else:
                owner.context.reselect()
        return device

    def remove_device(self, device_id: str, reselect: bool = True) -> None:
        if device_id not in self.devices:
            raise ProxyError(f"no device {device_id!r} in this home")
        device = self.devices.pop(device_id)
        owner_id = self._device_owner.pop(device_id)
        if owner_id is None:
            self._shared_devices.pop(device_id)
            for home_user in self.users.values():
                if device_id in home_user.proxy.devices:
                    home_user.proxy.unregister_device(device_id)
        else:
            owner = self.users.get(owner_id)
            if owner is not None:
                owner.devices.pop(device_id, None)
                if device_id in owner.proxy.devices:
                    owner.proxy.unregister_device(device_id)
        device.disconnect()
        if reselect:
            if owner_id is None:
                for home_user in self.users.values():
                    home_user.context.reselect()
            elif owner_id in self.users:
                self.users[owner_id].context.reselect()

    # -- running ----------------------------------------------------------------

    def settle(self) -> None:
        """Run the simulation until quiescent.

        A TCP home settles through its reactor (draining real sockets as
        well as events); sharing a reactor with sibling homes means their
        events drain too — that is the fleet's one-loop model.
        """
        if self.reactor is not None:
            self.reactor.run_until_idle()
        else:
            self.scheduler.run_until_idle()

    def run_for(self, seconds: float) -> None:
        """Advance the simulated home by ``seconds``.

        In TCP mode the reactor has no global virtual deadline (each home
        keeps its own clock), so this settles outstanding work and then
        advances this home's clock the remaining distance.
        """
        if self.reactor is not None:
            deadline = self.scheduler.now() + seconds
            self.reactor.run_until_idle()
            if self.scheduler.now() < deadline:
                self.scheduler.clock.advance_to(deadline)
        else:
            self.scheduler.run_for(seconds)

    def close(self) -> None:
        """Tear down a TCP home's real sockets (no-op otherwise).

        Disconnects every proxy and server session, closes the listener,
        then hard-closes whatever fds are still registered under this
        home's member, device legs included, and those a quarantine
        unregistered — deliberately *not* a graceful EOF drain, so one
        stalled sibling on a shared reactor can never wedge another
        home's teardown.  A home that owns its reactor closes it too.
        """
        if self.reactor is None:
            return
        for device in self.devices.values():
            device.auto_reconnect = False  # teardown is not a failure
        for user in list(self.users.values()):
            user.proxy.disconnect()
        for session in list(self.uniint_server.sessions):
            session.close()
        if self.listener is not None:
            self.listener.close()
            self.listener = None
        member = self.reactor_member
        if member is not None:
            for handle in self.reactor.handles_of(member) + tuple(
                    member.dropped):
                handle.unregister()
                try:
                    handle.fileobj.close()
                except OSError:  # pragma: no cover
                    pass
            self.reactor.remove_scheduler(member)
        if self._owns_reactor:
            self.reactor.close()
        self.reactor = None
        self.reactor_member = None

    # -- programmatic control ---------------------------------------------------

    def submit_command(self, appliance: str, opcode: str,
                       payload: Optional[dict] = None,
                       origin: str = "api") -> Command:
        """Drive an appliance programmatically through the command spine.

        ``appliance`` is a device name (``"Oven"``) or GUID.  The FCM is
        chosen by capability: the first of the appliance's FCMs whose
        descriptor declares ``opcode`` (falling back to the first FCM for
        descriptor-less appliances — an unsupported opcode then simply
        finishes FAILED/EUNSUPPORTED, still fully tracked).

        Returns the :class:`~repro.app.commands.Command`; poll
        ``command.state`` after :meth:`settle` or hook
        ``command.on_done``.  This is the seam the external HTTP gateway
        will wrap: one call, one trackable job.
        """
        app = self.default_user.app
        target = None
        for handle in app.appliances:
            if handle.name == appliance or handle.guid == appliance:
                target = handle
                break
        if target is None:
            raise HaviError(
                f"no appliance {appliance!r} in this home "
                f"(have: {sorted(a.name for a in app.appliances) or 'none'})")
        if not target.fcms:
            raise HaviError(f"appliance {appliance!r} has no FCMs")
        chosen = target.fcms[0]
        for fcm_handle in target.fcms:
            descriptor = fcm_handle.descriptor
            if descriptor is not None and opcode in descriptor.commands():
                chosen = fcm_handle
                break
        return chosen.command(opcode, payload, origin=origin)

    # -- conveniences -----------------------------------------------------------------

    def screenshot(self, user_id: str = DEFAULT_USER) -> "UIWindow":
        """A user's application window (``.bitmap`` holds the pixels).

        Composites through the server's distribute path, so a screenshot
        taken between damage and the scheduled flush doesn't swallow the
        update the user's sessions were about to receive.
        """
        user = self.user(user_id)
        user.surface._composite_and_distribute()
        return user.window
