"""UniInt server implementation.

Update pipeline (the damage-tracking fast path):

1. Each :class:`~repro.windows.DisplayServer` the server multiplexes is
   wrapped in a :class:`ServerSurface`.  A surface accumulates draw damage
   and hands back a *coalesced* region per composite — adjacent fragments
   fused, fragmentation capped — **once per surface per frame**, no matter
   how many sessions watch it.
2. Each session binds to exactly one surface.  It clips + coalesces its
   pending damage and hands each rect's framebuffer view to the update's
   encoder, which keys the view's RGB bytes in the surface's
   content-keyed :class:`~repro.uip.encodings.EncodeCache` and packs and
   encodes the rect only on a miss.  Every session on that surface
   shares the cache: N sessions watching one surface encode each
   distinct rect once per frame (a ZRLE rect, its tile stream once; each
   session still deflates it through its own persistent stream), and
   sessions on different surfaces never share (or pay for) each other's
   entries.  The update goes out as a chunk list that transports send
   vectored, never concatenated.
3. Each session encodes every rect with the first encoding its client
   offered (``SetEncodings``) that the server supports — RFB's own
   negotiation.  The client knows its leg: one on a slow bearer offers
   ZRLE first, one on the home LAN offers HEXTILE first.
4. Sessions honour transport credit (*backpressure*): while a slow link
   is saturated past its bandwidth-delay-derived watermark, new damage is
   folded back into the session's pending region instead of queueing a
   stale update, and one merged freshest update goes out when the link
   drains (``on_writable``).

A server built the classic way — ``UniIntServer(display, scheduler)`` —
has a single *default surface* wrapping that display, and every legacy
entry point (``accept``, ``ring_bell``, ``server.display``) operates on
it unchanged.  ``add_surface`` turns the same server into a multi-head
one: a multi-user home gives each resident their own surface so input and
frames stay isolated per user.
"""

from __future__ import annotations

from typing import Optional

from repro.graphics.differ import TileDiffer
from repro.graphics.pixelformat import RGB888
from repro.graphics.region import Rect, Region
from repro.net.transport import Transport
from repro.uip import encodings as enc
from repro.uip.handshake import ServerHandshake
from repro.uip.messages import (
    Bell,
    ClientMessageDecoder,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    Ping,
    PointerEvent,
    Pong,
    RectUpdate,
    SetEncodings,
)
from repro.util.errors import GraphicsError, ProtocolError
from repro.util.scheduler import Scheduler
from repro.windows.server import DisplayServer

#: Encodings the server can produce.  A session encodes with the first of
#: its client's offered encodings that appears here.
SUPPORTED_ENCODINGS = (enc.HEXTILE, enc.ZRLE, enc.RAW)

#: Fragmentation cap applied when coalescing damage into one update.
MAX_UPDATE_RECTS = 16


class ServerSurface:
    """One display the server multiplexes, with everything scoped to it.

    Sessions bind to a surface; its damage is composited and tile-refined
    once per frame and distributed only to those sessions, whose encoders
    share the surface's :attr:`encode_cache` — so sessions on *different*
    surfaces never share cache entries and never pay for each other's
    frames.
    """

    def __init__(self, server: "UniIntServer", display: DisplayServer,
                 surface_id: int) -> None:
        self.server = server
        self.display = display
        self.surface_id = surface_id
        self.sessions: list["ServerSession"] = []
        self._differ = TileDiffer()
        #: Shared by every session on this surface: RAW and HEXTILE
        #: payloads and ZRLE tile streams are encoded once per surface,
        #: however many sessions watch it.
        self.encode_cache = enc.EncodeCache()
        display.on_damage = self._on_display_damage

    def _on_display_damage(self) -> None:
        self.server._schedule_flush()

    # -- damage propagation ---------------------------------------------------

    def _composite_and_distribute(self) -> None:
        """Composite this surface once and note damage to its sessions."""
        region = self.display.composite()
        if region.is_empty:
            return
        rects: list[Rect] = list(region)
        if self.server.tile_diff:
            rects = self._differ.refine(self.display.framebuffer, rects)
            if not rects:
                return
            if len(rects) > MAX_UPDATE_RECTS:
                # Tile refinement can shatter one damaged label row into
                # dozens of 16x16 shards.  The merged cover is identical
                # for every session on this surface, so coalesce once here
                # rather than letting N sessions re-merge the same shards
                # in their _try_send — per-session coalescing then only
                # handles cross-frame deferral leftovers (a multi-session
                # surface pays one merge per frame, not one per viewer).
                rects = Region(rects).coalesced(MAX_UPDATE_RECTS)
        for session in self.sessions:
            session._note_damage(rects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ServerSurface #{self.surface_id} "
                f"{self.display.framebuffer.width}x"
                f"{self.display.framebuffer.height} "
                f"sessions={len(self.sessions)}>")


class ServerSession:
    """One connected UIP client (normally a UniInt proxy), bound to one
    surface: its input lands on that surface's display, and only that
    surface's damage reaches it."""

    def __init__(self, server: "UniIntServer", endpoint: Transport,
                 surface: ServerSurface) -> None:
        self.server = server
        self.endpoint = endpoint
        self.surface = surface
        display = surface.display
        self._handshake = ServerHandshake(
            display.framebuffer.width, display.framebuffer.height,
            server.name, secret=server.secret)
        self._encoder = enc.EncoderState(cache=surface.encode_cache)
        #: The client's offer, in its order, less what the server cannot
        #: produce (RAW if nothing is left); every rect goes out in the
        #: first.
        self.encodings: tuple[int, ...] = (enc.RAW,)
        self._decoder = ClientMessageDecoder()
        self._pending = Region()
        self._update_requested = False
        self.closed = False
        # statistics for the bandwidth experiments (E7)
        self.updates_sent = 0
        self.rects_sent = 0
        self.key_events = 0
        self.pointer_events = 0
        # backpressure statistics (bench_backpressure): sends withheld
        # because the link was saturated, and the raw-equivalent bytes of
        # the damage folded back into ``_pending`` at each withholding.
        self.updates_coalesced = 0
        self.bytes_suppressed = 0
        endpoint.on_receive = self._on_bytes
        endpoint.on_close = self.close
        endpoint.on_writable = self._on_writable
        self._flush_handshake()

    # -- connection plumbing ----------------------------------------------------

    def _flush_handshake(self) -> None:
        out = self._handshake.outgoing()
        if out and self.endpoint.is_open:
            self.endpoint.send(out)

    def _on_bytes(self, data: bytes) -> None:
        if self.closed:
            return
        if not self._handshake.done:
            self._handshake.feed(data)
            self._flush_handshake()
            if self._handshake.failed is not None:
                self.close()
                return
            if self._handshake.done:
                # everything changed is dirty for a new client
                self._pending.add(self.surface.display.framebuffer.bounds)
                data = self._handshake.leftover()
                if not data:
                    return
            else:
                return
        try:
            messages = self._decoder.feed(data)
        except (ProtocolError, GraphicsError):
            # a malformed message ends this session alone: the error
            # must not escape into the transport, which would take the
            # whole home down with it
            self.close()
            return
        for message in messages:
            self._handle(message)

    def close(self) -> None:
        """End this session, deliberately or because its transport died
        under it (peer close, RST, partition): a client that comes back
        dials a fresh session."""
        if self.closed:
            return
        self.closed = True
        self.endpoint.close()
        self.server._drop_session(self)

    @property
    def ready(self) -> bool:
        return self._handshake.done and not self.closed

    # -- client messages -----------------------------------------------------------

    def _handle(self, message) -> None:
        if isinstance(message, SetEncodings):
            wanted = [e for e in message.encodings if e in SUPPORTED_ENCODINGS]
            self.encodings = tuple(wanted) if wanted else (enc.RAW,)
        elif isinstance(message, FramebufferUpdateRequest):
            if not message.incremental:
                self._pending.add(message.rect.intersect(
                    self.surface.display.framebuffer.bounds))
            self._update_requested = True
            self.surface._composite_and_distribute()
            self._try_send()
        elif isinstance(message, KeyEvent):
            self.key_events += 1
            self.surface.display.inject_key(message.keysym, message.down)
            self.surface._composite_and_distribute()
            self._try_send()
        elif isinstance(message, PointerEvent):
            self.pointer_events += 1
            self.surface.display.inject_pointer(message.x, message.y,
                                                message.buttons)
            self.surface._composite_and_distribute()
            self._try_send()
        elif isinstance(message, Ping):
            if self.endpoint.is_open:
                self.endpoint.send(Pong(message.seq).encode())
        else:  # pragma: no cover - decoder only yields the types above
            raise AssertionError(f"unexpected message {message!r}")

    # -- update generation ------------------------------------------------------------

    def _note_damage(self, rects) -> None:
        if self._pending.is_empty:
            # a frame's rects are disjoint already: no re-splitting
            self._pending = Region.from_disjoint(rects)
            return
        for rect in rects:
            self._pending.add(rect)

    def _on_writable(self) -> None:
        """Link credit freed up: retry a send deferred by backpressure."""
        self._try_send()

    def _suppressed_estimate(self) -> int:
        """Raw-equivalent wire bytes of the currently withheld damage.

        An estimate (the real update would be encoded and smaller): the
        pixel area of the pending region at the wire depth, i.e. what one
        more queued stale update would roughly have cost.
        """
        return self._pending.area * RGB888.bytes_per_pixel

    def _try_send(self) -> None:
        if (not self.ready or not self._update_requested
                or self._pending.is_empty):
            return
        if self.server.backpressure and not self.endpoint.writable:
            # The link is saturated past its credit: withhold this update
            # and leave the damage in ``_pending``, where subsequent frames
            # merge into it.  When the transport drains below its low
            # watermark, ``on_writable`` re-enters here and the client gets
            # one coalesced update with the freshest content instead of a
            # queue of stale intermediates.
            self.updates_coalesced += 1
            self.bytes_suppressed += self._suppressed_estimate()
            return
        rects: list[RectUpdate] = []
        framebuffer = self.surface.display.framebuffer
        bounds = framebuffer.bounds
        encoding = self.encodings[0]
        for rect in self._pending.coalesced(MAX_UPDATE_RECTS):
            clipped = rect.intersect(bounds)
            if clipped.is_empty:
                continue
            rects.append(RectUpdate(clipped, encoding,
                                    framebuffer.view(clipped)))
        self._pending = Region()
        self._update_requested = False
        if not rects:
            return
        chunks = FramebufferUpdate(tuple(rects)).encode_chunks(self._encoder)
        if self.endpoint.is_open:
            self.endpoint.send(chunks)
            self.updates_sent += 1
            self.rects_sent += len(rects)


class UniIntServer:
    """Accepts UIP connections on behalf of one or more display servers.

    The classic construction ``UniIntServer(display, scheduler)`` wraps
    the display in a default surface; :meth:`add_surface` attaches further
    displays (per-user views in a multi-user home), each with independent
    sessions, damage coalescing and encode cache.
    """

    def __init__(self, display: Optional[DisplayServer],
                 scheduler: Scheduler,
                 name: str = "home-appliances",
                 secret: Optional[str] = None,
                 tile_diff: bool = True,
                 backpressure: bool = True) -> None:
        self.scheduler = scheduler
        self.name = name
        self.secret = secret
        #: Refine composite damage to the 16x16 tiles whose pixels actually
        #: changed before distributing it (ablation toggle): geometric
        #: damage from unchanged redraws never reaches the encoders.
        self.tile_diff = tile_diff
        #: Honour transport credit (ablation toggle): saturated sessions
        #: fold new damage into their pending region instead of queueing
        #: ever-staler updates behind a slow link.
        self.backpressure = backpressure
        #: The multiplexed surfaces, in attach order; ``surfaces[0]`` is
        #: the default surface legacy single-display entry points use.
        self.surfaces: list[ServerSurface] = []
        self._next_surface = 1
        self._flush_scheduled = False
        if display is not None:
            self.add_surface(display)

    # -- surfaces ---------------------------------------------------------------

    def add_surface(self, display: DisplayServer) -> ServerSurface:
        """Multiplex another display; returns its surface handle.

        The surface owns the display's ``on_damage`` hook from here on and
        flushes its damage to exactly the sessions accepted onto it.
        """
        for surface in self.surfaces:
            if surface.display is display:
                raise ProtocolError("display already has a surface")
        surface = ServerSurface(self, display, self._next_surface)
        self._next_surface += 1
        self.surfaces.append(surface)
        return surface

    def remove_surface(self, surface: ServerSurface) -> None:
        """Detach a surface: close its sessions, release its display."""
        if surface not in self.surfaces:
            raise ProtocolError(f"surface #{surface.surface_id} "
                                f"is not attached to this server")
        self.surfaces.remove(surface)
        for session in list(surface.sessions):
            session.close()
        if surface.display.on_damage == surface._on_display_damage:
            surface.display.on_damage = None

    @property
    def default_surface(self) -> ServerSurface:
        if not self.surfaces:
            raise ProtocolError("server has no surfaces")
        return self.surfaces[0]

    @property
    def display(self) -> DisplayServer:
        """The default surface's display (legacy single-display API)."""
        return self.default_surface.display

    # -- accepting clients ------------------------------------------------------

    def accept(self, endpoint: Transport,
               surface: Optional[ServerSurface] = None) -> ServerSession:
        """Take ownership of a server-side endpoint; starts the handshake.

        The session binds to ``surface`` (default: the default surface):
        its input lands on that surface's display and only that surface's
        damage is pushed to it.
        """
        if surface is None:
            surface = self.default_surface
        elif surface not in self.surfaces:
            raise ProtocolError(f"surface #{surface.surface_id} "
                                f"is not attached to this server")
        session = ServerSession(self, endpoint, surface)
        surface.sessions.append(session)
        return session

    def listen(self, reactor, member=None, on_accept=None,
               host: str = "127.0.0.1", port: int = 0):
        """Accept UIP clients over a real TCP listening socket.

        Each accepted connection becomes a reactor-registered
        :class:`~repro.net.transport.SocketTransport`, handed to
        ``on_accept(transport, addr)`` (optional), which passes it on to
        :meth:`accept` with the surface of its choice, or else straight
        to :meth:`accept` onto the default surface.  Returns the
        :class:`~repro.net.reactor.TcpListener` (its ``.address`` is the
        dial target for :func:`~repro.net.reactor.connect_tcp`).
        """
        from repro.net.link import ETHERNET_100
        from repro.net.reactor import TcpListener
        from repro.net.transport import SocketTransport

        def on_connection(conn, addr):
            transport = SocketTransport(
                self.scheduler, conn, ETHERNET_100,
                name=f"{self.name}-tcp-{addr[1]}",
                reactor=reactor, member=member)
            if on_accept is None:
                self.accept(transport)
            else:
                on_accept(transport, addr)

        return TcpListener(reactor, on_connection, host=host, port=port,
                           member=member)

    def _drop_session(self, session: ServerSession) -> None:
        if session in session.surface.sessions:
            session.surface.sessions.remove(session)

    @property
    def sessions(self) -> list[ServerSession]:
        """Every live session, across all surfaces (attach order)."""
        return [session for surface in self.surfaces
                for session in surface.sessions]

    def ring_bell(self, surface: Optional[ServerSurface] = None) -> None:
        """Send a Bell to connected clients (e.g. a microwave ding).

        With ``surface`` the bell reaches only that surface's sessions —
        the per-user routing a multi-view home uses so each resident hears
        one ding per event; without it, every session on every surface.
        """
        payload = Bell().encode()
        sessions = (self.sessions if surface is None
                    else list(surface.sessions))
        for session in sessions:
            if session.ready and session.endpoint.is_open:
                session.endpoint.send(payload)

    # -- damage propagation --------------------------------------------------------

    def _schedule_flush(self) -> None:
        # coalesce bursts of damage into one composite per scheduler tick
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self.scheduler.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        self._composite_and_distribute()
        for session in list(self.sessions):
            session._try_send()

    def _composite_and_distribute(self) -> None:
        """Composite every dirty surface once and distribute its damage."""
        for surface in self.surfaces:
            surface._composite_and_distribute()

    @property
    def diff_tiles_dropped(self) -> int:
        """Tiles the frame differs proved unchanged and withheld."""
        return sum(s._differ.tiles_dropped for s in self.surfaces)

    @property
    def diff_tiles_checked(self) -> int:
        return sum(s._differ.tiles_checked for s in self.surfaces)
