"""Unit tests for the UniInt server sessions."""

import pytest

from repro.graphics import RGB888, Rect
from repro.graphics.pixelformat import PixelFormat
from repro.net import ETHERNET_100, make_pipe
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.server.uniint_server import MAX_UPDATE_RECTS
from repro.toolkit import Button, Column, Label, UIWindow
from repro.uip import HEXTILE, RAW, ZRLE, EncoderState, encode_rect
from repro.uip.encodings import content_digest
from repro.uip.handshake import SECURITY_NONE
from repro.util import Scheduler
from repro.windows import DisplayServer
from tests.helpers import MALFORMED_CLIENT_MESSAGES, received_encodings


class SpotColumn(Column):
    """A column that also paints coloured spots over its children."""

    def __init__(self):
        super().__init__()
        self.spots = []

    def paint_spot(self, rect, color):
        """Draw one more spot and report its rect as window damage."""
        self.spots.append((rect, color))
        window = self.window
        window.damage.add(rect)
        window.on_damage()

    def paint_tree(self, canvas, theme):
        super().paint_tree(canvas, theme)
        for rect, color in self.spots:
            canvas.fill(rect, color)


def make_window(width=160, height=120, root_type=Column):
    window = UIWindow(width, height)
    col = root_type()
    label = col.add(Label("hello"))
    label.widget_id = "label"
    col.add(Button("Go"))
    window.set_root(col)
    return window


def make_server(width=160, height=120, secret=None, root_type=Column,
                **server_kwargs):
    scheduler = Scheduler()
    window = make_window(width, height, root_type)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, name="test-home",
                          secret=secret, **server_kwargs)
    return scheduler, display, window, server


def connect(scheduler, server, **kwargs):
    pipe = make_pipe(scheduler, ETHERNET_100, name="c")
    server.accept(pipe.a)
    client = UniIntClient(pipe.b, **kwargs)
    return client


class TestSessions:
    def test_multiple_clients_share_one_display(self):
        scheduler, display, window, server = make_server()
        a = connect(scheduler, server)
        b = connect(scheduler, server)
        scheduler.run_until_idle()
        assert len(server.sessions) == 2
        assert a.framebuffer == b.framebuffer == display.framebuffer

    def test_client_sees_changes_made_by_other_client(self):
        scheduler, display, window, server = make_server()
        a = connect(scheduler, server)
        b = connect(scheduler, server)
        scheduler.run_until_idle()
        # a clicks the button; b's mirror updates too
        button = window.root.children[1]
        cx, cy = button.abs_rect().center
        a.click(cx, cy)
        scheduler.run_until_idle()
        assert b.framebuffer == display.framebuffer

    def test_session_close_removes_it(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        client.close()
        scheduler.run_until_idle()
        assert server.sessions == []

    def test_server_name_transmitted(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        assert client.server_name == "test-home"

    def test_secret_required(self):
        scheduler, display, window, server = make_server(secret="hunter2")
        good = connect(scheduler, server, secret="hunter2")
        scheduler.run_until_idle()
        assert good.ready

    def test_wrong_secret_rejected(self):
        scheduler, display, window, server = make_server(secret="hunter2")
        bad = connect(scheduler, server, secret="wrong")
        closes = []
        bad.on_session_close = lambda: closes.append(bad.closed)
        scheduler.run_until_idle()  # must not raise
        assert closes == [True]
        assert not bad.ready
        assert bad.handshake_failure == "server rejected authentication"
        assert server.sessions == []

    def test_stats_track_events(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        client.press_key(0xFF0D)
        client.click(10, 10)
        scheduler.run_until_idle()
        session = server.sessions[0]
        assert session.key_events == 2     # down + up
        assert session.pointer_events == 2
        assert session.updates_sent >= 1


class TestEncodingsNegotiation:
    @pytest.mark.parametrize("encodings", [
        (RAW,), (HEXTILE, RAW), (ZRLE, RAW)])
    def test_each_encoding_produces_identical_mirror(self, encodings):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server, encodings=encodings)
        scheduler.run_until_idle()
        assert client.framebuffer == display.framebuffer
        window.root.find("label").text = "changed!"
        scheduler.run_until_idle()
        assert client.framebuffer == display.framebuffer

    def test_unsupported_encodings_fall_back_to_raw(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server, encodings=(777,))
        scheduler.run_until_idle()
        assert server.sessions[0].encodings == (RAW,)
        assert client.framebuffer == display.framebuffer

    @pytest.mark.parametrize("offer, sent", [
        ((ZRLE, RAW), ZRLE),
        ((2, HEXTILE, RAW), HEXTILE),
        ((777, 6, ZRLE), ZRLE),
        ((-223,), RAW),  # RFB's DesktopSize is no UIP encoding
        # RFB's RRE (2) and ZLIB (6) are no UIP encodings either
        ((2,), RAW),
        ((6,), RAW),
        ((2, 6), RAW),
    ])
    def test_server_encodes_with_first_supported_offer(self, offer, sent):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server, encodings=offer)
        seen = received_encodings(client)
        scheduler.run_until_idle()
        window.root.find("label").text = "changed!"
        scheduler.run_until_idle()
        assert client.framebuffer == display.framebuffer
        assert client.updates_received == 2
        assert set(seen) == {sent}


class TestOneVersion:
    def test_a_001_000_client_fails_the_handshake_and_is_closed(self):
        scheduler, display, window, server = make_server()
        pipe = make_pipe(scheduler, ETHERNET_100, name="old")
        session = server.accept(pipe.a)
        closed = []
        pipe.b.on_close = lambda: closed.append(True)
        pipe.b.send(b"UIP 001.000\n" + bytes([SECURITY_NONE, 1]))
        scheduler.run_until_idle()
        assert "unsupported" in session._handshake.failed
        assert session.closed and not session.ready
        assert server.sessions == []
        assert closed == [True]


class TestMalformedClientMessages:
    """A message the decoder rejects closes its own session, as a
    deliberate close, and no other."""

    @pytest.mark.parametrize("name", MALFORMED_CLIENT_MESSAGES)
    def test_only_the_sender_is_closed(self, name):
        scheduler, display, window, server = make_server()
        bad = connect(scheduler, server)
        good = connect(scheduler, server)
        scheduler.run_until_idle()
        bad_session, good_session = server.sessions
        received = good.updates_received
        bad.endpoint.send(MALFORMED_CLIENT_MESSAGES[name])
        window.root.find("label").text = "still serving"
        scheduler.run_until_idle()
        assert bad_session.closed and bad.closed
        assert server.sessions == [good_session]
        assert good.updates_received > received
        assert good.framebuffer == display.framebuffer


class TestServerEdges:

    def test_a_display_gets_one_surface(self):
        from repro.util.errors import ProtocolError
        scheduler, display, window, server = make_server()
        with pytest.raises(ProtocolError, match="already has a surface"):
            server.add_surface(display)
        assert len(server.surfaces) == 1

    def test_foreign_surfaces_are_refused(self):
        from repro.util.errors import ProtocolError
        scheduler, display, window, server = make_server()
        _, _, _, other = make_server()
        foreign = other.default_surface
        with pytest.raises(ProtocolError, match="not attached"):
            server.remove_surface(foreign)
        pipe = make_pipe(scheduler, ETHERNET_100, name="stray")
        with pytest.raises(ProtocolError, match="not attached"):
            server.accept(pipe.a, surface=foreign)
        assert foreign.sessions == [] and server.sessions == []

    def test_closing_a_session_twice_drops_it_once(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        other = connect(scheduler, server)
        scheduler.run_until_idle()
        session, survivor = server.sessions
        session.close()
        session.close()
        scheduler.run_until_idle()
        assert client.closed and not other.closed
        assert server.sessions == [survivor]

    def test_a_server_without_surfaces_has_no_display(self):
        from repro.util.errors import ProtocolError
        server = UniIntServer(None, Scheduler())
        with pytest.raises(ProtocolError, match="no surfaces"):
            server.display


class TestSharedEncodeBroadcast:
    """Sessions on one surface share its encode cache: the first session
    to send a rect misses, every other one hits."""

    @staticmethod
    def _frame(scheduler, window, server, text):
        """Show ``text`` on the label; returns (rects each session got,
        new cache hits, new cache misses) for the default surface."""
        cache = server.default_surface.encode_cache
        hits, misses = cache.hits, cache.misses
        sent = [session.rects_sent for session in server.sessions]
        window.root.find("label").text = text
        scheduler.run_until_idle()
        rects = {session.rects_sent - before
                 for session, before in zip(server.sessions, sent)}
        assert len(rects) == 1  # every session got the same update
        return rects.pop(), cache.hits - hits, cache.misses - misses

    def test_same_config_sessions_share_one_encode(self):
        scheduler, display, window, server = make_server()
        clients = [connect(scheduler, server) for _ in range(4)]
        scheduler.run_until_idle()
        rects, hits, misses = self._frame(scheduler, window, server,
                                          "broadcast!")
        for client in clients:
            assert client.framebuffer == display.framebuffer
        # each session looked every rect up once: one session encoded
        # each rect, the other three got its bytes from the cache
        assert hits + misses == 4 * rects
        assert 0 < misses <= rects

    def test_each_rect_misses_once_per_frame(self):
        scheduler, display, window, server = make_server()
        clients = [connect(scheduler, server) for _ in range(3)]
        scheduler.run_until_idle()
        for text in ("frame one", "frame two", "frame three"):
            rects, hits, misses = self._frame(scheduler, window, server,
                                              text)
            assert 0 < misses <= rects <= MAX_UPDATE_RECTS
            assert hits + misses == 3 * rects
            for client in clients:
                assert client.framebuffer == display.framebuffer

    def test_zrle_sessions_share_tile_streams_not_deflate(self):
        scheduler, display, window, server = make_server()
        a = connect(scheduler, server, encodings=(ZRLE, RAW))
        scheduler.run_until_idle()
        window.root.find("label").text = "history"
        scheduler.run_until_idle()
        # b's deflate stream starts after a's has carried two updates
        b = connect(scheduler, server, encodings=(ZRLE, RAW))
        scheduler.run_until_idle()
        a_before = a.endpoint.stats.bytes_received
        b_before = b.endpoint.stats.bytes_received
        rects, hits, misses = self._frame(scheduler, window, server,
                                          "private streams")
        # one tile stream per rect, shared ...
        assert 0 < misses <= rects
        assert hits + misses == 2 * rects
        # ... but deflated through each session's own stream: the same
        # update costs the two sessions different bytes, and both decode
        assert (a.endpoint.stats.bytes_received - a_before
                != b.endpoint.stats.bytes_received - b_before)
        assert a.framebuffer == b.framebuffer == display.framebuffer

    def test_surfaces_never_share_cache_entries(self):
        scheduler, display, window, server = make_server()
        twin = make_window()
        twin_display = DisplayServer(twin)
        surfaces = (server.default_surface, server.add_surface(twin_display))
        clients = []
        for surface in surfaces:
            pipe = make_pipe(scheduler, ETHERNET_100, name="c")
            server.accept(pipe.a, surface=surface)
            clients.append(UniIntClient(pipe.b))
        scheduler.run_until_idle()
        for win in (window, twin):
            win.root.find("label").text = "same pixels"
        scheduler.run_until_idle()
        # both surfaces encoded the same pixels, each in its own cache
        assert display.framebuffer == twin_display.framebuffer
        assert [s.encode_cache.hits for s in surfaces] == [0, 0]
        assert all(s.encode_cache.misses > 0 for s in surfaces)
        assert clients[0].framebuffer == display.framebuffer
        assert clients[1].framebuffer == twin_display.framebuffer

    def test_broadcast_bytes_identical_on_the_wire(self):
        scheduler, display, window, server = make_server()
        a = connect(scheduler, server)
        b = connect(scheduler, server)
        scheduler.run_until_idle()
        a_before = a.endpoint.stats.bytes_received
        b_before = b.endpoint.stats.bytes_received
        window.root.find("label").text = "identical"
        scheduler.run_until_idle()
        assert (a.endpoint.stats.bytes_received - a_before
                == b.endpoint.stats.bytes_received - b_before)

    def test_direct_composite_invalidates_caches(self):
        """Regression: composite() called outside the server's flush path
        (Home.screenshot) must not leave the client's mirror stale."""
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        window.root.find("label").text = "fresh content"
        display.composite()  # consumes the damage behind the server's back
        client.request_update(incremental=False)
        scheduler.run_until_idle()
        assert client.framebuffer == display.framebuffer

    def test_update_rect_count_capped(self):
        scheduler, display, window, server = make_server(
            320, 240, root_type=SpotColumn)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        rects_before = server.sessions[0].rects_sent
        # scatter damage widely: 40 spots, each in its own 16x16 tile
        for i in range(40):
            spot = Rect((i % 8) * 40 + 5, (i // 8) * 48 + 5, 5, 5)
            window.root.paint_spot(spot, (255, 40, (i * 20) % 255))
        scheduler.run_until_idle()
        sent = server.sessions[0].rects_sent - rects_before
        assert 0 < sent <= MAX_UPDATE_RECTS
        assert client.framebuffer == display.framebuffer


class TestRectKeys:
    """A session keys each rect on its framebuffer view's own RGB bytes in
    the surface's encode cache, and packs and encodes it only on a miss."""

    SPOT = (10, 20, 30)

    @staticmethod
    def packs(monkeypatch):
        """Every ``pack_array`` call, as the shape it packed."""
        calls = []
        original = PixelFormat.pack_array

        def counting(self, rgb):
            calls.append(rgb.shape)
            return original(self, rgb)

        monkeypatch.setattr(PixelFormat, "pack_array", counting)
        return calls

    @staticmethod
    def frame(scheduler, server, paint):
        """Run ``paint`` then the scheduler; returns the default surface's
        new (hits, misses)."""
        cache = server.default_surface.encode_cache
        hits, misses = cache.hits, cache.misses
        paint()
        scheduler.run_until_idle()
        return cache.hits - hits, cache.misses - misses

    def spot_server(self, **connect_kwargs):
        scheduler, display, window, server = make_server(
            root_type=SpotColumn)
        client = connect(scheduler, server, **connect_kwargs)
        scheduler.run_until_idle()
        return scheduler, display, window, server, client

    def test_same_pixels_at_another_position_hit(self, monkeypatch):
        scheduler, display, window, server, client = self.spot_server()
        spot = window.root.paint_spot
        assert self.frame(scheduler, server, lambda: spot(
            Rect(16, 16, 16, 16), self.SPOT)) == (0, 1)
        packs = self.packs(monkeypatch)
        # a tile of the same pixels elsewhere: one hit, no pack
        assert self.frame(scheduler, server, lambda: spot(
            Rect(64, 48, 16, 16), self.SPOT)) == (1, 0)
        assert packs == []
        assert client.framebuffer == display.framebuffer

    def test_one_byte_change_inside_the_rect_misses(self):
        scheduler, display, window, server, client = self.spot_server()
        tile = Rect(16, 16, 16, 16)
        self.frame(scheduler, server,
                   lambda: window.root.paint_spot(tile, self.SPOT))

        def one_byte():
            # the tile damaged again, with one pixel's blue byte now 31
            window.root.spots.append((Rect(20, 21, 1, 1), (10, 20, 31)))
            window.damage.add(tile)
            window.on_damage()

        assert self.frame(scheduler, server, one_byte) == (0, 1)
        assert client.framebuffer.get_pixel(20, 21) == (10, 20, 31)
        assert client.framebuffer == display.framebuffer

    def test_a_non_contiguous_view_keys_like_its_copy(self):
        scheduler, display, window, server, client = self.spot_server()
        tile = Rect(16, 16, 16, 16)
        self.frame(scheduler, server,
                   lambda: window.root.paint_spot(tile, self.SPOT))
        view = display.framebuffer.view(tile)
        assert not view.flags.c_contiguous
        key = (HEXTILE, view.shape, content_digest(view.copy()))
        assert server.default_surface.encode_cache.get(key) == encode_rect(
            EncoderState(), RGB888.pack_array(view), HEXTILE)

    def test_a_hit_packs_nothing(self, monkeypatch):
        scheduler, display, window, server = make_server()
        clients = [connect(scheduler, server) for _ in range(3)]
        scheduler.run_until_idle()
        packs = self.packs(monkeypatch)
        hits, misses = self.frame(scheduler, server, lambda: setattr(
            window.root.find("label"), "text", "keyed once"))
        # the first session packs each rect, the other two only hash it
        assert 0 < misses == len(packs)
        assert hits == 2 * misses
        for client in clients:
            assert client.framebuffer == display.framebuffer

    def test_hextile_and_zrle_sessions_never_share_an_entry(self):
        scheduler, display, window, server = make_server()
        clients = [connect(scheduler, server, encodings=encodings)
                   for encodings in ((HEXTILE,), (ZRLE,))]
        seen = [received_encodings(client) for client in clients]
        scheduler.run_until_idle()
        cache = server.default_surface.encode_cache
        assert cache.hits == 0  # the two resyncs encoded apart
        hits, misses = self.frame(scheduler, server, lambda: setattr(
            window.root.find("label"), "text", "two codecs"))
        assert hits == 0 and misses > 0
        assert [set(counts) for counts in seen] == [{HEXTILE}, {ZRLE}]
        for client in clients:
            assert client.framebuffer == display.framebuffer


class TestTileDiffIntegration:
    def test_unchanged_redraw_sends_nothing(self):
        """A full repaint with identical pixels must cost zero wire bytes."""
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        received = client.endpoint.stats.bytes_received
        dropped_before = server.diff_tiles_dropped
        window.root.find("label").invalidate()  # repaint, same pixels
        scheduler.run_until_idle()
        assert client.endpoint.stats.bytes_received == received
        assert server.diff_tiles_dropped > dropped_before
        assert client.framebuffer == display.framebuffer

    def test_ablation_toggle_preserves_old_behaviour(self):
        scheduler, display, window, server = make_server(tile_diff=False)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        received = client.endpoint.stats.bytes_received
        window.root.find("label").invalidate()
        scheduler.run_until_idle()
        # without the differ the redraw is re-encoded and re-sent
        assert client.endpoint.stats.bytes_received > received
        assert server.diff_tiles_dropped == 0
        assert client.framebuffer == display.framebuffer

    def test_real_change_shrinks_to_changed_tiles(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        checked = server.diff_tiles_checked
        window.root.find("label").text = "x"
        scheduler.run_until_idle()
        assert server.diff_tiles_checked > checked
        assert client.framebuffer == display.framebuffer

    def test_mixed_changed_and_unchanged_damage(self):
        scheduler, display, window, server = make_server(root_type=SpotColumn)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        # one real change and one identical repaint in the same flush
        window.root.paint_spot(Rect(100, 80, 10, 10), (9, 200, 30))
        window.root.find("label").invalidate()
        scheduler.run_until_idle()
        assert client.framebuffer == display.framebuffer
        assert client.framebuffer.get_pixel(104, 84) == (9, 200, 30)
