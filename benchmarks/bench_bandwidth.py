"""E7 — session bandwidth per device class.

Claim operationalised: thin-client output events fit each device's bearer
because the proxy adapts depth and resolution per device, and then ships
only the box of screen bytes each update changed.  A scripted
10-interaction session runs against a phone, a PDA and a TV panel; we
record the link bytes of the one full frame the device gets when
selected, and the bytes the session then moves on the device link (down
= boxes, up = events) and on the upstream UIP link.

Expected shape: full frames ordered phone << pda << tv (1-bit 128^2 vs
2-bit 320x240 vs 24-bit 720x480), upstream bytes identical across devices
(same UI activity), and on every device the session's boxes outweigh its
events yet cost less than a full frame per update.  The session bytes of
the phone and the PDA both stay below the TV's, but their order depends
on the dither as much as on the depth: the PDA's ordered dither keeps a
change local, while the phone's error diffusion spreads it down the
screen.
"""

from __future__ import annotations

import pytest

from repro import Home
from repro.appliances import Television
from repro.devices import CellPhone, Pda, RemoteControl, TvDisplay
from repro.net import ETHERNET_100, make_pipe
from repro.proxy.upstream import UniIntClient

DEVICES = {
    "phone": CellPhone,
    "pda": Pda,
    "tv-panel": TvDisplay,
}


def _session_bytes(device_name):
    home = Home(width=480, height=360)
    home.add_appliance(Television("TV"))
    home.settle()
    output = DEVICES[device_name](device_name, home.scheduler)
    output.connect(home.proxy)
    remote = RemoteControl("driver", home.scheduler)
    remote.connect(home.proxy)
    home.proxy.select_input("driver")
    home.proxy.select_output(device_name)
    home.settle()
    assert output.frames_received == 1  # the full frame of the selection
    full_frame = output.link_stats.bytes_received
    output.link_stats.reset()
    remote.link_stats.reset()
    upstream = home.session.upstream.endpoint.stats
    up_before = (upstream.bytes_sent, upstream.bytes_received)

    # the scripted session: power on, surf two channels, volume, mute, off
    script = ["ok", "next", "ok", "next", "ok", "ok",
              "next", "right", "right", "ok"]
    for press in script:
        remote.press(press)
        home.settle()

    return {
        "full_frame": full_frame,
        "frames": output.frames_received,
        "device_down": output.link_stats.bytes_received,
        "device_up": remote.link_stats.bytes_sent,
        "upstream_sent": upstream.bytes_sent - up_before[0],
        "upstream_received": upstream.bytes_received - up_before[1],
        "virtual_seconds": home.scheduler.now(),
    }


@pytest.mark.parametrize("device_name", DEVICES)
def test_session_bandwidth(benchmark, device_name):
    stats = benchmark.pedantic(_session_bytes, args=(device_name,),
                               rounds=3, iterations=1)
    for key, value in stats.items():
        benchmark.extra_info[key] = (round(value, 3)
                                     if isinstance(value, float) else value)
    # frames outweigh the events that cause them, and the session's boxes
    # cost less than a full frame per update (frame 1 is the selection's)
    assert (stats["device_up"] < stats["device_down"]
            < (stats["frames"] - 1) * stats["full_frame"])


def test_bandwidth_shape_phone_pda_tv(benchmark):
    """The cross-device ordering the adaptation exists to produce."""

    def collect():
        return {name: _session_bytes(name) for name in DEVICES}

    stats = benchmark.pedantic(collect, rounds=1, iterations=1)
    full = {name: stats[name]["full_frame"] for name in DEVICES}
    down = {name: stats[name]["device_down"] for name in DEVICES}
    assert full["phone"] < full["pda"] < full["tv-panel"]
    assert down["phone"] < down["tv-panel"]
    assert down["pda"] < down["tv-panel"]
    benchmark.extra_info["full_frame_bytes"] = full
    benchmark.extra_info["device_down_bytes"] = down
    benchmark.extra_info["tv_over_phone"] = round(
        full["tv-panel"] / full["phone"], 1)


def _multi_session_stats(extra_viewers: int):
    """One interactive session plus N passive viewers mirroring the same
    screen (wall displays): one encode shared by every session."""
    home = Home(width=480, height=360)
    home.add_appliance(Television("TV"))
    home.settle()
    viewers = []
    for i in range(extra_viewers):
        pipe = make_pipe(home.scheduler, ETHERNET_100, name=f"viewer-{i}")
        home.uniint_server.accept(pipe.a)
        viewers.append(UniIntClient(pipe.b))
    remote = RemoteControl("driver", home.scheduler)
    remote.connect(home.proxy)
    tv_out = TvDisplay("panel", home.scheduler)
    tv_out.connect(home.proxy)
    home.proxy.select_input("driver")
    home.proxy.select_output("panel")
    home.settle()
    cache = home.default_user.surface.encode_cache
    hits_before, misses_before = cache.hits, cache.misses

    for press in ["ok", "next", "ok", "next", "right", "ok"]:
        remote.press(press)
        home.settle()

    per_viewer = [v.endpoint.stats.bytes_received for v in viewers]
    return {
        "viewers": extra_viewers,
        "viewer_down_total": sum(per_viewer),
        "viewer_down_min": min(per_viewer, default=0),
        "viewer_down_max": max(per_viewer, default=0),
        "encode_cache_hits": cache.hits - hits_before,
        "encode_cache_misses": cache.misses - misses_before,
        "updates_each": (viewers[0].updates_received if viewers else 0),
    }


@pytest.mark.parametrize("viewers", [1, 4, 8])
def test_multi_session_viewer_bandwidth(benchmark, viewers):
    """N passive mirrors of one interactive session: encode work stays
    ~flat (one shared encode cache) while delivered bytes scale with N."""
    stats = benchmark.pedantic(_multi_session_stats, args=(viewers,),
                               rounds=3, iterations=1)
    for key, value in stats.items():
        benchmark.extra_info[key] = value
    assert stats["encode_cache_hits"] > 0  # viewers reuse the encodes
    # every viewer received the same update stream, byte for byte
    assert stats["viewer_down_min"] == stats["viewer_down_max"] > 0
