"""The five workloads of the e2e benchmark, and the block runner.

A *block* runs one workload in a fresh interpreter: set up the home(s),
run a discarded warm-up, measure interactions for a fixed count or a
fixed time, check the outputs, and report.  ``run.py`` starts one child
per block::

    python3 benchmarks/e2e/workloads.py '{"workload": "pda-tap", ...}'

and reads the block's result from the JSON object on the child's last
line of output.

Workloads drive the program through its public API only — device
``tap``/``press``, ``Home.add_appliance``/``remove_appliance``/``settle``
and ``HomeFleet.turn`` — and get their inputs from a generator seeded by
``(seed, workload, block)``.  Each generator carries a model of the state
its inputs should produce; the model is the correctness oracle and also
keeps the inputs valid (no command is ever sent to a TV that is off), so
no interaction is expected to fail.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import Home, HomeFleet  # noqa: E402
from repro.appliances import (  # noqa: E402
    AirConditioner,
    Amplifier,
    DimmableLight,
    DvdPlayer,
    MicrowaveOven,
    Refrigerator,
    Television,
    VideoRecorder,
)
from repro.appliances.tv import CHANNEL_NAMES  # noqa: E402
from repro.devices import (  # noqa: E402
    CellPhone,
    Pda,
    RemoteControl,
    TvDisplay,
)
from repro.havi import FcmType  # noqa: E402

import spans  # noqa: E402

#: ``Probe`` kernel time of the reference machine (an unloaded 2-core
#: box); a normalised time is the raw time x PROBE_REF_MS over the probe
#: times measured nearest to it.
PROBE_REF_MS = 0.65


class Probe:
    """Drift calibration: a fixed ~0.7 ms kernel timed between interactions.

    On the 2-core box this benchmark was built on, the same code's speed
    steps between about 1.0x and 1.7x of its best and holds each level
    for 0.5-3 s, so a calibration per block cannot follow it; each
    interaction is normalised by the median of the five probes timed
    nearest to it instead.  The kernel is a pure-Python integer loop:
    over 15 minutes of such steps it cut the coefficient of variation of
    20-interaction medians from 23-27% to 4-5% on pda-tap, remote-browse
    and hotplug.  Kernels that allocate (numpy arrays, dicts) did worse:
    their own time depends on the heap and the garbage collector.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ms: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            acc = 0
            for i in range(15_000):
                acc += i & 7
            self.times.append(start)
            self.ms.append((time.perf_counter() - start) * 1e3)

    def factor(self, when: float) -> float:
        """Normalisation factor for work done at ``when``."""
        i = bisect.bisect(self.times, when)
        return PROBE_REF_MS / statistics.median(self.ms[max(0, i - 2):i + 3])


def _failed_commands(home: Home) -> int:
    terminal = home.command_log.terminal
    return terminal["failed"] + terminal["timed_out"]


def _check_home(home: Home) -> list[str]:
    """Block-end invariants of one settled home."""
    errors = []
    if home.session.upstream.framebuffer != home.display.framebuffer:
        errors.append(f"{home.name}: client mirror differs from the "
                      f"server composite")
    log = home.command_log
    if log.open_commands():
        errors.append(f"{home.name}: {len(log.open_commands())} commands "
                      f"never reached a terminal state")
    if log.submitted != sum(log.terminal.values()):
        errors.append(f"{home.name}: journal counts {log.submitted} "
                      f"submitted but {sum(log.terminal.values())} "
                      f"terminal")
    return errors


def _home_counters(home: Home, output) -> dict[str, int]:
    server_session = home.server_session
    return {
        "link_bytes": output.link_stats.bytes_received,
        "wire_bytes": server_session.endpoint.stats.bytes_sent,
        "updates_sent": server_session.updates_sent,
        "rects_sent": server_session.rects_sent,
        "tiles_checked": home.uniint_server.diff_tiles_checked,
        "tiles_dropped": home.uniint_server.diff_tiles_dropped,
        "pushes_coalesced": home.session.updates_coalesced,
        "commands_failed": _failed_commands(home),
        "scheduler_events": home.scheduler.fired_count,
    }


def _device_point(home: Home, widget_id: str,
                  x: Optional[int] = None) -> tuple[int, int]:
    """Device coordinates of a widget's centre (or of window column
    ``x`` on its centre line), through the PDA's current view."""
    rect = home.window.root.find(widget_id).abs_rect()
    cx, cy = rect.center
    return home.session.context.view.to_device(cx if x is None else x, cy)


class Workload:
    """One workload; ``build`` is the timed set-up."""

    name = ""
    #: Interactions discarded at the start of every block.
    warmup = 10
    #: Set-ups timed per block (the first in a cold interpreter).
    setups = 3

    def __init__(self, seed: int, block: int) -> None:
        self.rng = random.Random(repr((seed, self.name, block)))

    def build(self) -> None:
        raise NotImplementedError

    def inputs(self) -> Iterator:
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @property
    def bearer(self):
        """The output device's link profile."""
        raise NotImplementedError


class ClosedLoop(Workload):
    """One resident; the next input goes in once the last one settled.

    An interaction's latency runs from the device call to the first
    frame the output device receives while the home settles (the screen
    answers); its virtual latency is the same span on the home's
    simulated clock, i.e. what the user waits on their bearer.  The work
    still running after that frame is in the CPU and busy times.
    """

    home: Home
    output = None

    def act(self, item) -> None:
        raise NotImplementedError

    def verify(self, item) -> bool:
        raise NotImplementedError

    def _watch_output(self) -> None:
        frames = self._frames = []
        scheduler = self.home.scheduler
        self.output.on_frame = lambda image: frames.append(
            (time.perf_counter(), scheduler.now()))

    def step(self, item) -> tuple[bool, float, Optional[float], float]:
        """``(ok, latency_s, virtual_s, busy_s)`` of one interaction;
        ``busy_s`` runs to the end of ``settle`` (all the work caused)."""
        frames = self._frames
        frames.clear()
        failed = _failed_commands(self.home)
        virtual0 = self.home.scheduler.now()
        wall0 = time.perf_counter()
        self.act(item)
        self.home.settle()
        busy = time.perf_counter() - wall0
        if not frames:
            return False, busy, None, busy
        wall, virtual = frames[0]
        ok = self.verify(item) and _failed_commands(self.home) == failed
        return ok, wall - wall0, virtual - virtual0, busy

    def measure(self, interactions: Optional[int], seconds: Optional[float],
                recorder: Optional[spans.SpanRecorder],
                probe: Probe) -> dict:
        inputs = self.inputs()
        for _ in range(self.warmup):
            self.step(next(inputs))
            probe.sample()
        before = self.counters()
        if recorder is not None:
            recorder.reset()
        # (start, ok, latency_s, virtual_s, busy_s, cpu_s) per interaction
        runs = []
        wall0 = time.perf_counter()
        while (len(runs) < interactions if interactions is not None
               else time.perf_counter() - wall0 < seconds):
            if recorder is not None:
                recorder.tag = len(runs)
            start, cpu0 = time.perf_counter(), time.process_time()
            outcome = self.step(next(inputs))
            runs.append((start, *outcome, time.process_time() - cpu0))
            probe.sample()
        wall = time.perf_counter() - wall0
        after = self.counters()
        factors = [probe.factor(run[0]) for run in runs]
        done = [(run, f) for run, f in zip(runs, factors) if run[1]]
        return {
            "attempted": len(runs), "failed": len(runs) - len(done),
            "latency_ms": [run[2] * 1e3 for run, _ in done],
            "latency_norm_ms": [run[2] * 1e3 * f for run, f in done],
            "virtual_ms": [run[3] * 1e3 for run, _ in done],
            "busy_s": sum(run[4] for run in runs),
            "cpu_s": sum(run[5] for run in runs),
            "cpu_norm_s": sum(run[5] * f for run, f in zip(runs, factors)),
            "factor": statistics.median(factors),
            "wall_s": wall,
            "counters": {k: after[k] - before[k] for k in after},
        }

    def counters(self) -> dict[str, int]:
        return _home_counters(self.home, self.output)

    @property
    def bearer(self):
        return self.output.descriptor.link

    def check(self) -> list[str]:
        self.home.settle()
        return _check_home(self.home)


# -- pda-tap ------------------------------------------------------------------

PDA_CONTROLS = ("power", "mute", "ch-up", "ch-down", "volume")
CHANNELS = sorted(CHANNEL_NAMES)


def _step_channel(channel: int, direction: int) -> int:
    index = CHANNELS.index(channel) + direction
    return CHANNELS[index % len(CHANNELS)]


class PdaTap(ClosedLoop):
    """The paper's pda/pda pairing through the full pipeline.

    Taps on the TV page change a small damage rect, but the PDA's output
    plug-in re-scales the whole frame every time, so it dominates; the
    command path (spine, bus, FCM) runs on every tap yet costs little.
    """

    name = "pda-tap"

    def build(self) -> None:
        home = self.home = Home(width=480, height=360)
        tv = home.add_appliance(Television("TV"))
        home.add_appliance(DimmableLight("Lamp"))
        home.add_appliance(AirConditioner("Aircon"))
        home.settle()
        home.default_user.show_appliance("TV")
        self.output = pda = Pda("pda", home.scheduler)
        pda.connect(home.proxy)
        home.proxy.select_input("pda")
        home.proxy.select_output("pda")
        home.settle()
        if not pda.frames_received:
            raise RuntimeError("pda-tap: no first frame on the PDA")
        self.tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        self.ids = {c: f"{tv.guid[:8]}.tuner.{c}" for c in PDA_CONTROLS}
        self.points = {c: _device_point(home, self.ids[c])
                       for c in PDA_CONTROLS}
        self._watch_output()

    def inputs(self) -> Iterator[tuple[str, Optional[int], tuple]]:
        """``(control, volume or None, expected tuner state)``.

        After switching the TV on, taps come in rounds, each a seeded
        shuffle of every control once, so the mix is the same on every
        seed; a power tap switches off and straight back on, because the
        other controls fail on a TV that is off.
        """
        rng = self.rng
        mute, channel, volume = False, 1, 20
        yield "power", None, (True, mute, channel, volume)
        while True:
            for control in rng.sample(PDA_CONTROLS, len(PDA_CONTROLS)):
                value = None
                if control == "power":
                    yield control, None, (False, mute, channel, volume)
                elif control == "mute":
                    mute = not mute
                elif control == "ch-up":
                    channel = _step_channel(channel, +1)
                elif control == "ch-down":
                    channel = _step_channel(channel, -1)
                else:
                    value = rng.choice([v for v in range(5, 101, 5)
                                        if abs(v - volume) >= 10])
                    volume, mute = value, False
                yield control, value, (True, mute, channel, volume)

    def act(self, item) -> None:
        control, value, _ = item
        if value is None:
            self.output.tap(*self.points[control])
            return
        # the slider's track is inset 4 px on either side; tap where the
        # target value sits on it
        rect = self.home.window.root.find(self.ids["volume"]).abs_rect()
        x = rect.x + 4 + value * (rect.w - 9) // 100
        self.output.tap(*_device_point(self.home, self.ids["volume"], x))

    def verify(self, item) -> bool:
        power, mute, channel, volume = item[2]
        get = self.tuner.get_state
        return ((get("power"), get("mute"), get("channel"))
                == (power, mute, channel)
                and abs(int(get("volume")) - volume) <= 1)


# -- remote-browse ------------------------------------------------------------

BROWSE_APPLIANCES = ((Television, "TV"), (VideoRecorder, "VCR"),
                     (Amplifier, "Amp"), (DvdPlayer, "DVD"),
                     (AirConditioner, "Aircon"), (DimmableLight, "Lamp"),
                     (MicrowaveOven, "Microwave"), (Refrigerator, "Fridge"))


class RemoteBrowse(ClosedLoop):
    """An IR remote walks the tabs of an 8-appliance home on a TV display.

    Every press repaints the whole page and the 720x480 display fits the
    480x360 frame 1:1, so render, tile diff and UIP encode/decode
    dominate; no HAVi command is sent and nothing is downscaled.
    """

    name = "remote-browse"

    def build(self) -> None:
        home = self.home = Home(width=480, height=360)
        for cls, name in BROWSE_APPLIANCES:
            home.add_appliance(cls(name))
        home.settle()
        self.remote = RemoteControl("remote", home.scheduler)
        self.remote.connect(home.proxy)
        self.output = TvDisplay("tv-display", home.scheduler)
        self.output.connect(home.proxy)
        home.proxy.select_input("remote")
        home.proxy.select_output("tv-display")
        home.settle()
        if not self.output.frames_received:
            raise RuntimeError("remote-browse: no first frame on the TV")
        self.tabs = home.window.root.find("appliance-tabs")
        if home.window.focus is not self.tabs or self.tabs.active != 0:
            raise RuntimeError("remote-browse: the tab bar must start "
                               "focused on tab 0")
        self._watch_output()

    def inputs(self) -> Iterator[tuple[str, int]]:
        """``(button, expected tab)``: the remote walks to every tab in a
        seeded order, round after round, so each seed visits the tabs
        (whose pages cost differently) in nearly the same proportions."""
        rng = self.rng
        tab = 0
        while True:
            for target in rng.sample(range(len(BROWSE_APPLIANCES)),
                                     len(BROWSE_APPLIANCES)):
                while tab != target:
                    button = "right" if target > tab else "left"
                    tab += 1 if button == "right" else -1
                    yield button, tab

    def act(self, item) -> None:
        self.remote.press(item[0])

    def verify(self, item) -> bool:
        return self.tabs.active == item[1]


# -- phone-tap ----------------------------------------------------------------

#: The TV page's focus order, as the phone's '*' key walks it.
PHONE_FOCUS = ("tuner.power", "tuner.ch-down", "tuner.ch-up",
               "tuner.ch-entry", "tuner.volume", "tuner.mute",
               "display.source", "display.brightness")


class PhoneTap(ClosedLoop):
    """The paper's slowest pairing: a 9600 bps phone drives a TV.

    Virtual latency is bearer-bound (the 2 KB mono frame alone is ~1.7 s
    on the link), so device-leg bytes show up as latency the user sees;
    the output plug-in runs the Floyd-Steinberg dither.  The phone walks
    the focus with '*' and activates with '5'.
    """

    name = "phone-tap"

    def build(self) -> None:
        home = self.home = Home(width=480, height=360)
        tv = home.add_appliance(Television("TV"))
        home.settle()
        self.output = phone = CellPhone("phone", home.scheduler)
        phone.connect(home.proxy)
        home.proxy.select_input("phone")
        home.proxy.select_output("phone")
        home.settle()
        if not phone.frames_received:
            raise RuntimeError("phone-tap: no first frame on the phone")
        self.tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        prefix = f"{tv.guid[:8]}."
        order = tuple(w.widget_id.removeprefix(prefix)
                      for w in home.window.root.walk()
                      if w.focusable and w.visible and w.enabled)
        if order != PHONE_FOCUS or home.window.focus.widget_id != (
                prefix + PHONE_FOCUS[0]):
            raise RuntimeError(f"phone-tap: unexpected focus order {order}")
        self._watch_output()

    def inputs(self) -> Iterator[tuple[str, tuple]]:
        """``(key, expected (focus, power, mute))``.  '*' moves the focus
        on; '5' activates the focused control and is pressed only where
        the result is visible and cannot fail: the power toggle, and the
        mute toggle while the TV is on.  (A channel button's result shows
        only in the station label, which the page lays out 2 px wide, so
        it would send no frame.)"""
        rng = self.rng
        focus, power, mute = 0, False, False
        while True:
            target = PHONE_FOCUS[focus]
            usable = target == "tuner.power" or (power
                                                 and target == "tuner.mute")
            if usable and rng.random() < 0.5:
                key = "5"
                if target == "tuner.power":
                    power = not power
                else:
                    mute = not mute
            else:
                key = "*"
                focus = (focus + 1) % len(PHONE_FOCUS)
            yield key, (PHONE_FOCUS[focus], power, mute)

    def act(self, item) -> None:
        self.output.press(item[0])

    def verify(self, item) -> bool:
        focus, power, mute = item[1]
        get = self.tuner.get_state
        return (self.home.window.focus.widget_id.endswith(focus)
                and (get("power"), get("mute")) == (power, mute))


# -- hotplug ------------------------------------------------------------------

RESIDENTS = ((Television, "TV"), (DimmableLight, "Lamp"),
             (AirConditioner, "Aircon"), (VideoRecorder, "VCR"))
VISITORS = {"Microwave": MicrowaveOven, "Fridge": Refrigerator,
            "DVD": DvdPlayer, "Amp": Amplifier}


class Hotplug(ClosedLoop):
    """Appliances come and go under a TV display.

    Each swap unplugs the visiting appliance and plugs in another, so
    the application rebuilds its UI tree (the write beside
    remote-browse's read) and fetches descriptors over the bus; the only
    workload where ``app`` and ``havi`` do real work.
    """

    name = "hotplug"
    warmup = 5

    def __init__(self, seed: int, block: int) -> None:
        super().__init__(seed, block)
        self.visitor = self.rng.choice(sorted(VISITORS))

    def build(self) -> None:
        home = self.home = Home(width=480, height=360)
        for cls, name in RESIDENTS:
            home.add_appliance(cls(name))
        home.add_appliance(VISITORS[self.visitor](self.visitor))
        home.settle()
        remote = RemoteControl("remote", home.scheduler)
        remote.connect(home.proxy)
        self.output = TvDisplay("tv-display", home.scheduler)
        self.output.connect(home.proxy)
        home.proxy.select_input("remote")
        home.proxy.select_output("tv-display")
        home.settle()
        if not self.output.frames_received:
            raise RuntimeError("hotplug: no first frame on the TV")
        self._watch_output()

    def inputs(self) -> Iterator[tuple[str, str]]:
        """``(leaving, arriving)`` visitor names: rounds of a seeded
        shuffle of every visitor, never the one already plugged in."""
        rng = self.rng
        current = self.visitor
        while True:
            order = rng.sample(sorted(VISITORS), len(VISITORS))
            if order[0] == current:
                order.append(order.pop(0))
            for arriving in order:
                yield current, arriving
                current = arriving

    def act(self, item) -> None:
        leaving, arriving = item
        self.home.remove_appliance(leaving)
        self.home.add_appliance(VISITORS[arriving](arriving))

    def verify(self, item) -> bool:
        expected = sorted([name for _, name in RESIDENTS] + [item[1]])
        app = sorted(a.name for a in self.home.app.appliances)
        bus = sorted(d.name for d in self.home.network.bus.devices)
        return app == bus == expected


# -- fleet-open ---------------------------------------------------------------

FLEET_HOMES = 32
FLEET_RATE_PER_S = 60.0
#: A turn with nothing to do while taps are outstanding sleeps this long.
IDLE_POLL_S = 0.0002
#: With no tap outstanding and the next one due at least this far off,
#: the generator times a drift probe (at most one per PROBE_EVERY_S).
PROBE_GAP_S = 0.005
PROBE_EVERY_S = 0.02
#: Seconds after its due time a tap may wait for its frame before it
#: counts as failed.
TAP_TIMEOUT_S = 1.0


class FleetOpen(Workload):
    """Independent residents of 32 TCP homes tap their lamps.

    Poisson arrivals at 60/s (about 30% of the knee measured on a 2-core
    box, so a 2x slower machine stays below saturation) over one reactor:
    the only workload on real TCP sockets, so per-turn multiplexing and
    queueing show here.  Each tap is timed from its due time to its
    first frame.  A resident taps again only once the lamp has switched:
    a tap due before that waits, and its wait counts.  (Tapping sooner
    lets a stale state event overwrite the toggle's new value, so the
    lamp can end up out of step with the taps.)
    """

    name = "fleet-open"
    warmup = 20
    setups = 2

    def build(self) -> None:
        fleet = self.fleet = HomeFleet()
        self.homes, self.pdas, lamps = [], [], []
        for i in range(FLEET_HOMES):
            home = fleet.add_home(f"home-{i}", width=160, height=120)
            lamps.append(home.add_appliance(DimmableLight(f"lamp-{i}")))
            self.homes.append(home)
            self.pdas.append(home.add_device(Pda(f"pda-{i}",
                                                 home.scheduler)))
        fleet.settle()
        if not all(pda.frames_received for pda in self.pdas):
            raise RuntimeError("fleet-open: a PDA got no first frame")
        self.lamps = [lamp.dcm.fcm_by_type(FcmType.LIGHT) for lamp in lamps]
        self.points = [_device_point(home, f"{lamp.guid[:8]}.light.power")
                       for home, lamp in zip(self.homes, lamps)]
        self.initial = [bool(lamp.get_state("power")) for lamp in self.lamps]
        self.taps = [0] * FLEET_HOMES
        self._frames: list[tuple[int, float]] = []
        for i, pda in enumerate(self.pdas):
            pda.on_frame = (lambda image, i=i: self._frames.append(
                (i, time.perf_counter())))

    def inputs(self) -> Iterator[tuple[float, int]]:
        """``(seconds after the previous arrival, home index)``.

        Poisson arrivals, stratified: every batch of FLEET_HOMES gaps is
        the exponential distribution's quantiles at the strata midpoints
        in a seeded order, and every home taps once per batch in a seeded
        order.  Gap order, and with it each burst, changes with the seed;
        the gap distribution and the load per home do not, which keeps
        the tail steady from seed to seed.
        """
        rng = self.rng
        gaps = [-math.log(1 - (k + 0.5) / FLEET_HOMES) / FLEET_RATE_PER_S
                for k in range(FLEET_HOMES)]
        while True:
            yield from zip(rng.sample(gaps, FLEET_HOMES),
                           rng.sample(range(FLEET_HOMES), FLEET_HOMES))

    def measure(self, interactions: Optional[int], seconds: Optional[float],
                recorder: Optional[spans.SpanRecorder],
                probe: Probe) -> dict:
        """Open loop: arrivals are due on a schedule whether or not
        earlier ones have finished."""
        inputs = self.inputs()
        start = time.perf_counter() + 0.01
        due_at, warm, measured = start, 0, 0
        window_end = None
        queued = [deque() for _ in range(FLEET_HOMES)]
        # per home: [due, counted, expected lamp power, first frame time]
        outstanding: list[Optional[list]] = [None] * FLEET_HOMES
        done, lag, failed = [], [], 0
        # wall and CPU time spent inside the program (taps and reactor
        # turns), without the generator's own bookkeeping, sleep and probes
        work_s = work_cpu = 0.0
        before, wall0 = None, 0.0
        arrival = next(inputs)
        due_at += arrival[0]
        more = True
        while True:
            now = time.perf_counter()
            # 1. every arrival now due joins its home's queue
            while more and due_at <= now:
                if warm < self.warmup:
                    warm += 1
                    counted = False
                else:
                    if before is None:
                        # the measured window opens with its first arrival
                        before = self.counters()
                        if recorder is not None:
                            recorder.reset()
                        wall0 = due_at
                        work_s = work_cpu = 0.0
                        window_end = (None if seconds is None
                                      else due_at + seconds)
                    measured += 1
                    counted = True
                queued[arrival[1]].append((due_at, counted))
                arrival = next(inputs)
                due_at += arrival[0]
                more = (measured < interactions if interactions is not None
                        else window_end is None or due_at < window_end)
            # 2. the first frame after a tap ends its latency
            for home_index, stamp in self._frames:
                tap = outstanding[home_index]
                if tap is not None and tap[3] is None:
                    tap[3] = stamp
            self._frames.clear()
            # 3. a tap is done once its frame arrived and the lamp switched
            # (only then does the home take its next tap); a tap not done
            # in time fails
            busy = False
            for i in range(FLEET_HOMES):
                tap = outstanding[i]
                if tap is not None:
                    due, counted, expected, frame_at = tap
                    if frame_at is not None and self._settled(i, expected):
                        if counted:
                            done.append((due, (frame_at - due) * 1e3))
                        outstanding[i] = tap = None
                    elif now - due > TAP_TIMEOUT_S:
                        failed += counted
                        outstanding[i] = tap = None
                if tap is None and queued[i]:
                    due, counted = queued[i].popleft()
                    self.taps[i] += 1
                    expected = self.initial[i] ^ (self.taps[i] % 2 == 1)
                    tap = outstanding[i] = [due, counted, expected, None]
                    if counted:
                        lag.append((now - due) * 1e3)
                    wall1, cpu1 = time.perf_counter(), time.process_time()
                    self.pdas[i].tap(*self.points[i])
                    work_s += time.perf_counter() - wall1
                    work_cpu += time.process_time() - cpu1
                busy = busy or outstanding[i] is not None
            if not more and not busy and not any(queued):
                break
            wall1, cpu1 = time.perf_counter(), time.process_time()
            worked = self.fleet.turn(block_s=0)
            idle0 = time.perf_counter()
            work_s += idle0 - wall1
            work_cpu += time.process_time() - cpu1
            if worked:
                continue
            if busy:
                time.sleep(IDLE_POLL_S)
            elif (due_at - idle0 > PROBE_GAP_S
                  and idle0 - probe.times[-1] > PROBE_EVERY_S):
                probe.sample()
            else:
                time.sleep(max(0.0, due_at - idle0))
        wall = time.perf_counter() - wall0
        after = self.counters()
        probe.sample(3)
        factors = [probe.factor(due) for due, _ in done]
        factor = statistics.median(factors) if factors else probe.factor(wall0)
        return {
            "attempted": measured, "failed": failed,
            "latency_ms": [ms for _, ms in done],
            "latency_norm_ms": [ms * f for (_, ms), f in zip(done, factors)],
            "virtual_ms": [],
            "busy_s": work_s, "cpu_s": work_cpu,
            "cpu_norm_s": work_cpu * factor,
            "factor": factor, "wall_s": wall, "lag_ms": lag,
            "counters": {k: after[k] - before[k] for k in after},
        }

    def _settled(self, i: int, expected: bool) -> bool:
        """Home ``i``'s lamp shows ``expected`` and none of its commands
        is still open (so no stale state event can undo the next tap)."""
        return (bool(self.lamps[i].get_state("power")) == expected
                and not self.homes[i].command_log.open_commands())

    def counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for home, pda in zip(self.homes, self.pdas):
            for key, value in _home_counters(home, pda).items():
                totals[key] = totals.get(key, 0) + value
        totals["reactor_turns"] = self.fleet.reactor.turns
        return totals

    def check(self) -> list[str]:
        self.fleet.settle()
        errors = []
        for i, home in enumerate(self.homes):
            errors += _check_home(home)
            expected = self.initial[i] ^ (self.taps[i] % 2 == 1)
            if bool(self.lamps[i].get_state("power")) != expected:
                errors.append(f"{home.name}: lamp power is not the parity "
                              f"of its {self.taps[i]} taps")
        return errors

    def close(self) -> None:
        self.fleet.close()

    @property
    def bearer(self):
        return self.pdas[0].descriptor.link


WORKLOADS = {cls.name: cls for cls in (PdaTap, RemoteBrowse, PhoneTap,
                                       Hotplug, FleetOpen)}


def run_block(spec: dict) -> dict:
    """Run one block of ``spec["workload"]`` and return its result.

    ``spec`` holds ``workload``, ``seed``, ``block``, ``trace`` and one of
    ``interactions`` or ``seconds``; a traced block writes its spans to
    ``spec["spans_path"]`` when that is set.
    """
    cls = WORKLOADS[spec["workload"]]
    probe = Probe()
    recorder = spans.SpanRecorder() if spec["trace"] else None
    setup_s, setup_norm_s = [], []
    # wrappers go in before set-up, so callbacks bound during set-up
    # (transport receive hooks) are bound to the wrappers too
    with spans.traced(recorder) if recorder else nullcontext():
        # the measured interactions run on the last build
        for attempt in range(cls.setups):
            workload = cls(spec["seed"], spec["block"])
            probe.sample(3)
            wall0 = time.perf_counter()
            try:
                workload.build()
                setup_s.append(time.perf_counter() - wall0)
                probe.sample(3)
                setup_norm_s.append(setup_s[-1] * PROBE_REF_MS
                                    / statistics.median(probe.ms[-6:]))
                if attempt == cls.setups - 1:
                    result = workload.measure(
                        spec.get("interactions"), spec.get("seconds"),
                        recorder, probe)
                    errors = workload.check()
            finally:
                workload.close()
            gc.collect()
    result.update(
        workload=workload.name, block=spec["block"], trace=spec["trace"],
        setup_s=setup_s, setup_norm_s=setup_norm_s,
        probe_ms=statistics.median(probe.ms), probe_ref_ms=PROBE_REF_MS,
        errors=errors,
        bearer={"bandwidth_bps": workload.bearer.bandwidth_bps,
                "latency_s": workload.bearer.latency_s},
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if recorder is not None:
        result["self_s"] = dict(recorder.self_s)
        result["calls"] = dict(recorder.calls)
        if spec.get("spans_path"):
            recorder.write(Path(spec["spans_path"]))
    return result


if __name__ == "__main__":
    print(json.dumps(run_block(json.loads(sys.argv[1]))))
