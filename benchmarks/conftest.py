"""Shared workload builders for the experiment benchmarks (E1-E7).

The paper has no quantitative tables; each bench module's docstring names
the experiments it implements, and the README's "Running tests and
benchmarks" section lists the make targets that run them.  Every benchmark
attaches the numbers that matter for the experiment's *shape* (bytes,
ratios, virtual-time latencies) to ``benchmark.extra_info`` so
``--benchmark-json`` captures them alongside the timing data.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Home
from repro.appliances import Television, VideoRecorder
from repro.graphics import Bitmap, Rect, default_font
from repro.net import make_pipe
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Canvas, Column, Label, UIWindow
from repro.util import Scheduler
from repro.windows import DisplayServer

#: Where full runs write the committed ``BENCH_*.json`` records.
REPO_ROOT = Path(__file__).resolve().parents[1]
#: Where smoke runs write theirs instead (gitignored).
SMOKE_RECORDS = Path(__file__).resolve().parent / ".smoke"


def panel_frame(width: int, height: int) -> Bitmap:
    """A control-panel-like frame: flat fills, bevels, captions.

    This is the workload class the thin-client encodings were designed
    for; the examples' real app frames have the same statistics.
    """
    bmp = Bitmap(width, height, fill=(206, 206, 206))
    canvas = Canvas(bmp, 0, 0, bmp.bounds)
    font = default_font(1)
    row_h = max(20, height // 8)
    y = 6
    captions = ["POWER", "CH-", "CH+", "VOLUME", "MUTE", "SOURCE"]
    while y + row_h < height - 6:
        caption = captions[(y // row_h) % len(captions)]
        canvas.bevel(Rect(8, y, width - 16, row_h - 4),
                     face=(192, 192, 192), light=(250, 250, 250),
                     shadow=(96, 96, 96))
        font.draw(bmp, 14, y + (row_h - 11) // 2, caption, (10, 10, 10))
        if (y // row_h) % 2 == 1:  # alternate rows carry an accent bar
            bmp.fill_rect(Rect(width // 2, y + 4, width // 3, row_h - 12),
                          (40, 80, 160))
        y += row_h
    return bmp


def churn_panel_stack(profiles, *, backpressure: bool = True):
    """A churn-ready 480x360 12-label panel with one session per profile.

    The shared workload of the broadcast/backpressure experiments:
    returns ``(scheduler, display, labels, server, clients)`` with
    ``clients[i]`` connected over ``profiles[i]``.
    """
    scheduler = Scheduler()
    window = UIWindow(480, 360)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(12)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, backpressure=backpressure)
    clients = []
    for i, profile in enumerate(profiles):
        pipe = make_pipe(scheduler, profile, name=f"viewer-{i}")
        server.accept(pipe.a)
        clients.append(UniIntClient(pipe.b))
    scheduler.run_until_idle()
    return scheduler, display, labels, server, clients


def drive_eager_churn(scheduler, labels, poll_clients, seconds,
                      poll_every=0.05, churn_every=0.1):
    """Panel churn plus eagerly polling viewers (pipelined requests).

    Models the slow-device flood: ``poll_clients`` request updates on a
    timer regardless of what is still in flight.  Both drivers stop at
    the deadline so a later ``run_until_idle`` can drain and converge.
    """
    deadline = scheduler.now() + seconds

    def poll():
        for client in poll_clients:
            if client.ready:
                client.request_update(True)
        if scheduler.now() + poll_every <= deadline:
            scheduler.call_later(poll_every, poll)

    rounds = {"n": 0}

    def churn():
        rounds["n"] += 1
        for i, label in enumerate(labels):
            label.text = f"round {rounds['n']} v{(rounds['n'] * 37 + i) % 997}"
        if scheduler.now() + churn_every <= deadline:
            scheduler.call_later(churn_every, churn)

    scheduler.call_later(poll_every, poll)
    scheduler.call_later(churn_every, churn)
    scheduler.run_for(seconds)


@pytest.fixture
def tv_home():
    """A home with a TV and a VCR, settled."""
    home = Home(width=480, height=360)
    home.add_appliance(Television("TV"))
    home.add_appliance(VideoRecorder("VCR"))
    home.settle()
    return home


def pytest_addoption(parser):
    """``--smoke``: shrink workloads to harness-validation size.

    CI runs every benchmark file with ``--smoke --benchmark-disable`` so a
    transport/pipeline refactor cannot silently break the bench harness;
    records written in smoke mode land in ``benchmarks/.smoke/``.
    """
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="run benchmarks with tiny workloads (harness smoke test)")


@pytest.fixture
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


@pytest.fixture
def record_dir(smoke) -> Path:
    """The directory a bench writes its ``BENCH_*.json`` record into.

    The repo root on full runs; ``benchmarks/.smoke/`` under ``--smoke``,
    so a smoke run never rewrites a committed record.
    """
    if not smoke:
        return REPO_ROOT
    SMOKE_RECORDS.mkdir(exist_ok=True)
    return SMOKE_RECORDS


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker, so the
    tier-1 suite can deselect it wholesale (`-m "not bench"`)."""
    for item in items:
        item.add_marker(pytest.mark.bench)
