"""Cross-commit frame parity: device screens and UIP bytes, frame by frame.

A rendering or codec change must leave every device screen as it was.
This script extracts a base revision with ``git archive`` into a
temporary directory and runs the same seeded closed-loop workloads of
``benchmarks/e2e`` (pda-tap, remote-browse, phone-tap, hotplug; seeds 1-3,
60 interactions each) in that tree and in the working tree.  Every home
offers HEXTILE first, so each workload also runs once more at seed 1
with its session switched to ZRLE: after ``build()`` the proxy's
upstream sends ``SetEncodings((ZRLE, RAW))``.  And since every workload
has one session per surface, each also runs once more at seed 1 with a
guest seated at the resident's view (``add_user("guest",
view_of="resident")``), so two sessions share the surface's encodes.
For each run it compares:

* the digest of the output device's whole screen after every frame, and
* the digest of the bytes the UIP server sent during every interaction
  (in a shared run, to each of the two sessions).

Each run's line also gives, per tree, the HEXTILE rects the proxies
received and the ``decode_hextile`` calls they made (counted through the
module attributes, over the whole run), so a tree whose decoder serves
repeat rects from a cache shows how many of the compared frames it did
not decode.  The counts are printed, not compared.

Usage::

    python3 benchmarks/frame_parity.py BASE
    make frame-parity BASE=<rev>

It prints one line per run, and exits 1 on any difference
(0 when every frame and interaction matches).  It writes nothing inside
the repository: the base tree lives in a temporary directory, and the
children run with bytecode writing off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("PdaTap", "RemoteBrowse", "PhoneTap", "Hotplug")
SEEDS = (1, 2, 3)
#: Each workload's runs as ``(seed, variant)``: every seed as the
#: workload builds it (variant ""), then seed 1 switched to ZRLE and seed
#: 1 with a guest on the resident's surface.
RUNS = tuple((seed, "") for seed in SEEDS) + ((1, "zrle"), (1, "shared"))
INTERACTIONS = 60


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def collect(root: str) -> dict:
    """Screens after every frame and UIP bytes per interaction, by
    ``workload/seed`` (``workload/seed/<variant>`` for a ZRLE or shared
    run), for the tree at ``root``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [f"{root}/src", f"{root}/benchmarks/e2e"]
    import workloads
    from repro.uip import HEXTILE, RAW, ZRLE, SetEncodings
    from repro.uip import encodings

    counts = {"rects": 0, "decodes": 0}
    decode_rect, decode_hextile = (encodings.decode_rect,
                                   encodings.decode_hextile)

    def counting_decode_rect(state, cursor, width, height, encoding):
        out = decode_rect(state, cursor, width, height, encoding)
        counts["rects"] += encoding == HEXTILE
        return out

    def counting_decode_hextile(cursor, width, height):
        counts["decodes"] += 1
        return decode_hextile(cursor, width, height)

    encodings.decode_rect = counting_decode_rect
    encodings.decode_hextile = counting_decode_hextile
    runs = {}
    for name in WORKLOADS:
        for seed, variant in RUNS:
            counts.update(rects=0, decodes=0)
            workload = getattr(workloads, name)(seed, 0)
            workload.build()
            home = workload.home
            sessions = [home.server_session]
            if variant == "zrle":
                home.session.upstream.endpoint.send(
                    SetEncodings((ZRLE, RAW)).encode())
                home.settle()
                if home.server_session.encodings[0] != ZRLE:
                    raise RuntimeError(f"{name}: no switch to ZRLE")
            elif variant == "shared":
                guest = home.add_user("guest", view_of="resident")
                home.settle()
                sessions.append(guest.server_session)
            output = workload.output
            screens = [_digest(output.screen_image.data)]
            output.on_frame = lambda image, o=output: screens.append(
                _digest(o.screen_image.data))
            sent: list[list[bytes]] = [[] for _ in sessions]
            for session, out in zip(sessions, sent):
                session.endpoint.send = _recording(session.endpoint.send,
                                                   out)
            uip = []
            inputs = workload.inputs()
            for _ in range(INTERACTIONS):
                for out in sent:
                    out.clear()
                workload.act(next(inputs))
                home.settle()
                uip.append("/".join(_digest(b"".join(out)) for out in sent))
            workload.close()
            key = f"{name}/{seed}" + (f"/{variant}" if variant else "")
            runs[key] = {"screens": screens, "uip": uip,
                         "hextile": dict(counts)}
    return runs


def _recording(send, out: list[bytes]):
    """``send``, also appending every chunk it is given to ``out``."""
    def recording_send(data):
        chunks = [data] if isinstance(data, (bytes, bytearray,
                                             memoryview)) else data
        out.extend(bytes(chunk) for chunk in chunks)
        return send(data)
    return recording_send


def extract(rev: str, dest: str) -> None:
    """Write the tree of git revision ``rev`` into directory ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _run_child(root: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect",
         str(root)],
        cwd=tempfile.gettempdir(), env=env, check=True,
        capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(base: dict, head: dict) -> int:
    """Print one line per run; return the number of runs that differ."""
    differing = 0
    for key in sorted(set(base) | set(head)):
        old, new = base.get(key), head.get(key)
        if old is None or new is None:
            print(f"{key}: missing on one side")
            differing += 1
            continue
        problems = []
        for what in ("screens", "uip"):
            a, b = old[what], new[what]
            if len(a) != len(b):
                problems.append(f"{what}: {len(a)} vs {len(b)}")
            elif a != b:
                first = next(i for i, (x, y) in enumerate(zip(a, b))
                             if x != y)
                problems.append(f"{what}: first difference at {first}")
        if problems:
            differing += 1
        base_counts, head_counts = old["hextile"], new["hextile"]
        print(f"{key}: {len(new['screens'])} frames, {len(new['uip'])} "
              f"interactions: " + ("; ".join(problems) or "identical")
              + f"; HEXTILE rects base/head {base_counts['rects']}/"
              f"{head_counts['rects']}, decode_hextile calls "
              f"{base_counts['decodes']}/{head_counts['decodes']}")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", help="git revision to compare "
                        "the working tree against")
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.collect)))
        return 0
    if not args.base:
        parser.error("name the base revision, e.g. HEAD~1")
    with tempfile.TemporaryDirectory(prefix="frame-parity-") as tmp:
        extract(args.base, tmp)
        base = _run_child(Path(tmp))
    head = _run_child(ROOT)
    differing = compare(base, head)
    print(f"{differing} of {len(head)} runs differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
