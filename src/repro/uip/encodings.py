"""Framebuffer-update encodings.

These are the compression schemes that make "bitmap images as universal
output events" viable on 2002-era device links (paper §2.1): a phone on a
9600 bps cellular link cannot take raw pixels, but control-panel GUIs are
flat-colour rectangles, which HEXTILE represents in a few dozen bytes.

All encoders/decoders operate on *packed* pixel arrays — 2-D numpy arrays
of UIP's one wire pixel, RGB888's little-endian ``uint32``
(``RGB888.pack_array`` produces them).  Conversion to RGB happens at the
edges: :func:`encode_pixels` keys a framebuffer's RGB view in the encode
cache and packs it only on a miss.

Implemented encodings (numbered as in RFB for familiarity):

* ``RAW`` (0)      — pixels, row-major.
* ``HEXTILE`` (5)  — 16x16 tiles, persistent background/foreground,
  nibble-packed subrectangles; falls back to raw per tile.
* ``ZRLE`` (16)    — 64x64 tiles, each choosing the cheapest of solid /
  packed palette (1/2/4 bpp) / plain RLE / palette RLE / raw, the whole
  tile stream then deflated through the per-session persistent zlib
  stream.  The workhorse for the paper's 9600 bps phone leg.

A peer that offers or sends any other encoding meets the refusals of
unknown encodings.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from collections import OrderedDict

import numpy as np

from repro.graphics.pixelformat import RGB888
from repro.uip.wire import Cursor, NeedMore, Writer
from repro.util.errors import ProtocolError

RAW = 0
HEXTILE = 5
ZRLE = 16

#: The deflate level of every session's persistent ZRLE stream.
DEFLATE_LEVEL = 6

_TILE = 16
_ZRLE_TILE = 64

#: One wire pixel: 4 bytes, little-endian (:data:`RGB888`).
_PIXEL = RGB888.dtype
_PS = RGB888.bytes_per_pixel

# Hextile subencoding bits.
_HEX_RAW = 1
_HEX_BG = 2
_HEX_FG = 4
_HEX_SUBRECTS = 8
_HEX_COLOURED = 16

#: A run of HEXTILE tiles that keep the background (subencoding 0).
_KEEP_BACKGROUND = re.compile(rb"\x00+")


def content_digest(data: np.ndarray | bytes) -> bytes:
    """The sha256 of ``data`` (an array's bytes in C order) that every
    content key carries.  On an Intel Xeon with SHA extensions it hashed
    RGB at 1.39 GB/s against blake2b's 0.79; a CPU without them favours
    blake2b (``bench_encode_core`` records both)."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return hashlib.sha256(data).digest()


class EncodeCache:
    """Content-keyed LRU of encoded payloads.

    Rect payloads are keyed by ``(encoding, shape, digest-of-pixels)``
    of a framebuffer view's own RGB bytes (:func:`encode_pixels`), so a
    hit is only possible when the exact same pixels are re-encoded with
    the same encoding: re-damaged-but-unchanged tiles (blinking widgets,
    toggling panels) skip the pack and the whole encode.  A ZRLE payload
    rides the persistent deflate stream, so it is never cached; ZRLE
    caches its position-*independent* tile stream and pays only the
    per-session deflate on a hit.  Each UniInt server surface keeps one,
    shared by the encoder of every session watching it, so sessions on
    one surface encode each distinct rect once: the first session to
    send it misses, every other one hits.  The phone's output
    plug-in is the second user: it keeps the packed 1-bit screen it made
    of each fitted frame.  The proxy's UIP decoder is the third: each
    session's :class:`DecoderState` keeps the pixels of each HEXTILE
    payload it has met twice, keyed by ``(width, height, digest of the
    payload)``.

    Bounded both by entry count and by total payload bytes so one huge RAW
    frame cannot evict an entire panel's worth of small HEXTILE payloads.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 8 * 1024 * 1024) -> None:
        if max_entries < 1 or max_bytes < 1:
            raise ValueError("cache limits must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        return self._bytes

    def get(self, key: tuple) -> bytes | None:
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key: tuple, payload: bytes) -> None:
        if len(payload) > self.max_bytes:
            return  # would evict everything for one entry
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        self._entries[key] = payload
        self._bytes += len(payload)
        while (len(self._entries) > self.max_entries
               or self._bytes > self.max_bytes):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)


class EncoderState:
    """Per-session encoder state: the persistent ZRLE deflate stream and
    the content-keyed encode cache (``None``: no cache)."""

    def __init__(self, cache: EncodeCache | None = None) -> None:
        self._deflater = zlib.compressobj(DEFLATE_LEVEL)
        # Hextile background/foreground persist across tiles of one rect
        # only (reset per encode call) to keep rects independently decodable.
        self.cache = cache

    def deflate(self, data: bytes) -> bytes:
        return (self._deflater.compress(data)
                + self._deflater.flush(zlib.Z_SYNC_FLUSH))

    def zrle_payload(self, tiles: bytes) -> bytes:
        """A ZRLE rect's payload: its tile stream deflated through this
        session's stream, behind the compressed length."""
        compressed = self.deflate(tiles)
        return Writer().u32(len(compressed)).raw(compressed).getvalue()


class DecoderState:
    """Per-session decoder state mirroring :class:`EncoderState`: the
    persistent ZRLE inflate stream and the cache of decoded HEXTILE
    rects that :func:`decode_rect` serves repeat payloads from."""

    def __init__(self) -> None:
        self._inflater = zlib.decompressobj()
        self.cache = EncodeCache()

    def inflate(self, data: bytes, limit: int) -> bytes:
        """The next ``data`` of the persistent stream, inflated; a stream
        that inflates past ``limit`` bytes is refused before it does."""
        try:
            out = self._inflater.decompress(data, limit + 1)
        except zlib.error as exc:
            raise ProtocolError(f"corrupt deflate stream: {exc}") from exc
        if len(out) > limit:
            raise ProtocolError(f"deflate stream inflates past {limit} bytes")
        return out


# -- pixel helpers ---------------------------------------------------------


def _pixel_bytes(value: int) -> bytes:
    return int(value).to_bytes(_PS, "little")


def _read_pixel(cursor: Cursor) -> int:
    return int.from_bytes(cursor.take(_PS), "little")


# -- RAW ------------------------------------------------------------------------


def encode_raw(packed: np.ndarray) -> bytes:
    return np.ascontiguousarray(packed).tobytes()


def decode_raw(cursor: Cursor, width: int, height: int) -> np.ndarray:
    data = cursor.take(width * height * _PS)
    return np.frombuffer(data, dtype=_PIXEL).reshape(height, width).copy()


# -- HEXTILE -----------------------------------------------------------------------


def _tile_extrema(packed: np.ndarray,
                  tile: int = _TILE) -> tuple[np.ndarray, np.ndarray]:
    """Per-tile (min, max) over the whole rect in two reductions.

    Edge tiles are padded by edge replication, which only duplicates values
    already inside the same tile — so ``min == max`` classifies *solid*
    tiles exactly, including non-multiple-of-tile edges.  Hextile reduces
    at 16, ZRLE at 64.
    """
    height, width = packed.shape
    tiles_y = -(-height // tile)
    tiles_x = -(-width // tile)
    pad_h = tiles_y * tile - height
    pad_w = tiles_x * tile - width
    grid = packed
    if pad_h or pad_w:
        grid = np.pad(packed, ((0, pad_h), (0, pad_w)), mode="edge")
    blocks = grid.reshape(tiles_y, tile, tiles_x, tile)
    return blocks.min(axis=(1, 3)), blocks.max(axis=(1, 3))


class _HextileBatch:
    """Every *mixed* tile of one shape, with its hextile ingredients
    precomputed.

    ``stack`` holds the tiles, (n, th, tw), in scan order.  One sort of
    every tile's pixels finds each background (the most common value,
    the smallest on ties), one run pass over the whole stack extracts
    every tile's vertically merged subrects, and one structured-array
    pass serialises all subrect records, so :meth:`emit` only slices.
    The first subrect in (y, x) order donates the foreground.
    """

    __slots__ = ("stack", "raw_size", "backgrounds", "foregrounds",
                 "coloured", "offsets", "cblock", "mblock", "emitted")

    def __init__(self, stack: np.ndarray) -> None:
        n, th, tw = stack.shape
        area = th * tw
        self.stack = stack
        self.raw_size = 1 + area * _PS
        self.emitted = 0

        # background = per-tile most-common value: sort each tile's pixels,
        # then one run pass over the sorted block; stable lexsort by
        # (tile, length desc) leaves the smallest value first among ties.
        sflat = np.sort(stack.reshape(n, area), axis=1).reshape(-1)
        breaks = np.empty(n * area, dtype=bool)
        breaks[0] = True
        np.not_equal(sflat[1:], sflat[:-1], out=breaks[1:])
        breaks[::area] = True
        rstarts = np.flatnonzero(breaks)
        rlengths = np.diff(np.append(rstarts, n * area))
        rtiles = rstarts // area
        order = np.lexsort((-rlengths, rtiles))
        rt = rtiles[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        first[1:] = rt[1:] != rt[:-1]
        backgrounds = sflat[rstarts[order[first]]]
        self.backgrounds = backgrounds.tolist()

        # merged subrects of every tile in one run-extraction pass; a run
        # breaks at every tile row start
        flat = stack.reshape(-1)
        breaks = np.empty(flat.size, dtype=bool)
        breaks[0] = True
        np.not_equal(flat[1:], flat[:-1], out=breaks[1:])
        breaks[::tw] = True
        starts = np.flatnonzero(breaks)
        lengths = np.diff(np.append(starts, flat.size))
        values = flat[starts]
        tiles, within = np.divmod(starts, area)
        keep = values != backgrounds[tiles]
        lengths, values, tiles, within = (lengths[keep], values[keep],
                                          tiles[keep], within[keep])
        ys, x0s = np.divmod(within, tw)
        x1s = x0s + lengths
        # lexsort needs native byte order
        order = np.lexsort((ys, values.astype(np.uint32, copy=False), x1s,
                            x0s, tiles))
        tiles, ys, x0s, x1s, values = (a[order] for a in
                                       (tiles, ys, x0s, x1s, values))
        heads = np.empty(tiles.size, dtype=bool)
        heads[0] = True
        heads[1:] = ((tiles[1:] != tiles[:-1]) | (x0s[1:] != x0s[:-1])
                     | (x1s[1:] != x1s[:-1]) | (values[1:] != values[:-1])
                     | (ys[1:] != ys[:-1] + 1))
        head_idx = np.flatnonzero(heads)
        spans = np.diff(np.append(head_idx, tiles.size))
        tiles, ys, x0s, x1s, values = (a[head_idx] for a in
                                       (tiles, ys, x0s, x1s, values))
        out_order = np.lexsort((x0s, ys, tiles))
        tiles, ys, x0s, values, spans = (a[out_order] for a in
                                         (tiles, ys, x0s, values, spans))
        ws = x1s[out_order] - x0s

        counts = np.bincount(tiles, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        first_vals = values[offsets[:-1]]
        differs = values != np.repeat(first_vals, counts)
        self.coloured = (np.add.reduceat(differs, offsets[:-1]) > 0).tolist()
        self.foregrounds = first_vals.tolist()
        self.offsets = offsets.tolist()

        xy = ((x0s << 4) | ys).astype(np.uint8)
        wh = (((ws - 1) << 4) | (spans - 1)).astype(np.uint8)
        self.cblock = np.empty(values.size, dtype=np.dtype(
            [("v", _PIXEL.str), ("xy", "u1"), ("wh", "u1")]))
        self.cblock["v"] = values
        self.cblock["xy"] = xy
        self.cblock["wh"] = wh
        self.mblock = np.empty(values.size, dtype=np.dtype(
            [("xy", "u1"), ("wh", "u1")]))
        self.mblock["xy"] = xy
        self.mblock["wh"] = wh

    def emit(self, writer: Writer, prev_bg: int | None,
             prev_fg: int | None) -> tuple[int | None, int | None]:
        """Write the next tile of the stack; returns the updated
        (prev_bg, prev_fg) persistence pair."""
        i = self.emitted
        self.emitted += 1
        s, e = self.offsets[i], self.offsets[i + 1]
        background = self.backgrounds[i]
        subenc = _HEX_SUBRECTS
        head = b""
        if background != prev_bg:
            subenc |= _HEX_BG
            head += _pixel_bytes(background)
        if self.coloured[i]:
            subenc |= _HEX_COLOURED
            foreground = prev_fg
            body = self.cblock[s:e].tobytes()
        else:
            foreground = self.foregrounds[i]
            if foreground != prev_fg:
                subenc |= _HEX_FG
                head += _pixel_bytes(foreground)
            body = self.mblock[s:e].tobytes()
        if 2 + len(head) + len(body) >= self.raw_size or e - s > 255:
            writer.u8(_HEX_RAW).raw(self.stack[i].tobytes())
            return None, None  # raw tiles invalidate persistence
        writer.u8(subenc).raw(head).u8(e - s).raw(body)
        return background, foreground


def encode_hextile(packed: np.ndarray) -> bytes:
    height, width = packed.shape
    if packed.size == 0:
        return b""
    # Batch-classify solid tiles up front: on panel workloads most tiles
    # are flat, and each costs O(1) here.
    tile_min, tile_max = _tile_extrema(packed)
    mixed = tile_min != tile_max
    tiles_y, tiles_x = mixed.shape
    full_y, full_x = height // _TILE, width // _TILE
    # The mixed tiles come from at most four batches, one per tile shape:
    # full tiles, the right edge column, the bottom edge row, the corner.
    batches = {}
    for edge_y, ty0, ty1 in ((False, 0, full_y), (True, full_y, tiles_y)):
        for edge_x, tx0, tx1 in ((False, 0, full_x), (True, full_x, tiles_x)):
            grid = mixed[ty0:ty1, tx0:tx1]
            if grid.any():
                region = packed[ty0 * _TILE:ty1 * _TILE,
                                tx0 * _TILE:tx1 * _TILE]
                ny, nx = grid.shape
                th, tw = region.shape[0] // ny, region.shape[1] // nx
                stack = region.reshape(ny, th, nx, tw).transpose(0, 2, 1, 3)
                batches[edge_y, edge_x] = _HextileBatch(stack[grid])
    writer = Writer()
    prev_bg: int | None = None
    prev_fg: int | None = None
    for tyi in range(tiles_y):
        for txi in range(tiles_x):
            if mixed[tyi, txi]:
                prev_bg, prev_fg = batches[tyi >= full_y, txi >= full_x].emit(
                    writer, prev_bg, prev_fg)
                continue
            value = int(tile_min[tyi, txi])
            if value == prev_bg:
                writer.u8(0)
            else:
                writer.u8(_HEX_BG).raw(_pixel_bytes(value))
                prev_bg = value
    return writer.getvalue()


def decode_hextile(cursor: Cursor, width: int, height: int) -> np.ndarray:
    """Walk every tile of the payload, then paint them all.

    The walk reads through a local offset into ``cursor.data`` (one regex
    match per run of tiles that keep the background) and collects the
    subrect records; ``cursor.pos`` moves only once all is painted.
    Painting expands the tile backgrounds as one grid, lays the raw tiles
    over it, then writes every subrect pixel in one assignment.
    """
    data, pos, end = cursor.data, cursor.pos, len(cursor.data)
    ps = _PS
    columns = -(-width // _TILE)
    tiles = columns * -(-height // _TILE)
    backgrounds: list[int] = []  # one per tile, in scan order
    raws: list[tuple] = []  # (y, x, h, w, pixels)
    blocks: list[bytes] = []  # subrect records, as (value, xy, wh)
    owners: list[tuple] = []  # per block: (count, tile offset, tile w, h)
    background = 0
    foreground = bytes(ps)
    while len(backgrounds) < tiles:
        if pos >= end:
            raise NeedMore(pos + 1)
        subenc = data[pos]
        if not subenc:
            run = _KEEP_BACKGROUND.match(
                data, pos, pos + tiles - len(backgrounds)).end() - pos
            backgrounds += [background] * run
            pos += run
            continue
        pos += 1
        ty, tx = divmod(len(backgrounds), columns)
        ty *= _TILE
        tx *= _TILE
        th = min(_TILE, height - ty)
        tw = min(_TILE, width - tx)
        if subenc & _HEX_RAW:
            n = tw * th * ps
            if pos + n > end:
                raise NeedMore(pos + n)
            raws.append((ty, tx, th, tw, data[pos:pos + n]))
            backgrounds.append(0)
            pos += n
            continue
        if subenc & _HEX_BG:
            if pos + ps > end:
                raise NeedMore(pos + ps)
            background = int.from_bytes(data[pos:pos + ps], "little")
            pos += ps
        if subenc & _HEX_FG:
            if pos + ps > end:
                raise NeedMore(pos + ps)
            foreground = data[pos:pos + ps]
            pos += ps
        backgrounds.append(background)
        if not subenc & _HEX_SUBRECTS:
            continue
        if pos >= end:
            raise NeedMore(pos + 1)
        size = ps + 2 if subenc & _HEX_COLOURED else 2
        block_end = pos + 1 + data[pos] * size
        if block_end > end:
            raise NeedMore(block_end)
        block = data[pos + 1:block_end]
        blocks.append(block if size > 2 else b"".join(
            foreground + block[i:i + 2] for i in range(0, len(block), 2)))
        owners.append((data[pos], ty * width + tx, tw, th))
        pos = block_end
    grid = np.array(backgrounds, dtype=_PIXEL).reshape(
        -(-height // _TILE), columns)
    out = np.ascontiguousarray(np.repeat(np.repeat(
        grid, _TILE, axis=0), _TILE, axis=1)[:height, :width])
    for y, x, h, w, pixels in raws:
        out[y:y + h, x:x + w] = np.frombuffer(
            pixels, dtype=_PIXEL).reshape(h, w)
    if owners:
        records = np.frombuffer(b"".join(blocks), dtype=[
            ("v", _PIXEL.str), ("xy", "u1"), ("wh", "u1")])
        counts, offsets, tws, ths = np.array(owners).T
        offset, tw, th = (np.repeat(a, counts) for a in (offsets, tws, ths))
        sx, sy = np.divmod(records["xy"].astype(np.intp), _TILE)
        sw, sh = np.divmod(records["wh"].astype(np.intp), _TILE)
        sw += 1
        sh += 1
        bad = np.flatnonzero((sx + sw > tw) | (sy + sh > th))
        if bad.size:
            i = bad[0]
            raise ProtocolError(
                f"hextile subrect {tuple(int(a[i]) for a in (sx, sy, sw, sh))}"
                f" exceeds tile {tw[i]}x{th[i]}"
            )
        area = sw * sh
        rid = np.repeat(np.arange(area.size), area)  # record of each pixel
        row, column = np.divmod(np.arange(rid.size) - np.repeat(
            np.cumsum(area) - area, area), sw[rid])
        flat = (offset + sy * width + sx)[rid] + row * width + column
        if np.bincount(flat).max(initial=0) > 1:
            # a peer overlapped subrects: the later one wins, and numpy
            # leaves unspecified which write to a repeated index lands
            last = flat.size - 1 - np.unique(flat[::-1],
                                             return_index=True)[1]
            flat, rid = flat[last], rid[last]
        out.reshape(-1)[flat] = records["v"][rid]
    cursor.pos = pos
    return out


def _hextile_end(cursor: Cursor, width: int, height: int) -> int:
    """The offset just past the HEXTILE payload at the cursor.

    :func:`decode_hextile`'s walk without its collection: it raises
    :class:`NeedMore` wherever that walk stalls, and leaves the cursor
    where it was.
    """
    data, pos, end = cursor.data, cursor.pos, len(cursor.data)
    ps = _PS
    columns = -(-width // _TILE)
    tiles = columns * -(-height // _TILE)
    tile = 0
    while tile < tiles:
        if pos >= end:
            raise NeedMore(pos + 1)
        subenc = data[pos]
        if not subenc:
            run = _KEEP_BACKGROUND.match(
                data, pos, pos + tiles - tile).end() - pos
            tile += run
            pos += run
            continue
        pos += 1
        if subenc & _HEX_RAW:
            ty, tx = divmod(tile, columns)
            pos += (min(_TILE, height - ty * _TILE)
                    * min(_TILE, width - tx * _TILE) * ps)
        else:
            if subenc & _HEX_BG:
                pos += ps
            if subenc & _HEX_FG:
                pos += ps
            if subenc & _HEX_SUBRECTS:
                if pos >= end:
                    raise NeedMore(pos + 1)
                pos += 1 + data[pos] * (
                    ps + 2 if subenc & _HEX_COLOURED else 2)
        if pos > end:
            raise NeedMore(pos)
        tile += 1
    return pos


# -- ZRLE --------------------------------------------------------------------------

# ZRLE subencoding bytes (per 64x64 tile).  2..16 is a packed palette of
# that size; 130..255 is palette RLE with palette size (byte - 128).
_ZRLE_RAW = 0
_ZRLE_SOLID = 1
_ZRLE_PLAIN_RLE = 128


def _zrle_bpp(palette_size: int) -> int:
    """Packed-palette bits per index."""
    if palette_size <= 2:
        return 1
    if palette_size <= 4:
        return 2
    return 4


def _read_run_length(cursor: Cursor) -> int:
    length = 1
    byte = cursor.u8()
    while byte == 255:
        length += 255
        byte = cursor.u8()
    return length + byte


def _flat_runs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of every same-value run in raster order.

    Runs cross row boundaries — ZRLE RLE is defined over the tile's
    flattened pixel sequence.
    """
    breaks = np.empty(flat.size, dtype=bool)
    breaks[0] = True
    np.not_equal(flat[1:], flat[:-1], out=breaks[1:])
    starts = np.flatnonzero(breaks)
    lengths = np.diff(np.append(starts, flat.size))
    return flat[starts], lengths


def _zrle_pack_indices(idx: np.ndarray, palette_size: int) -> bytes:
    """Palette indices as a packed bitfield: MSB-first, rows byte-padded."""
    height, width = idx.shape
    if palette_size <= 2:
        return np.packbits(idx.astype(np.uint8), axis=1).tobytes()
    if palette_size <= 4:
        pad = -width % 4
        if pad:
            idx = np.pad(idx, ((0, 0), (0, pad)))
        packed = ((idx[:, 0::4] << 6) | (idx[:, 1::4] << 4)
                  | (idx[:, 2::4] << 2) | idx[:, 3::4])
        return packed.astype(np.uint8).tobytes()
    pad = -width % 2
    if pad:
        idx = np.pad(idx, ((0, 0), (0, pad)))
    return ((idx[:, 0::2] << 4) | idx[:, 1::2]).astype(np.uint8).tobytes()


def _zrle_unpack_indices(cursor: Cursor, height: int, width: int,
                         palette_size: int) -> np.ndarray:
    bpp = _zrle_bpp(palette_size)
    row_bytes = (width * bpp + 7) // 8
    data = np.frombuffer(cursor.take(height * row_bytes),
                         dtype=np.uint8).reshape(height, row_bytes)
    if bpp == 1:
        return np.unpackbits(data, axis=1)[:, :width]
    idx = np.empty((height, row_bytes * (8 // bpp)), dtype=np.uint8)
    if bpp == 2:
        idx[:, 0::4] = data >> 6
        idx[:, 1::4] = (data >> 4) & 3
        idx[:, 2::4] = (data >> 2) & 3
        idx[:, 3::4] = data & 3
    else:
        idx[:, 0::2] = data >> 4
        idx[:, 1::2] = data & 0x0F
    return idx[:, :width]


def _zrle_encode_tile(out: bytearray, tile: np.ndarray) -> None:
    """Append one non-solid tile's cheapest subencoding to the stream.

    Candidate sizes are computed arithmetically *before* any body is
    built, so noise tiles go straight to raw without ever materialising
    an RLE body, and panel tiles build exactly one representation.
    Solid tiles never get here: :func:`encode_zrle_tiles` emits them
    from its min/max pass.
    """
    th, tw = tile.shape
    ps = _PS
    area = th * tw
    flat = tile.reshape(-1)
    # The run decomposition doubles as cheap palette extraction: every
    # value appears in some run, and there are far fewer runs than pixels
    # on panel content, so unique(run_values) beats unique(flat).
    run_values, run_lengths = _flat_runs(flat)
    uniques = np.unique(run_values)
    palette_size = int(uniques.size)
    best = _ZRLE_RAW
    best_size = area * ps
    if palette_size <= 16:
        packed_size = (palette_size * ps
                       + th * ((tw * _zrle_bpp(palette_size) + 7) // 8))
        if packed_size < best_size:
            best, best_size = palette_size, packed_size
    extra_ff, tail = np.divmod(run_lengths - 1, 255)
    length_bytes = extra_ff + 1
    plain_size = run_values.size * ps + int(length_bytes.sum())
    if plain_size < best_size:
        best, best_size = _ZRLE_PLAIN_RLE, plain_size
    if palette_size <= 127:
        pal_size = palette_size * ps + int(
            np.where(run_lengths == 1, 1, 1 + length_bytes).sum())
        if pal_size < best_size:
            best, best_size = _ZRLE_PLAIN_RLE + palette_size, pal_size
    if best == _ZRLE_RAW:
        out.append(_ZRLE_RAW)
        out += np.ascontiguousarray(tile).tobytes()
    elif best <= 16:  # packed palette
        out.append(palette_size)
        out += uniques.tobytes()
        idx = np.searchsorted(uniques, flat).reshape(th, tw)
        out += _zrle_pack_indices(idx, palette_size)
    elif best == _ZRLE_PLAIN_RLE:
        # Scatter-build the body: per run, ps value bytes then the run
        # length as extra_ff 0xFF bytes and a final byte < 255.  The
        # buffer starts all-0xFF so only first/last positions need writes.
        out.append(_ZRLE_PLAIN_RLE)
        nbytes = ps + extra_ff + 1
        ends = np.cumsum(nbytes)
        starts = ends - nbytes
        buf = np.full(int(ends[-1]), 0xFF, dtype=np.uint8)
        value_bytes = np.frombuffer(run_values.tobytes(),
                                    dtype=np.uint8).reshape(-1, ps)
        for k in range(ps):
            buf[starts + k] = value_bytes[:, k]
        buf[ends - 1] = tail
        out += buf.tobytes()
    else:  # palette RLE
        out.append(best)
        out += uniques.tobytes()
        indices = np.searchsorted(uniques, run_values)
        singles = run_lengths == 1
        nbytes = np.where(singles, 1, extra_ff + 2)
        ends = np.cumsum(nbytes)
        starts = ends - nbytes
        buf = np.full(int(ends[-1]), 0xFF, dtype=np.uint8)
        buf[starts] = np.where(singles, indices, indices | 0x80)
        multi = ~singles
        buf[ends[multi] - 1] = tail[multi]
        out += buf.tobytes()


def _zrle_decode_tile(cursor: Cursor, th: int, tw: int) -> np.ndarray:
    ps = _PS
    area = th * tw
    subenc = cursor.u8()
    if subenc == _ZRLE_RAW:
        return np.frombuffer(cursor.take(area * ps),
                             dtype=_PIXEL).reshape(th, tw)
    if subenc == _ZRLE_SOLID:
        return np.full((th, tw), _read_pixel(cursor), dtype=_PIXEL)
    if 2 <= subenc <= 16:
        palette = np.frombuffer(cursor.take(subenc * ps), dtype=_PIXEL)
        idx = _zrle_unpack_indices(cursor, th, tw, subenc)
        if int(idx.max(initial=0)) >= subenc:
            raise ProtocolError(f"ZRLE palette index out of range "
                                f"(palette size {subenc})")
        return palette[idx]
    if subenc == _ZRLE_PLAIN_RLE:
        flat = np.empty(area, dtype=_PIXEL)
        filled = 0
        while filled < area:
            value = _read_pixel(cursor)
            length = _read_run_length(cursor)
            if filled + length > area:
                raise ProtocolError("ZRLE run exceeds tile")
            flat[filled:filled + length] = value
            filled += length
        return flat.reshape(th, tw)
    if subenc >= _ZRLE_PLAIN_RLE + 2:
        palette_size = subenc - _ZRLE_PLAIN_RLE
        palette = np.frombuffer(cursor.take(palette_size * ps),
                                dtype=_PIXEL)
        flat = np.empty(area, dtype=_PIXEL)
        filled = 0
        while filled < area:
            byte = cursor.u8()
            index = byte & 0x7F
            if index >= palette_size:
                raise ProtocolError(f"ZRLE palette index {index} out of "
                                    f"range (palette size {palette_size})")
            length = _read_run_length(cursor) if byte & 0x80 else 1
            if filled + length > area:
                raise ProtocolError("ZRLE run exceeds tile")
            flat[filled:filled + length] = palette[index]
            filled += length
        return flat.reshape(th, tw)
    raise ProtocolError(f"invalid ZRLE subencoding {subenc}")


def encode_zrle_tiles(packed: np.ndarray) -> bytes:
    """The position-independent ZRLE tile stream (pre-deflate).

    This is the expensive, *cacheable* half of a ZRLE encode: it depends
    only on the pixels, so sessions sharing an
    :class:`EncodeCache` share it and pay only their own deflate.
    """
    height, width = packed.shape
    out = bytearray()
    if packed.size == 0:
        return b""
    # Batch-classify solid tiles up front (panel workloads are mostly
    # flat): each costs one append here instead of an np.unique call.
    tile_min, tile_max = _tile_extrema(packed, _ZRLE_TILE)
    solid = tile_min == tile_max
    for tyi, ty in enumerate(range(0, height, _ZRLE_TILE)):
        for txi, tx in enumerate(range(0, width, _ZRLE_TILE)):
            if solid[tyi, txi]:
                out.append(_ZRLE_SOLID)
                out += _pixel_bytes(int(tile_min[tyi, txi]))
                continue
            _zrle_encode_tile(
                out, packed[ty:ty + _ZRLE_TILE, tx:tx + _ZRLE_TILE])
    return bytes(out)


def decode_zrle_tiles(data: bytes, width: int, height: int) -> np.ndarray:
    """Decode a fully *inflated* ZRLE tile stream back to packed pixels."""
    out = np.zeros((height, width), dtype=_PIXEL)
    cursor = Cursor(data)
    try:
        for ty in range(0, height, _ZRLE_TILE):
            for tx in range(0, width, _ZRLE_TILE):
                th = min(_ZRLE_TILE, height - ty)
                tw = min(_ZRLE_TILE, width - tx)
                out[ty:ty + th, tx:tx + tw] = _zrle_decode_tile(
                    cursor, th, tw)
    except NeedMore as exc:
        raise ProtocolError("truncated ZRLE tile stream") from exc
    if cursor.pos != len(data):
        raise ProtocolError(
            f"{len(data) - cursor.pos} trailing bytes after ZRLE tiles")
    return out


# -- top level ------------------------------------------------------------------------


def encode_rect(state: EncoderState, packed: np.ndarray,
                encoding: int) -> bytes:
    """Encode one rectangle's packed pixels as the given encoding's payload
    (uncached: :func:`encode_pixels` calls this on a cache miss)."""
    if packed.ndim != 2:
        raise ProtocolError(f"packed array must be 2-D, got {packed.shape}")
    if encoding == RAW:
        return encode_raw(packed)
    if encoding == HEXTILE:
        return encode_hextile(packed)
    if encoding == ZRLE:
        return state.zrle_payload(encode_zrle_tiles(packed))
    raise ProtocolError(f"cannot encode pixels as encoding {encoding}")


def encode_pixels(state: EncoderState, rgb: np.ndarray,
                  encoding: int) -> bytes:
    """The payload of one rect's (H, W, 3) RGB pixels, such as a
    framebuffer view, keyed on those bytes in ``state.cache`` and packed
    and encoded only on a miss (for ZRLE the cache keeps the tile
    stream, deflated per session on every hit)."""
    cache = state.cache
    if cache is None:
        return encode_rect(state, RGB888.pack_array(rgb), encoding)
    key = (encoding, rgb.shape, content_digest(rgb))
    payload = cache.get(key)
    if payload is None:
        packed = RGB888.pack_array(rgb)
        payload = (encode_zrle_tiles(packed) if encoding == ZRLE
                   else encode_rect(state, packed, encoding))
        cache.put(key, payload)
    return state.zrle_payload(payload) if encoding == ZRLE else payload


def _zrle_limit(width: int, height: int) -> int:
    """The longest tile stream a valid width x height ZRLE rect carries:
    every pixel a plain-RLE run of its own, plus each tile's subencoding
    byte and largest palette."""
    tiles = -(-width // _ZRLE_TILE) * -(-height // _ZRLE_TILE)
    return width * height * (_PS + 1) + tiles * (1 + 127 * _PS)


def decode_rect(state: DecoderState, cursor: Cursor, width: int,
                height: int, encoding: int) -> np.ndarray:
    """Decode one rectangle payload into a packed (height, width) array.

    Raises :class:`~repro.uip.wire.NeedMore` if the cursor runs out of
    bytes (the caller tries again with a fuller buffer).  A ZRLE rect is
    inflated once it is whole, so the persistent inflater sees each
    compressed byte once as long as a completed rect is never decoded
    again (:class:`~repro.uip.messages.ServerMessageDecoder`).

    A HEXTILE rect's pixels depend on its size and payload alone (the
    background and foreground reset per rect), so a payload met before
    is served from ``state.cache`` as a read-only array, with no walk
    for subrects and no paint.  Pixels are kept from a payload's second
    sighting on (the first leaves an empty placeholder), so one-off
    rects such as a session's full-frame resync hold none.
    """
    if encoding == RAW:
        return decode_raw(cursor, width, height)
    if encoding == HEXTILE:
        start, end = cursor.pos, _hextile_end(cursor, width, height)
        # a copy: no view may pin the decoder's growing buffer
        key = (width, height, content_digest(cursor.data[start:end]))
        pixels = state.cache.get(key)
        if pixels:
            cursor.pos = end
            return np.frombuffer(pixels, dtype=_PIXEL).reshape(height, width)
        out = decode_hextile(cursor, width, height)
        state.cache.put(key, b"" if pixels is None else out.tobytes())
        return out
    if encoding == ZRLE:
        limit = _zrle_limit(width, height)
        # zlib's compressBound: at zlib's default memLevel, as EncoderState
        # deflates, no sync-flushed deflate of limit bytes is longer
        bound = limit + (limit >> 12) + (limit >> 14) + (limit >> 25) + 13
        length = cursor.u32()
        if length > bound:
            raise ProtocolError(f"ZRLE rect of {length} bytes is longer "
                                f"than any deflate of {limit} bytes")
        data = state.inflate(cursor.take(length), limit)
        return decode_zrle_tiles(data, width, height)
    raise ProtocolError(f"cannot decode encoding {encoding}")
