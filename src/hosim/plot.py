"""Line charts for ``hosim plot``, drawn with numpy and encoded as PNG
with the standard library alone.

A chart is an RGB ``uint8`` array: one panel per quantity, each with an
axes box and one coloured polyline per series (policy or seed). No text
is drawn. The axis names, the data range at each edge of the axes box
and the series-to-colour legend travel as PNG ``tEXt`` chunks instead,
and ``hosim plot`` prints the same labels.

The encoder writes no timestamps or other run-dependent metadata, so the
same CSV always yields the same bytes.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib

import numpy as np

from . import metrics

PANEL_WIDTH = 480
PANEL_HEIGHT = 360
MARGIN = 30
LINE_RADIUS = 1
MARKER_RADIUS = 3
BACKGROUND = (255, 255, 255)
AXIS_COLOUR = (0, 0, 0)
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _rgb(hex_colour: str) -> tuple:
    return tuple(int(hex_colour[i:i + 2], 16) for i in (1, 3, 5))


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    """Data range with a 5% margin on each side; a single value is
    centred in a range of +-5% of its magnitude (or +-0.05 at zero), so
    the scaling never divides by zero.  The span is taken between the
    halved ends and the padded ends are clamped to the largest float, so
    any finite data, however far apart, gives a finite range."""
    lo, hi = float(values.min()), float(values.max())
    pad = 0.1 * (hi / 2 - lo / 2) or 0.05 * max(abs(lo), 1.0)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def _fraction(values: np.ndarray, axis_range: tuple[float, float]) -> np.ndarray:
    """Position of each value along ``axis_range``, 0 at its low end and 1
    at its high end; halved before subtracting, so it cannot overflow."""
    lo, hi = axis_range
    return (values / 2 - lo / 2) / (hi / 2 - lo / 2)


def _polyline(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer pixel coordinates along the segments joining successive
    points, at least one sample per pixel step."""
    xs, ys = [px[:1]], [py[:1]]
    for x0, y0, x1, y1 in zip(px[:-1], py[:-1], px[1:], py[1:]):
        n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
        xs.append(np.linspace(x0, x1, n + 1)[1:])
        ys.append(np.linspace(y0, y1, n + 1)[1:])
    return np.rint(np.concatenate(xs)).astype(int), np.rint(np.concatenate(ys)).astype(int)


def _stamp(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray, colour, radius: int) -> None:
    """Fill a (2*radius+1)-pixel square centred on each (x, y)."""
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            pixels[ys + dy, xs + dx] = colour


def _panel(series, width: int, height: int, markers: bool):
    """Draw ``series`` -- (xs, ys, colour) triples -- into a fresh panel.

    Returns the pixels and the x and y data ranges at the edges of the
    axes box.
    """
    pixels = np.full((height, width, 3), BACKGROUND, np.uint8)
    left, right, top, bottom = MARGIN, width - 1 - MARGIN, MARGIN, height - 1 - MARGIN
    pixels[[top, bottom], left:right + 1] = AXIS_COLOUR
    pixels[top:bottom + 1, [left, right]] = AXIS_COLOUR
    x_range = _axis_range(np.concatenate([s[0] for s in series]))
    y_range = _axis_range(np.concatenate([s[1] for s in series]))
    for xs, ys, colour in series:
        px = left + _fraction(xs, x_range) * (right - left)
        py = bottom - _fraction(ys, y_range) * (bottom - top)
        _stamp(pixels, *_polyline(px, py), colour, LINE_RADIUS)
        if markers:
            _stamp(pixels, np.rint(px).astype(int), np.rint(py).astype(int), colour, MARKER_RADIUS)
    return pixels, x_range, y_range


def _axes_label(x_name: str, x_range, y_name: str, y_range) -> str:
    return (f"x {x_name} {x_range[0]:.6g}..{x_range[1]:.6g}; "
            f"y {y_name} {y_range[0]:.6g}..{y_range[1]:.6g}")


def _legend(names) -> str:
    return ", ".join(f"{name} {PALETTE[i % len(PALETTE)]}" for i, name in enumerate(names))


# column -> parse type of the values each chart reads
SWEEP_COLUMNS = {"policy": str, "speed_kmh": float, "mean_throughput_mbps": float, "plr": float}
CONVERGENCE_COLUMNS = {"seed": int, "timestamp_s": float, "avg_plr": float}
_EXPECTED = {str: "a value", int: "an integer", float: "a finite number"}


def parse_rows(rows, columns) -> list[dict]:
    """``rows`` with each of ``columns`` parsed to its type.  A missing
    value, one that does not parse, or a float that is not finite raises
    ValueError naming its row (the first below the header is row 1) and
    column."""
    parsed = []
    for n, row in enumerate(rows, 1):
        parsed.append({})
        for column, kind in columns.items():
            raw = row[column]
            try:
                value = kind(raw)
                if raw is None or (kind is float and not math.isfinite(value)):
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"row {n}, column {column}: {raw!r} is not {_EXPECTED[kind]}") from None
            parsed[-1][column] = value
    return parsed


def sweep_chart(rows) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """Two panels from parsed ``sweep.csv`` rows: mean throughput (left)
    and packet loss rate (right) against UE speed, one line per policy,
    each point the mean over that (policy, speed)'s seeds."""
    policies = sorted(set(r["policy"] for r in rows))
    tput_series, plr_series = [], []
    for i, policy in enumerate(policies):
        colour = _rgb(PALETTE[i % len(PALETTE)])
        own = [r for r in rows if r["policy"] == policy]
        speeds = sorted(set(r["speed_kmh"] for r in own))
        groups = [[r for r in own if r["speed_kmh"] == v] for v in speeds]
        tput = [metrics.mean(r["mean_throughput_mbps"] for r in group) for group in groups]
        plr = [metrics.mean(r["plr"] for r in group) for group in groups]
        tput_series.append((np.array(speeds), np.array(tput), colour))
        plr_series.append((np.array(speeds), np.array(plr), colour))
    left, lx, ly = _panel(tput_series, PANEL_WIDTH, PANEL_HEIGHT, markers=True)
    right, rx, ry = _panel(plr_series, PANEL_WIDTH, PANEL_HEIGHT, markers=True)
    labels = [
        ("Title", "hosim sweep: throughput and packet loss rate against UE speed"),
        ("left panel", _axes_label("speed (km/h)", lx, "mean throughput (Mbps)", ly)),
        ("right panel", _axes_label("speed (km/h)", rx, "packet loss rate", ry)),
        ("legend", _legend(policies)),
    ]
    return np.hstack([left, right]), labels


def convergence_chart(rows) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """One wide panel from parsed ``convergence.csv`` rows: average
    packet loss rate against time, one line per seed."""
    seeds = sorted(set(r["seed"] for r in rows))
    series = []
    for i, seed in enumerate(seeds):
        pts = sorted((r["timestamp_s"], r["avg_plr"]) for r in rows if r["seed"] == seed)
        series.append((np.array([p[0] for p in pts]), np.array([p[1] for p in pts]),
                       _rgb(PALETTE[i % len(PALETTE)])))
    pixels, x_range, y_range = _panel(series, 2 * PANEL_WIDTH, PANEL_HEIGHT, markers=False)
    labels = [
        ("Title", "hosim convergence: average packet loss rate against time"),
        ("axes", _axes_label("time (s)", x_range, "average packet loss rate", y_range)),
        ("legend", _legend(f"seed {seed}" for seed in seeds)),
    ]
    return pixels, labels


def _chunk(kind: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))


def encode_png(pixels: np.ndarray, labels) -> bytes:
    """Encode an (height, width, 3) ``uint8`` array as an 8-bit RGB PNG,
    with one ``tEXt`` chunk per (keyword, text) label."""
    height, width, _ = pixels.shape
    scanlines = np.zeros((height, 1 + 3 * width), np.uint8)  # filter byte 0 (None) per row
    scanlines[:, 1:] = pixels.reshape(height, 3 * width)
    text = b"".join(
        _chunk(b"tEXt", key.encode("latin-1", "replace") + b"\0" + value.encode("latin-1", "replace"))
        for key, value in labels
    )
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
        + text
        + _chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 9))
        + _chunk(b"IEND", b"")
    )
