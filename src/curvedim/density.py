"""Tick data to daily return-density curves.

The design is fixed: every day is sampled at 5-minute steps over the
09:30-16:00 session (``SESSION_OPEN`` to ``SESSION_CLOSE`` in seconds
within the day, ``INTERVAL_MINUTES``), which gives 79 sampling times and
78 log returns. Each sampled price is the one of the latest tick not
after its sampling time. The returns become a density curve by Gaussian
kernel estimation with a Silverman-rule bandwidth, scaled by the one
setting, the bandwidth multiplier. Densities are evaluated at
``GRID_POINTS`` = 201 equally spaced points of ``SUPPORT`` =
[-0.002, 0.002] and stacked into a curve panel for the eigenanalysis
front end. The support truncates the density; no renormalization is
applied after truncation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DayProcessingError,
    DegenerateSeriesError,
    DomainError,
    CurveDimError,
    MissingOpeningTickError,
    ParseError,
    ValidationError,
    check_positive_finite,
)
from .grids import CurvePanel, Grid, read_float_rows, write_json

SESSION_OPEN = 9.5 * 3600.0  # 09:30, seconds within the day
SESSION_CLOSE = 16.0 * 3600.0  # 16:00
INTERVAL_MINUTES = 5.0  # gives 78 returns per session
SUPPORT = (-0.002, 0.002)
GRID_POINTS = 201
# The fixed design values a density command records in its manifest.
DESIGN = {
    "interval_minutes": INTERVAL_MINUTES,
    "session": [SESSION_OPEN, SESSION_CLOSE],
    "support": list(SUPPORT),
    "grid_points": GRID_POINTS,
}

# 09:30, 09:35, ..., 16:00
SAMPLING_TIMES = SESSION_OPEN + INTERVAL_MINUTES * 60.0 * np.arange(79)
SAMPLING_TIMES.setflags(write=False)
DENSITY_GRID = Grid(np.linspace(SUPPORT[0], SUPPORT[1], GRID_POINTS))

@dataclass(frozen=True)
class TickDay:
    """One day of (timestamp, price) ticks, time-ordered."""

    day_id: str
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        x = np.asarray(self.prices, dtype=np.float64)
        if t.ndim != 1 or x.shape != t.shape or t.size == 0:
            raise ValidationError(f"day {self.day_id}: ticks must be parallel 1-d arrays")
        if np.any(np.diff(t) < 0):
            raise ValidationError(f"day {self.day_id}: tick timestamps must be nondecreasing")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(x)):
            raise ValidationError(f"day {self.day_id}: ticks must be finite")
        if np.any(x <= 0):
            raise ValidationError(f"day {self.day_id}: prices must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "prices", x)


def previous_tick_prices(day: TickDay) -> np.ndarray:
    """Price at the latest tick not after each of the ``SAMPLING_TIMES``.

    Ticks sharing a timestamp resolve to the last one recorded. A day
    with no tick at or before the session open cannot be priced.
    """
    idx = np.searchsorted(day.times, SAMPLING_TIMES, side="right") - 1
    if idx[0] < 0:
        raise MissingOpeningTickError(
            f"day {day.day_id}: no tick at or before the first sampling time"
        )
    return day.prices[idx]


def log_returns(prices: np.ndarray) -> np.ndarray:
    """Log ratios of consecutive sampled prices."""
    x = np.asarray(prices, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("need at least 2 sampled prices")
    if np.any(x <= 0):
        raise DomainError("prices must be positive to take log returns")
    return np.diff(np.log(x))


def silverman_bandwidth(returns: np.ndarray, multiplier: float = 1.0) -> float:
    """Rule-of-thumb bandwidth 1.06 sigma m^(-1/5), scaled by the multiplier."""
    z = np.asarray(returns, dtype=np.float64)
    if z.size < 2:
        raise ValidationError("need at least 2 returns for a bandwidth")
    check_positive_finite("bandwidth multiplier", multiplier)
    sigma = float(np.std(z, ddof=1))
    if sigma <= 0.0:
        raise DegenerateSeriesError("returns have zero variance")
    return multiplier * 1.06 * sigma * z.size ** (-0.2)


def kde_curve(returns: np.ndarray, bandwidth: float, grid: Grid) -> np.ndarray:
    """Gaussian kernel density of the returns evaluated on the grid."""
    z = np.asarray(returns, dtype=np.float64)
    check_positive_finite("bandwidth", bandwidth)
    u = (z[None, :] - grid.points[:, None]) / bandwidth
    dens = np.exp(-0.5 * u * u).sum(axis=1) / (z.size * bandwidth * np.sqrt(2.0 * np.pi))
    return dens


def day_density(day: TickDay, multiplier: float):
    """One day through the full pipeline; returns (curve, metadata)."""
    returns = log_returns(previous_tick_prices(day))
    sigma = float(np.std(returns, ddof=1))
    bandwidth = silverman_bandwidth(returns, multiplier)
    meta = {
        "day_id": day.day_id,
        "tick_count": int(day.times.size),
        "sigma": sigma,
        "bandwidth": bandwidth,
        "skipped": False,
    }
    return kde_curve(returns, bandwidth, DENSITY_GRID), meta


def build_density_panel(
    days: list[TickDay], multiplier: float = 1.0, skip_bad_days: bool = False
) -> tuple[CurvePanel, list[dict]]:
    """Stack per-day density curves into a panel, in input order.

    ``multiplier`` scales every day's Silverman bandwidth; a value that
    is not positive and finite is rejected before any day is processed.
    A day failing its preconditions aborts the build with an error naming
    the day unless ``skip_bad_days`` is set, in which case it is recorded
    in the metadata and left out of the panel.
    """
    # Checked here as well as per day: under skip_bad_days a per-day error
    # would skip every day rather than reject the call.
    check_positive_finite("bandwidth multiplier", multiplier)
    if len(days) < 2:
        raise ValidationError("need at least 2 days to build a panel")
    curves: list[np.ndarray] = []
    metadata: list[dict] = []
    for day in days:
        try:
            curve, meta = day_density(day, multiplier)
        except CurveDimError as exc:
            if not skip_bad_days:
                raise DayProcessingError(day.day_id, exc) from exc
            metadata.append(
                {
                    "day_id": day.day_id,
                    "tick_count": int(day.times.size),
                    "skipped": True,
                    "error": {"kind": exc.kind, "message": str(exc)},
                }
            )
            continue
        curves.append(curve)
        metadata.append(meta)
    if len(curves) < 2:
        raise ValidationError("fewer than 2 days survived the pipeline")
    return CurvePanel(grid=DENSITY_GRID, values=np.array(curves)), metadata


# File formats: per-day CSV with columns (epoch_seconds, price) and a JSON
# manifest listing day files in panel order.

def read_tick_csv(path, day_id: str) -> TickDay:
    with open(path, "r", encoding="utf-8") as fh:
        header = [field.strip() for field in fh.readline().split(",")]
        if header != ["epoch_seconds", "price"]:
            raise ParseError(f"{path}: expected header epoch_seconds,price")
        rows = read_float_rows(fh, path, first_line=2, columns=2)
    times, prices = rows.T.copy()
    try:
        return TickDay(day_id=day_id, times=times, prices=prices)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_tick_manifest(path) -> list[TickDay]:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    entries = payload.get("days") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: manifest must be an object listing day files under 'days'")
    days = []
    for entry in entries:
        day_id = entry.get("id") if isinstance(entry, dict) else None
        if not (
            isinstance(day_id, (str, int))
            and not isinstance(day_id, bool)
            and isinstance(entry.get("file"), str)
        ):
            raise ParseError(
                f"{path}: each day entry needs a string or integer 'id' and a string 'file'"
            )
        days.append(read_tick_csv(path.parent / entry["file"], str(day_id)))
    return days


def write_day_metadata_json(metadata: list[dict], path) -> None:
    write_json(path, {"days": metadata})
