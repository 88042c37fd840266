"""Tick data to daily return-density curves.

Pipeline per trading day: sample prices at fixed intraday times by the
previous-tick rule, take log returns, and turn them into a density curve
by Gaussian kernel estimation with a Silverman-rule bandwidth (optionally
scaled). Densities are evaluated on a fixed support grid and stacked into
a curve panel for the eigenanalysis front end. The support truncates the
density; no renormalization is applied after truncation.
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
)
from .grids import CurvePanel, Grid, read_float_rows, write_json

DEFAULT_SESSION_OPEN = 9.5 * 3600.0  # 09:30, seconds within the day
DEFAULT_SESSION_CLOSE = 16.0 * 3600.0  # 16:00
DEFAULT_INTERVAL_MINUTES = 5.0  # gives 78 returns per session
DEFAULT_SUPPORT = (-0.002, 0.002)
DEFAULT_GRID_POINTS = 201


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


@dataclass(frozen=True)
class DensityConfig:
    """Sampling session, density support, and smoothing options."""

    session_open: float = DEFAULT_SESSION_OPEN
    session_close: float = DEFAULT_SESSION_CLOSE
    interval_minutes: float = DEFAULT_INTERVAL_MINUTES
    support: tuple[float, float] = DEFAULT_SUPPORT
    bandwidth_multiplier: float = 1.0
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        settings = (
            self.session_open,
            self.session_close,
            self.interval_minutes,
            *self.support,
            self.bandwidth_multiplier,
        )
        if not np.all(np.isfinite(settings)):
            raise ValidationError("density settings must be finite")
        if not self.session_close > self.session_open:
            raise ValidationError("session close must follow session open")
        step = self.interval_minutes * 60.0
        if step <= 0:
            raise ValidationError("interval must be positive")
        count = (self.session_close - self.session_open) / step
        if abs(count - round(count)) > 1e-9 or round(count) < 1:
            raise ValidationError("interval must divide the session length")
        lo, hi = self.support
        if not hi > lo:
            raise ValidationError("support must satisfy lo < hi")
        if self.bandwidth_multiplier <= 0:
            raise ValidationError("bandwidth multiplier must be positive")
        if self.grid_points < 2:
            raise ValidationError("grid needs at least 2 points")

    @property
    def n_returns(self) -> int:
        return int(round((self.session_close - self.session_open) / (self.interval_minutes * 60.0)))

    def sampling_times(self) -> np.ndarray:
        """Session open plus every interval boundary through the close."""
        step = self.interval_minutes * 60.0
        return self.session_open + step * np.arange(self.n_returns + 1)

    def density_grid(self) -> Grid:
        lo, hi = self.support
        return Grid(np.linspace(lo, hi, self.grid_points))


def previous_tick_prices(day: TickDay, cfg: DensityConfig) -> np.ndarray:
    """Price at the latest tick not after each sampling time.

    Ticks sharing a timestamp resolve to the last one recorded. A day
    with no tick at or before the first sampling time cannot be priced.
    """
    taus = cfg.sampling_times()
    idx = np.searchsorted(day.times, taus, side="right") - 1
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
    if multiplier <= 0:
        raise ValidationError("bandwidth multiplier must be positive")
    sigma = float(np.std(z, ddof=1))
    if sigma <= 0.0:
        raise DegenerateSeriesError("returns have zero variance")
    return multiplier * 1.06 * sigma * z.size ** (-0.2)


def kde_curve(returns: np.ndarray, bandwidth: float, grid: Grid) -> np.ndarray:
    """Gaussian kernel density of the returns evaluated on the grid."""
    z = np.asarray(returns, dtype=np.float64)
    if bandwidth <= 0:
        raise ValidationError("bandwidth must be positive")
    u = (z[None, :] - grid.points[:, None]) / bandwidth
    dens = np.exp(-0.5 * u * u).sum(axis=1) / (z.size * bandwidth * np.sqrt(2.0 * np.pi))
    return dens


def day_density(day: TickDay, cfg: DensityConfig, grid: Grid | None = None):
    """One day through the full pipeline; returns (curve, metadata)."""
    grid = grid or cfg.density_grid()
    prices = previous_tick_prices(day, cfg)
    returns = log_returns(prices)
    sigma = float(np.std(returns, ddof=1))
    bandwidth = silverman_bandwidth(returns, cfg.bandwidth_multiplier)
    meta = {
        "day_id": day.day_id,
        "tick_count": int(day.times.size),
        "sigma": sigma,
        "bandwidth": bandwidth,
        "skipped": False,
    }
    return kde_curve(returns, bandwidth, grid), meta


def build_density_panel(
    days: list[TickDay], cfg: DensityConfig, skip_bad_days: bool = False
) -> tuple[CurvePanel, list[dict]]:
    """Stack per-day density curves into a panel, in input order.

    A day failing its preconditions aborts the build with an error naming
    the day unless ``skip_bad_days`` is set, in which case it is recorded
    in the metadata and left out of the panel.
    """
    if len(days) < 2:
        raise ValidationError("need at least 2 days to build a panel")
    grid = cfg.density_grid()
    curves: list[np.ndarray] = []
    metadata: list[dict] = []
    for day in days:
        try:
            curve, meta = day_density(day, cfg, grid)
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
    return CurvePanel(grid=grid, values=np.array(curves)), metadata


def synthetic_tick_days(
    n_days: int,
    seed: int = 0,
    session_open: float = DEFAULT_SESSION_OPEN,
    session_close: float = DEFAULT_SESSION_CLOSE,
    ticks_per_day: int = 2000,
    base_price: float = 100.0,
    daily_vol: float = 0.01,
    vol_persistence: float = 0.8,
    vol_innovation_sd: float = 0.35,
) -> list[TickDay]:
    """Geometric-Brownian tick days with serially dependent daily volatility.

    The log of each day's volatility follows an AR(1) across days, so the
    resulting density curves carry dynamic structure; within a day, prices
    follow a geometric random walk sampled at irregular tick times (with a
    guaranteed tick at the open).
    """
    if n_days < 1 or ticks_per_day < 2:
        raise ValidationError("need n_days >= 1 and ticks_per_day >= 2")
    if abs(vol_persistence) >= 1.0:
        raise ValidationError("volatility persistence must satisfy |a| < 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    session_len = session_close - session_open
    v = rng.standard_normal() * vol_innovation_sd / np.sqrt(1 - vol_persistence**2)
    days: list[TickDay] = []
    for i in range(n_days):
        v = vol_persistence * v + vol_innovation_sd * rng.standard_normal()
        sigma_day = daily_vol * np.exp(v)
        offsets = np.sort(rng.uniform(0.0, session_len, size=ticks_per_day - 1))
        times = session_open + np.concatenate([[0.0], offsets])
        gaps = np.diff(times, append=session_close) / session_len
        steps = rng.standard_normal(ticks_per_day) * sigma_day * np.sqrt(
            np.maximum(gaps, 1e-12)
        )
        prices = base_price * np.exp(np.cumsum(steps) - steps[0])
        days.append(TickDay(day_id=f"day{i + 1:03d}", times=times, prices=prices))
    return days


# File formats: per-day CSV with columns (epoch_seconds, price) and a JSON
# manifest listing day files in panel order.

def write_tick_csv(day: TickDay, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch_seconds,price\n")
        for t, x in zip(day.times, day.prices):
            fh.write(f"{repr(float(t))},{repr(float(x))}\n")


def read_tick_csv(path, day_id: str) -> TickDay:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if "epoch_seconds" not in header:
            raise ParseError(f"{path}: expected header with epoch_seconds,price")
        rows = read_float_rows(fh, path, first_line=2, columns=2)
    times, prices = rows.T.copy()
    try:
        return TickDay(day_id=day_id, times=times, prices=prices)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_tick_manifest(days: list[TickDay], directory, manifest_name="ticks.json") -> Path:
    """Write per-day CSVs plus a manifest into a directory; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for day in days:
        fname = f"{day.day_id}.csv"
        write_tick_csv(day, directory / fname)
        entries.append({"id": day.day_id, "file": fname})
    manifest = directory / manifest_name
    write_json(manifest, {"days": entries})
    return manifest


def read_tick_manifest(path) -> list[TickDay]:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    entries = payload.get("days")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: manifest must list day files under 'days'")
    days = []
    for entry in entries:
        if "id" not in entry or "file" not in entry:
            raise ParseError(f"{path}: each day entry needs 'id' and 'file'")
        days.append(read_tick_csv(path.parent / entry["file"], str(entry["id"])))
    return days


def write_day_metadata_json(metadata: list[dict], path) -> None:
    write_json(path, {"days": metadata})
