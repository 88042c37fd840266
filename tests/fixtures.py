"""Synthetic tick days for the tests and the CI smoke run.

``synthetic_tick_days`` draws days in the ``curvedim.density`` format and
``write_tick_manifest`` writes them as the per-day CSVs plus ``ticks.json``
manifest that ``density.read_tick_manifest`` reads. The commands only read
ticks, so the generator and its writers live here, not in the package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from curvedim.density import SESSION_CLOSE, SESSION_OPEN, TickDay
from curvedim.errors import ValidationError
from curvedim.grids import write_csv_rows, write_json

# Fixed design of ``synthetic_tick_days``.
TICK_BASE_PRICE = 100.0
TICK_DAILY_VOL = 0.01
TICK_VOL_PERSISTENCE = 0.8
TICK_VOL_INNOVATION_SD = 0.35


def synthetic_tick_days(
    n_days: int, seed: int = 0, ticks_per_day: int = 2000
) -> list[TickDay]:
    """Geometric-Brownian tick days with serially dependent daily volatility.

    The log of each day's volatility follows an AR(1) across days
    (coefficient ``TICK_VOL_PERSISTENCE`` = 0.8, innovation sd
    ``TICK_VOL_INNOVATION_SD`` = 0.35, scaling ``TICK_DAILY_VOL`` = 1%),
    so the resulting density curves carry dynamic structure; within a
    day, prices start at ``TICK_BASE_PRICE`` = 100.0 and follow a
    geometric random walk sampled at irregular tick times over the
    fixed 09:30-16:00 session (with a guaranteed tick at the open).
    """
    if n_days < 1 or ticks_per_day < 2:
        raise ValidationError("need n_days >= 1 and ticks_per_day >= 2")
    if seed < 0:  # SeedSequence takes non-negative entropy only
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    session_len = SESSION_CLOSE - SESSION_OPEN
    v = rng.standard_normal() * TICK_VOL_INNOVATION_SD / np.sqrt(1 - TICK_VOL_PERSISTENCE**2)
    days: list[TickDay] = []
    for i in range(n_days):
        v = TICK_VOL_PERSISTENCE * v + TICK_VOL_INNOVATION_SD * rng.standard_normal()
        sigma_day = TICK_DAILY_VOL * np.exp(v)
        offsets = np.sort(rng.uniform(0.0, session_len, size=ticks_per_day - 1))
        times = SESSION_OPEN + np.concatenate([[0.0], offsets])
        gaps = np.diff(times, append=SESSION_CLOSE) / session_len
        steps = rng.standard_normal(ticks_per_day) * sigma_day * np.sqrt(
            np.maximum(gaps, 1e-12)
        )
        prices = TICK_BASE_PRICE * np.exp(np.cumsum(steps) - steps[0])
        days.append(TickDay(day_id=f"day{i + 1:03d}", times=times, prices=prices))
    return days


def write_tick_csv(day: TickDay, path) -> None:
    rows = np.column_stack([day.times, day.prices])
    write_csv_rows(path, rows, ["epoch_seconds", "price"])


def write_tick_manifest(days: list[TickDay], directory) -> Path:
    """Write per-day CSVs plus a ``ticks.json`` manifest into a directory;
    returns the manifest's path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for day in days:
        fname = f"{day.day_id}.csv"
        write_tick_csv(day, directory / fname)
        entries.append({"id": day.day_id, "file": fname})
    manifest = directory / "ticks.json"
    write_json(manifest, {"days": entries})
    return manifest
