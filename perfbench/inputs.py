"""Seeded input generators for the benchmark workloads.

Everything here uses NumPy only, so the inputs a seed produces do not
change when the program under test changes. The program receives the
files written here and its command-line arguments, nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Factor panel: d AR(1) factors on sqrt(2) cos(pi i u) curves plus ten
# sine noise curves with weights 2^-(j-1), on a uniform grid over [0, 1].
FACTOR_AR = (-0.65, 0.4)
NOISE_TERMS = 10
BURN_IN = 500

# Tick days: a geometric random walk per day with AR(1) log-volatility
# across days. A day with no tick at or before the session open cannot be
# priced and is skipped by the program under --skip-bad-days.
SESSION_OPEN = 9.5 * 3600.0
SESSION_CLOSE = 16.0 * 3600.0
VOL_PERSISTENCE = 0.8
VOL_INNOVATION_SD = 0.35
DAILY_VOL = 0.01
BASE_PRICE = 100.0

# Singular values below RANK_RTOL times the largest do not count towards
# a panel's numerical rank.
RANK_RTOL = 1e-10


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def factor_panel(seed: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and an n x m panel from the two-factor curve model."""
    rng = _rng(seed, 0)
    u = np.linspace(0.0, 1.0, m)
    factors = np.empty((n, len(FACTOR_AR)))
    for i, a in enumerate(FACTOR_AR):
        x = rng.standard_normal() / np.sqrt(1.0 - a * a)
        shocks = rng.standard_normal(BURN_IN + n)
        path = np.empty(BURN_IN + n)
        for t, e in enumerate(shocks):
            x = a * x + e
            path[t] = x
        factors[:, i] = path[BURN_IN:]
    cosines = np.array([np.sqrt(2.0) * np.cos(np.pi * i * u) for i in range(1, len(FACTOR_AR) + 1)])
    sines = np.array([np.sqrt(2.0) * np.sin(np.pi * j * u) for j in range(1, NOISE_TERMS + 1)])
    weights = 2.0 ** -np.arange(NOISE_TERMS)
    noise = rng.standard_normal((n, NOISE_TERMS)) * weights
    return u, factors @ cosines + noise @ sines


def write_panel_csv(path: Path, grid: np.ndarray, values: np.ndarray) -> None:
    """Grid row, then one curve per row, in round-trip decimal form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(repr(float(x)) for x in grid) + "\n")
        for row in values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def tick_days(seed: int, n_days: int, ticks_per_day: int, bad_days: int):
    """List of (day_id, times, prices); ``bad_days`` of them lack an opening tick."""
    rng = _rng(seed, 1)
    bad = set(rng.choice(n_days, size=bad_days, replace=False).tolist())
    session = SESSION_CLOSE - SESSION_OPEN
    v = rng.standard_normal() * VOL_INNOVATION_SD / np.sqrt(1.0 - VOL_PERSISTENCE**2)
    days = []
    for i in range(n_days):
        v = VOL_PERSISTENCE * v + VOL_INNOVATION_SD * rng.standard_normal()
        sigma = DAILY_VOL * np.exp(v)
        first = rng.uniform(60.0, 1800.0) if i in bad else 0.0
        offsets = np.sort(rng.uniform(first, session, size=ticks_per_day - 1))
        times = SESSION_OPEN + np.concatenate([[first], offsets])
        gaps = np.diff(times, append=SESSION_CLOSE) / session
        steps = rng.standard_normal(ticks_per_day) * sigma * np.sqrt(np.maximum(gaps, 1e-12))
        prices = BASE_PRICE * np.exp(np.cumsum(steps) - steps[0])
        days.append((f"day{i + 1:03d}", times, prices))
    return days


def write_tick_manifest(directory: Path, days) -> Path:
    """One CSV per day plus a JSON manifest listing them in panel order."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for day_id, times, prices in days:
        with open(directory / f"{day_id}.csv", "w", encoding="utf-8") as fh:
            fh.write("epoch_seconds,price\n")
            for t, x in zip(times.tolist(), prices.tolist()):
                fh.write(f"{t!r},{x!r}\n")
        entries.append({"id": day_id, "file": f"{day_id}.csv"})
    manifest = directory / "ticks.json"
    manifest.write_text(json.dumps({"days": entries}, indent=2) + "\n", encoding="utf-8")
    return manifest


def numerical_rank(values: np.ndarray, weights: np.ndarray) -> int:
    """Rank of the quadrature-weighted centered panel."""
    c = (values - values.mean(axis=0)) * np.sqrt(weights)
    s = np.linalg.svd(c, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    w = np.zeros_like(points)
    gaps = np.diff(points)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w
