"""Temporal analytics: daily series, Fourier periodicity, decomposition.

The daily series and the hour-by-day matrix count datetimes that are
already in the audit timezone: ``pipeline.enrich`` converts each parsed
message's ``received_utc`` once, and these functions take the results.

numpy is imported inside the functions that use it: every stage
process imports this module through the CLI, and only the analysis
needs numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class InsufficientSeriesError(ValueError):
    pass


@dataclass
class DailySeries:
    values: list[float]
    day0: date

    def dates(self) -> list[date]:
        return [self.day0 + timedelta(days=i) for i in range(len(self.values))]


@dataclass(frozen=True)
class SpectrumBin:
    frequency: float      # cycles per day
    magnitude: float
    period_days: float
    is_peak: bool


@dataclass
class Decomposition:
    trend: list[float]     # nan where the centered window is undefined
    seasonal: list[float]
    residual: list[float]  # nan outside the trend's support
    seasonal_variance_share: float


def build_daily_series(stamps: list[datetime]) -> DailySeries:
    """Emails per calendar day of ``stamps``, datetimes in the audit
    timezone, with missing days as explicit zeros."""
    days = [stamp.date() for stamp in stamps]
    day0, day_last = min(days), max(days)
    n = (day_last - day0).days + 1
    values = [0.0] * n
    for d in days:
        values[(d - day0).days] += 1.0
    return DailySeries(values=values, day0=day0)


def spectrum_bins(series: DailySeries, sigma: float = 2.0) -> list[SpectrumBin]:
    """Magnitude spectrum of the mean-removed series, with peak flags.

    Bins k=1..N//2 at frequency k/N cycles/day. A bin is a peak when its
    magnitude exceeds mean + sigma*stddev over all non-DC magnitudes.
    """
    import numpy as np
    n = len(series.values)
    if n < 16:
        raise InsufficientSeriesError(f"need >= 16 days for a spectrum, have {n}")
    x = np.asarray(series.values, dtype=float)
    transform = np.fft.rfft(x - x.mean())
    k_max = n // 2
    magnitudes = np.abs(transform[1:k_max + 1])
    threshold = magnitudes.mean() + sigma * magnitudes.std()
    bins = []
    for i, mag in enumerate(magnitudes, start=1):
        freq = i / n
        bins.append(SpectrumBin(frequency=freq, magnitude=float(mag),
                                period_days=n / i, is_peak=bool(mag > threshold)))
    return bins


def spectrum_peaks(series: DailySeries, sigma: float = 2.0) -> list[SpectrumBin]:
    """Peak bins only, sorted by magnitude descending (frequency tiebreak)."""
    peaks = [b for b in spectrum_bins(series, sigma) if b.is_peak]
    return sorted(peaks, key=lambda b: (-b.magnitude, b.frequency))


def _centered_trend(x: np.ndarray, period: int) -> np.ndarray:
    import numpy as np
    n = len(x)
    if period % 2 == 1:
        weights = np.full(period, 1.0 / period)
    else:
        weights = np.full(period + 1, 1.0 / period)
        weights[0] = weights[-1] = 0.5 / period
    half = len(weights) // 2
    trend = np.full(n, np.nan)
    core = np.convolve(x, weights[::-1], mode="valid")
    trend[half:half + len(core)] = core
    return trend


def decompose_additive(series: DailySeries, period: int = 7) -> Decomposition:
    """Classical additive decomposition with a centered moving-average trend.

    Seasonal indices are per-phase means of the detrended interior,
    re-centered to zero mean; the residual is the exact remainder, so
    trend+seasonal+residual reconstructs the series wherever the trend
    is defined.
    """
    import numpy as np
    n = len(series.values)
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if n < 2 * period:
        raise InsufficientSeriesError(
            f"need >= {2 * period} days for period {period}, have {n}")
    x = np.asarray(series.values, dtype=float)
    trend = _centered_trend(x, period)
    interior = ~np.isnan(trend)
    detrended = x - trend

    phase_means = np.zeros(period)
    phases = np.arange(n) % period
    for phase in range(period):
        mask = interior & (phases == phase)
        phase_means[phase] = detrended[mask].mean() if mask.any() else 0.0
    phase_means -= phase_means.mean()
    seasonal = phase_means[phases]

    residual = np.where(interior, x - trend - seasonal, np.nan)

    var_series = float(np.var(x))
    share = float(np.var(seasonal) / var_series) if var_series > 0 else 0.0
    share = min(max(share, 0.0), 1.0)
    return Decomposition(
        trend=[float(v) for v in trend],
        seasonal=[float(v) for v in seasonal],
        residual=[float(v) for v in residual],
        seasonal_variance_share=share,
    )


def hour_day_matrix(stamps: list[datetime]) -> list[list[int]]:
    """7x24 counts of ``stamps``, datetimes in the audit timezone, by
    (day-of-week 0=Monday, hour)."""
    matrix = [[0] * 24 for _ in range(7)]
    for stamp in stamps:
        matrix[stamp.weekday()][stamp.hour] += 1
    return matrix
