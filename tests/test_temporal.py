"""Daily series, Fourier peak detection, and additive decomposition."""

import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inboxaudit.authlineage import ServiceOrgMap
from inboxaudit.classify.adapter import classify_records
from inboxaudit.corpus.eml import PARSE_OK, UNMATCHED, EmailRecord
from inboxaudit.corpus.store import CorpusStore
from inboxaudit.netintel import AsnTable
from inboxaudit.pipeline import enrich
from inboxaudit.temporal import (DailySeries, InsufficientSeriesError,
                                 build_daily_series, decompose_additive,
                                 hour_day_matrix, spectrum_bins,
                                 spectrum_peaks)


def reconstruction_errors(series, dec):
    """|observed − (trend+seasonal+residual)| at interior points."""
    errors = []
    for value, t, s, r in zip(series.values, dec.trend, dec.seasonal, dec.residual):
        if not math.isnan(t):
            errors.append(abs(value - (t + s + r)))
    return errors


def stamp(day, hour=12):
    return datetime(2024, 1, 1, hour) + timedelta(days=day)  # day 0 a Monday


def test_daily_series_fills_gaps():
    series = build_daily_series([stamp(0), stamp(3), stamp(3)])
    assert series.values == [1.0, 0.0, 0.0, 2.0]
    assert series.day0 == datetime(2024, 1, 1).date()
    assert series.dates()[-1] == datetime(2024, 1, 4).date()


def test_spectrum_needs_sixteen_days():
    series = DailySeries(values=[1.0] * 15, day0=datetime(2024, 1, 1).date())
    with pytest.raises(InsufficientSeriesError):
        spectrum_bins(series)


def test_planted_weekly_peak():
    n = 140
    t = np.arange(n)
    rng = np.random.default_rng(7)
    x = 10 + 5 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 0.1, n)
    series = DailySeries(values=list(x), day0=datetime(2024, 1, 1).date())
    peaks = spectrum_peaks(series, sigma=2.0)
    assert peaks, "weekly signal must produce a peak"
    top = peaks[0]
    assert top.frequency == pytest.approx(1 / 7)
    assert top.period_days == pytest.approx(7.0)
    assert top.is_peak
    bins = spectrum_bins(series)
    assert len(bins) == n // 2
    assert max(bins, key=lambda b: b.magnitude).frequency == top.frequency


def test_peak_threshold_monotone_in_sigma():
    rng = np.random.default_rng(11)
    x = 4 + 2 * np.cos(2 * np.pi * np.arange(90) / 7) + rng.normal(0, 0.5, 90)
    series = DailySeries(values=list(x), day0=datetime(2024, 1, 1).date())
    loose = {b.frequency for b in spectrum_peaks(series, sigma=1.0)}
    tight = {b.frequency for b in spectrum_peaks(series, sigma=3.0)}
    assert tight <= loose


def test_spectrum_matches_direct_dft():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 12, 24)
    series = DailySeries(values=list(x), day0=datetime(2024, 1, 1).date())
    bins = spectrum_bins(series)
    centered = x - x.mean()
    n = len(x)
    for k, b in enumerate(bins, start=1):
        terms = centered * np.exp(-2j * np.pi * k * np.arange(n) / n)
        assert b.magnitude == pytest.approx(abs(terms.sum()), rel=1e-9)
        assert b.frequency == pytest.approx(k / n)
        assert b.period_days == pytest.approx(n / k)


def test_decomposition_interior_identity():
    rng = np.random.default_rng(5)
    x = 20 + 0.1 * np.arange(60) + rng.normal(0, 2, 60)
    series = DailySeries(values=list(x), day0=datetime(2024, 1, 1).date())
    dec = decompose_additive(series, period=7)
    errors = reconstruction_errors(series, dec)
    assert errors and max(errors) < 1e-9
    # seasonal repeats with the period and is mean-zero over one cycle
    for i in range(len(x) - 7):
        assert dec.seasonal[i] == pytest.approx(dec.seasonal[i + 7])
    assert sum(dec.seasonal[:7]) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("period", [7, 4])
def test_centered_trend_matches_bruteforce(period):
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 10, 40)
    series = DailySeries(values=list(x), day0=datetime(2024, 1, 1).date())
    dec = decompose_additive(series, period=period)
    if period % 2 == 1:
        half = period // 2
        window = lambda i: x[i - half:i + half + 1].mean()
    else:
        half = period // 2
        window = lambda i: (x[i - half] / 2 + x[i - half + 1:i + half].sum()
                            + x[i + half] / 2) / period
    for i in range(len(x)):
        if i < half or i >= len(x) - half:
            assert math.isnan(dec.trend[i])
            assert math.isnan(dec.residual[i])
        else:
            assert dec.trend[i] == pytest.approx(window(i), rel=1e-12)


def test_pure_seasonal_dominates_variance():
    pattern = [0.0, 5.0, 0.0, -5.0, 0.0, 3.0, -3.0]
    series = DailySeries(values=pattern * 10, day0=datetime(2024, 1, 1).date())
    dec = decompose_additive(series, period=7)
    assert dec.seasonal_variance_share > 0.99


def test_pure_trend_has_no_seasonal_share():
    series = DailySeries(values=list(np.linspace(0, 10, 70)),
                         day0=datetime(2024, 1, 1).date())
    dec = decompose_additive(series, period=7)
    assert dec.seasonal_variance_share < 0.01


def test_decomposition_guards():
    series = DailySeries(values=[1.0] * 10, day0=datetime(2024, 1, 1).date())
    with pytest.raises(ValueError):
        decompose_additive(series, period=1)
    with pytest.raises(InsufficientSeriesError):
        decompose_additive(series, period=7)


@given(st.lists(st.floats(min_value=0, max_value=50), min_size=20, max_size=80))
def test_variance_share_bounded(values):
    series = DailySeries(values=values, day0=datetime(2024, 1, 1).date())
    dec = decompose_additive(series, period=7)
    assert 0.0 <= dec.seasonal_variance_share <= 1.0
    errors = reconstruction_errors(series, dec)
    assert all(e < 1e-9 for e in errors)


def test_hour_day_matrix_counts():
    matrix = hour_day_matrix([stamp(0, hour=9), stamp(7, hour=9),
                              stamp(6, hour=23)])
    assert matrix[0][9] == 2          # both Mondays, 09:00
    assert matrix[6][23] == 1         # the Sunday
    assert sum(sum(row) for row in matrix) == 3
    assert len(matrix) == 7 and all(len(row) == 24 for row in matrix)


def test_enrich_localises_across_us_dst_change():
    """The 2024 US switch to daylight time came at 07:00 UTC on Sunday
    10 March: one message before it (EST, -05:00), one after (EDT, -04:00).
    Both fall on that Sunday in New York; in UTC they are a day apart."""
    def record(message_id, utc):
        return EmailRecord(
            message_id=message_id, alias=UNMATCHED, from_address="",
            from_root_domain="", received_utc=utc, sender_ip="UNKNOWN",
            spf="none", dkim="none", subject="", body_text="",
            parse_status=PARSE_OK)

    store = CorpusStore.from_records([
        record("before", datetime(2024, 3, 10, 6, 30, tzinfo=timezone.utc)),
        record("after", datetime(2024, 3, 11, 3, 30, tzinfo=timezone.utc))])

    def stamps(zone):
        rows = enrich(store, AsnTable(), [], [], ServiceOrgMap(),
                      classify_records(store.records, "rules"),
                      audit_timezone=zone)
        return [row.local for row in rows]

    local = stamps("America/New_York")
    assert [t.isoformat() for t in local] == [
        "2024-03-10T01:30:00-05:00", "2024-03-10T23:30:00-04:00"]
    matrix = hour_day_matrix(local)
    assert matrix[6][1] == matrix[6][23] == 1   # Sunday 01:00 and 23:00
    assert sum(map(sum, matrix)) == 2
    series = build_daily_series(local)
    assert (series.day0, series.values) == (date(2024, 3, 10), [2.0])

    utc = stamps("UTC")
    assert hour_day_matrix(utc)[6][6] == hour_day_matrix(utc)[0][3] == 1
    assert build_daily_series(utc).values == [1.0, 1.0]
