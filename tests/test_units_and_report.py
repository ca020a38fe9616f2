"""Tests for the utility layers: units, report rendering, sweeps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import band_str, in_band, render_table
from repro.core.sweep import message_size_sweep
from repro.units import (
    GB,
    GiB,
    KiB,
    MB,
    MiB,
    NS,
    US,
    fmt_rate,
    fmt_size,
    fmt_time,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("8K", 8192),
            ("8KiB", 8192),
            ("4 MB", 4_000_000),
            ("4MiB", 4 * 1024 * 1024),
            ("1.5GiB", int(1.5 * GiB)),
            ("256", 256),
            (1024, 1024),
            (3.7, 4),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size("MB")
        with pytest.raises(ValueError):
            parse_size("12 parsecs")

    def test_fmt_size(self):
        assert fmt_size(4 * MiB) == "4MiB"
        assert fmt_size(512) == "512B"
        assert fmt_size(3 * GiB) == "3GiB"

    def test_fmt_time(self):
        assert fmt_time(3.3 * US) == "3.3us"
        assert fmt_time(81 * NS) == "81ns"
        assert fmt_time(2.5) == "2.5s"

    def test_fmt_rate(self):
        assert fmt_rate(6.4 * GB) == "6.4GB/s"
        assert fmt_rate(455 * MB) == "455MB/s"

    @given(st.integers(min_value=0, max_value=1 << 50))
    @settings(max_examples=50, deadline=None)
    def test_parse_roundtrips_integers(self, n):
        assert parse_size(n) == n


class TestReport:
    def test_render_table_aligns_columns(self):
        out = render_table(("a", "bb"), [(1, 2.5), ("xxx", "y")])
        lines = out.splitlines()
        assert len({len(l) for l in lines if l}) == 1  # uniform width

    def test_render_table_with_title(self):
        out = render_table(("x",), [(1,)], title="T")
        assert out.startswith("T\n=")

    def test_floats_get_4_significant_digits(self):
        out = render_table(("v",), [(3.14159265,)])
        assert "3.142" in out

    def test_in_band_with_slack(self):
        assert in_band(1.0, 1.1, 2.0)  # 15 % slack at the low edge
        assert not in_band(0.5, 1.1, 2.0)
        assert in_band(2.2, 1.1, 2.0)
        assert not in_band(2.5, 1.1, 2.0)

    def test_band_str(self):
        assert band_str(1.3, 3.5) == "1.3..3.5"


class TestSweep:
    def test_message_size_sweep_powers_of_two(self):
        sizes = message_size_sweep(1, 1024)
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
