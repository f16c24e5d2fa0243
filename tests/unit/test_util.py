"""Unit tests for ids, guids and small graphics utilities."""

import pytest

from repro.graphics import default_font
from repro.util import guid_from_seed


class TestGuids:
    def test_deterministic(self):
        assert guid_from_seed("TV/1") == guid_from_seed("TV/1")

    def test_distinct_seeds_distinct_guids(self):
        assert guid_from_seed("TV/1") != guid_from_seed("TV/2")

    def test_length(self):
        assert len(guid_from_seed("x")) == 16
        assert len(guid_from_seed("x", length=8)) == 8

    def test_hex_charset(self):
        assert all(c in "0123456789abcdef" for c in guid_from_seed("y"))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            guid_from_seed("x", length=0)
        with pytest.raises(ValueError):
            guid_from_seed("x", length=100)


class TestFontRender:
    def test_render_produces_exact_size(self):
        font = default_font(2)
        image = font.render("OK", (255, 255, 255))
        assert image.size == font.measure("OK")

    def test_empty_string_has_min_width(self):
        image = default_font(1).render("", (0, 0, 0))
        assert image.width == 1
