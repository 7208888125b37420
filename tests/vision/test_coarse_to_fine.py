"""Coarse-to-fine LSD oracle: the pre-screen must be output-invisible.

The coarse support screen (``_coarse_support_screen``) erases only
support provably unable to seed a surviving segment, so
``prescreen=True`` must reproduce the unscreened detector's segments
*bit for bit* — on structured scenes, noise speckle and rendered frames
alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vision.lsd import detect_line_segments


def _structured_image(size: int = 96) -> np.ndarray:
    """Bars and a diagonal over mild noise: plenty of survivable lines."""
    rng = np.random.default_rng(3)
    yy, xx = np.mgrid[0:size, 0:size]
    image = 0.4 + 0.04 * rng.standard_normal((size, size))
    image[20:24, 8:88] = 0.95
    image[30:80, 50:53] = 0.05
    image[(yy + xx > 150) & (yy + xx < 154)] = 0.9
    return np.clip(image, 0.0, 1.0)


def _speckle_image(size: int = 96) -> np.ndarray:
    """Pure noise speckle: the screen's best case, many doomed islands."""
    rng = np.random.default_rng(11)
    return np.clip(0.5 + 0.3 * rng.standard_normal((size, size)), 0.0, 1.0)


def _assert_identical(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert (sa.x1, sa.y1, sa.x2, sa.y2, sa.strength) == (
            sb.x1, sb.y1, sb.x2, sb.y2, sb.strength
        )


class TestCoarsePrescreenOracle:
    @pytest.mark.parametrize(
        "image_fn", [_structured_image, _speckle_image],
        ids=["structured", "speckle"],
    )
    def test_default_mode_bit_identical(self, image_fn):
        image = image_fn()
        screened = detect_line_segments(image, prescreen=True)
        oracle = detect_line_segments(image, prescreen=False)
        _assert_identical(screened, oracle)

    def test_rendered_frame_bit_identical(self, sws_session):
        """The real pipeline input, not just synthetic rasters."""
        image = sws_session.frames[0].pixels
        _assert_identical(
            detect_line_segments(image, prescreen=True),
            detect_line_segments(image, prescreen=False),
        )

    def test_blank_image_yields_nothing(self):
        assert detect_line_segments(np.full((64, 64), 0.5)) == []
