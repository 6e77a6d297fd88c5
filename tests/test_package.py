"""The package's public surface."""

from __future__ import annotations

import riskfilter


def test_every_export_resolves():
    missing = [name for name in riskfilter.__all__ if not hasattr(riskfilter, name)]
    assert missing == []
