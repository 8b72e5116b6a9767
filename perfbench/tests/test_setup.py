"""Set-up is timed cold, in a fresh interpreter."""

import pytest

from perfbench import inproc


def test_cold_setup_reports_seconds():
    seconds = inproc.cold_setup_seconds("lazy-run")
    assert 0 < seconds < inproc.SETUP_TIMEOUT


def test_a_failed_cold_setup_raises():
    with pytest.raises(RuntimeError, match="set-up failed"):
        inproc.cold_setup_seconds("no-such-workload")
