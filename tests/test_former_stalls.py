"""Scale-corpus operations that used to hang, each under a 30 s deadline.

While normal_closure kept every fresh conjugate as a generator, the series
of ASL(2,3) and of C2 wr S4 and the derived criterion of AGL(2,3) ran for
minutes.  The expected values are those of bench/expected_stalls.json,
computed there by plain element closures.
"""

from __future__ import annotations

import signal
from pathlib import Path

import pytest

from nilcrit.corpus import load_group
from nilcrit.criterion import derived_nilpotency_check
from nilcrit.structure import derived_series, lower_central_series, lower_fitting_series

from conftest import deadline

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"


@pytest.mark.usefixtures("stall_deadline")
class TestFormerStalls:
    @pytest.mark.parametrize("name, order, derived, lower_central, lower_fitting, height", [
        ("ASL2_3", 216, (216, 72, 18, 9, 1), (216, 72, 72), (216, 72, 9, 1), 3),
        ("C2wrS4", 384, (384, 96, 32, 2, 1), (384, 96, 96), (384, 96, 32, 1), 3),
    ])
    def test_series_profiles(self, name, order, derived, lower_central, lower_fitting, height):
        G = load_group(str(CORPUS / f"{name}.grp"))
        assert G.order() == order
        assert derived_series(G).orders == derived
        assert lower_central_series(G).orders == lower_central
        assert lower_fitting_series(G).orders == lower_fitting
        assert lower_fitting_series(G).fitting_height == height

    def test_agl2_3_derived_criterion(self):
        G = load_group(str(CORPUS / "AGL2_3.grp"))
        got = []
        for k in (1, 2, 3):
            chk = derived_nilpotency_check(G, k)
            got.append((k, chk.criterion.holds, chk.criterion.value_count,
                        chk.subgroup_order, chk.subgroup_nilpotent, chk.consistent))
        assert got == [(1, False, 216, 216, False, True),
                       (2, False, 72, 72, False, True),
                       (3, False, 18, 18, False, True)]


def test_deadline_interrupts_and_restores_the_previous_timer():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    signal.setitimer(signal.ITIMER_REAL, 100)
    try:
        with pytest.raises(TimeoutError):
            with deadline(0.05):
                while True:
                    pass
        assert signal.getsignal(signal.SIGALRM) is previous
        delay, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 99 < delay < 100
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
