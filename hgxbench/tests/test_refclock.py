import pytest

from hgxbench.refclock import NOMINAL_S, ReferenceKernel, at_reference_speed


def test_scales_by_the_bracketing_reference_times():
    ref = [NOMINAL_S, NOMINAL_S, 3 * NOMINAL_S]
    assert at_reference_speed([0.5, 0.5], ref) == pytest.approx([0.5, 0.25])


def test_needs_one_reference_time_around_each_measurement():
    with pytest.raises(ValueError):
        at_reference_speed([0.5, 0.5], [NOMINAL_S, NOMINAL_S])


def test_reference_kernel_takes_time():
    assert ReferenceKernel().seconds() > 0.0
