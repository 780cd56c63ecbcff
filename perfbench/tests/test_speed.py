"""Slowdown against the nominal reference times."""

import pytest

import speed


def _nominal(factor=1.0):
    return {name: factor * nominal for name, (_work, nominal) in speed.COMPONENTS.items()}


def test_slowdown_is_the_mean_ratio_to_nominal():
    assert speed.slowdown(_nominal(), _nominal()) == pytest.approx(1.0)
    assert speed.slowdown(_nominal(2.0), _nominal(2.0)) == pytest.approx(2.0)
    # before and after are averaged
    assert speed.slowdown(_nominal(1.0), _nominal(3.0)) == pytest.approx(2.0)
    # components are weighted alike, whatever their nominal time
    one_slow = dict(_nominal(), python=3.0 * speed.COMPONENTS["python"][1])
    assert speed.slowdown(one_slow, one_slow) == pytest.approx(1.0 + 2.0 / len(speed.COMPONENTS))


def test_unit_times_cover_every_component():
    times = speed.unit_times(window_s=0.0)
    assert set(times) == set(speed.COMPONENTS)
    assert all(t > 0.0 for t in times.values())
