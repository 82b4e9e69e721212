"""The conftest guard on pytest.approx: a comparison that passes only
through the default abs=1e-12 fails and names its call site."""

import numpy as np
import pytest


def test_default_abs_pass_fails_at_its_call_site():
    loose = pytest.approx(2e-25, rel=1e-6)
    with pytest.raises(pytest.fail.Exception,
                       match=r"test_approx_guard\.py:\d+: pytest\.approx "
                             r"passes only through its default abs"):
        assert 1e-25 == loose


def test_arrays_are_guarded():
    with pytest.raises(pytest.fail.Exception, match="default abs"):
        assert np.array([1e-25, 1.0]) == pytest.approx([2e-25, 1.0])


def test_real_agreement_passes():
    assert 1e-25 == pytest.approx(1e-25 * (1 + 1e-9))
    assert np.array([0.0, 1.0]) == pytest.approx([0.0, 1.0 + 1e-9])


def test_explicit_abs_is_left_alone():
    assert 1e-25 == pytest.approx(2e-25, abs=1e-12)


def test_disagreement_stays_a_plain_failure():
    assert not 1.0 == pytest.approx(2.0)
    assert 1.0 != pytest.approx(2.0)
