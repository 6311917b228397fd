"""Tests for the Feinberg [32] vector-window model."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import ieee
from repro.formats.feinberg import (
    FeinbergSpec,
    matrix_anchor_exponent,
    quantize_vector_feinberg,
    quantize_vector_feinberg_reference,
)


class TestSpec:
    def test_defaults_match_paper(self):
        spec = FeinbergSpec()
        assert spec.exp_bits == 6 and spec.frac_bits == 52
        assert spec.window == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            FeinbergSpec(exp_bits=0)
        with pytest.raises(ValueError):
            FeinbergSpec(frac_bits=60)
        with pytest.raises(ValueError):
            FeinbergSpec(policy="saturate")


class TestAnchor:
    def test_anchor_is_max_exponent(self):
        assert matrix_anchor_exponent(np.array([0.5, 8.0, -3.0])) == 3

    def test_anchor_rejects_all_zero(self):
        with pytest.raises(ValueError):
            matrix_anchor_exponent(np.zeros(4))


class TestQuantize:
    def test_in_window_exact_at_52_bits(self):
        spec = FeinbergSpec()
        x = np.array([1.0, 2.0 ** -30, -0.75])
        q = quantize_vector_feinberg(x, anchor=0, spec=spec)
        assert np.array_equal(q, x)

    def test_above_window_wraps_catastrophically(self):
        spec = FeinbergSpec(policy="wrap")
        # anchor -30: window [-93, -30]; value 1.0 (exp 0) wraps mod 64.
        q = quantize_vector_feinberg(np.array([1.0]), anchor=-30, spec=spec)
        assert q[0] != 1.0
        assert 0 < q[0] < 2.0 ** -60  # landed ~64 binades down

    def test_above_window_clamp(self):
        spec = FeinbergSpec(policy="clamp")
        q = quantize_vector_feinberg(np.array([2.0 ** 10]), anchor=0, spec=spec)
        assert q[0] == 1.0  # saturated to window top binade, fraction zeroed

    def test_above_window_flush(self):
        spec = FeinbergSpec(policy="flush")
        q = quantize_vector_feinberg(np.array([2.0 ** 10]), anchor=0, spec=spec)
        assert q[0] == 0.0

    def test_below_window_flushes_in_all_policies(self):
        for policy in ("wrap", "clamp", "flush"):
            spec = FeinbergSpec(policy=policy)
            q = quantize_vector_feinberg(np.array([2.0 ** -70]), anchor=0,
                                         spec=spec)
            assert q[0] == 0.0

    def test_zero_passthrough(self):
        q = quantize_vector_feinberg(np.array([0.0]), anchor=0, spec=FeinbergSpec())
        assert q[0] == 0.0

    def test_fraction_truncation(self):
        spec = FeinbergSpec(frac_bits=4)
        q = quantize_vector_feinberg(np.array([1.0 + 2.0 ** -10]), anchor=0,
                                     spec=spec)
        assert q[0] == 1.0

    def test_sign_preserved(self):
        spec = FeinbergSpec()
        q = quantize_vector_feinberg(np.array([-1.5, 1.5]), anchor=0, spec=spec)
        assert q[0] == -1.5 and q[1] == 1.5

    def test_wrap_is_mod_window(self):
        spec = FeinbergSpec(policy="wrap")
        # exp 1 above the window top wraps exactly 64 binades down.
        q = quantize_vector_feinberg(np.array([2.0]), anchor=0, spec=spec)
        assert q[0] == 2.0 * 2.0 ** -64


# -- bit-level kernel vs the decompose/compose oracle ----------------------

specs = st.builds(
    FeinbergSpec,
    exp_bits=st.integers(1, 11),
    frac_bits=st.one_of(st.sampled_from([0, 4, 52]), st.integers(0, 52)),
    policy=st.sampled_from(["wrap", "clamp", "flush"]),
)
#: Matrix anchors span the normal range; below -959 the default 64-binade
#: window reaches under it.
scalar_anchors = st.one_of(st.integers(-1022, 1023), st.integers(-1022, -959))
#: Per-block-column anchors may also sit below the normal range (a stripe
#: holding only zero entries).
elem_anchors = st.one_of(scalar_anchors, st.sampled_from([-1023, ieee.EXP_ZERO]))


@st.composite
def float_bits(draw, anchor, window):
    """One float64 bit pattern: zero, subnormal, near a window edge or
    anywhere in the normal range (up to ~2000 binades outside the window)."""
    top = anchor + ieee.EXP_BIAS
    near = st.integers(-2 * window - 1, window + 1).map(
        lambda o: min(max(top + o, 0), 2046))
    field = draw(st.one_of(st.just(0), st.integers(1, 2046), near))
    frac = draw(st.one_of(st.just(0), st.integers(0, (1 << 52) - 1)))
    sign = draw(st.integers(0, 1))
    return (sign << 63 | field << 52 | frac) - (sign << 64)  # as int64


@st.composite
def window_cases(draw):
    """``(x, anchor, spec)`` with a scalar or per-element anchor."""
    spec = draw(specs)
    n = draw(st.integers(0, 16))
    if draw(st.booleans()):
        anchor = draw(scalar_anchors)
        anchors = [anchor] * n
    else:
        anchors = draw(st.lists(elem_anchors, min_size=n, max_size=n))
        anchor = np.array(anchors, dtype=np.int64)
    bits = [draw(float_bits(a, spec.window)) for a in anchors]
    return np.array(bits, dtype=np.int64).view(np.float64), anchor, spec


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBitLevelKernel:
    @given(window_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_byte_for_byte(self, case):
        x, anchor, spec = case
        assert_same_bytes(quantize_vector_feinberg(x, anchor, spec),
                          quantize_vector_feinberg_reference(x, anchor, spec))

    @given(specs, scalar_anchors, st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matrix_columns_match_vector_calls(self, spec, anchor, k, data):
        n = data.draw(st.integers(1, 12))
        per_row = data.draw(st.booleans())
        rows = (data.draw(st.lists(elem_anchors, min_size=n, max_size=n))
                if per_row else [anchor] * n)
        X = np.array([[data.draw(float_bits(a, spec.window))
                       for _ in range(k)] for a in rows],
                     dtype=np.int64).view(np.float64)
        col_anchor = np.array(rows, dtype=np.int64)[:, None] if per_row else anchor
        vec_anchor = np.array(rows, dtype=np.int64) if per_row else anchor
        Q = quantize_vector_feinberg(X, col_anchor, spec)
        assert_same_bytes(Q, quantize_vector_feinberg_reference(
            X, col_anchor, spec))
        for j in range(k):
            assert_same_bytes(Q[:, j],
                              quantize_vector_feinberg(X[:, j], vec_anchor, spec))

    @given(window_cases(), st.sampled_from([np.inf, -np.inf, np.nan]),
           st.integers(0, 16))
    @settings(max_examples=100, deadline=None)
    def test_nonfinite_raises_like_reference(self, case, bad, at):
        x, anchor, spec = case
        x = np.insert(x, min(at, x.size), bad)
        if np.ndim(anchor):
            anchor = np.insert(anchor, min(at, anchor.size), 0)
        for fn in (quantize_vector_feinberg, quantize_vector_feinberg_reference):
            with pytest.raises(ValueError, match=re.escape(ieee.NONFINITE_MSG)):
                fn(x, anchor, spec)
