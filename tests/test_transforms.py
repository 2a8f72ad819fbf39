"""Scale maps, their derivatives, and the prior moment maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussid.solver import _BATCH_MIN
from gaussid.specfun import ConvergenceError, trigamma
from gaussid.transforms import (
    FAMILY_TRANSFORMS,
    LOG_SCALED,
    LOGISTIC_SCALED,
    SCALED,
    MomentPair,
    PriorSpec,
    Transform,
    _inverse_moments_array,
    _TransformArrays,
    derivative,
    forward_moments,
    forward_point,
    inverse_moments,
    inverse_point,
)

T_SCALED = Transform(SCALED, 0.0, 1.0)
T_LOG = Transform(LOG_SCALED, 0.0, 1.0)
T_LOGISTIC = Transform(LOGISTIC_SCALED, 0.0, 1.0)


class TestTransformPoints:
    @pytest.mark.parametrize(
        "t,y,x",
        [
            (T_SCALED, 0.25, 0.25),
            (Transform(SCALED, 2.0, 6.0), 3.0, 0.25),
            (T_LOG, 1.0, 0.0),
            (T_LOG, math.e, 1.0),
            (T_LOGISTIC, 0.5, 0.0),
            (T_LOGISTIC, 0.75, math.log(3.0)),
        ],
    )
    def test_known_points(self, t, y, x):
        assert forward_point(t, y) == pytest.approx(x, abs=1e-12)

    def test_roundtrip_all_kinds(self):
        rng = np.random.default_rng(3)
        transforms = [
            Transform(SCALED, -2.0, 5.0),
            Transform(SCALED, 5.0, -2.0),
            Transform(LOG_SCALED, 0.0, 1.0),
            Transform(LOG_SCALED, 1.0, 3.0),
            Transform(LOG_SCALED, 2.0, -1.0),
            Transform(LOGISTIC_SCALED, 0.0, 1.0),
            Transform(LOGISTIC_SCALED, -1.0, 1.0),
            Transform(LOGISTIC_SCALED, 4.0, -2.0),
        ]
        for t in transforms:
            for _ in range(50):
                x = float(rng.normal(0.0, 2.0))
                y = inverse_point(t, x)
                assert t.contains(y)
                assert forward_point(t, y) == pytest.approx(x, abs=1e-9)

    def test_reversed_reference_points_flip_support(self):
        t = Transform(LOG_SCALED, 2.0, -1.0)
        assert t.support() == (-math.inf, 2.0)
        assert t.contains(0.0) and not t.contains(3.0)
        t2 = Transform(LOGISTIC_SCALED, 4.0, -2.0)
        assert t2.support() == (-2.0, 4.0)

    def test_out_of_support_rejected(self):
        with pytest.raises(ValueError):
            forward_point(T_LOG, -0.5)
        with pytest.raises(ValueError):
            forward_point(T_LOGISTIC, 1.5)
        with pytest.raises(ValueError):
            derivative(T_LOGISTIC, -0.1)

    def test_equal_reference_points_rejected(self):
        with pytest.raises(ValueError):
            Transform(SCALED, 1.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Transform("affine", 0.0, 1.0)

    def test_logistic_inverse_is_bounded_for_extreme_arguments(self):
        assert inverse_point(T_LOGISTIC, 800.0) == pytest.approx(1.0, abs=1e-12)
        assert inverse_point(T_LOGISTIC, -800.0) == pytest.approx(0.0, abs=1e-12)


class TestDerivatives:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        transforms = [
            Transform(SCALED, -2.0, 5.0),
            Transform(SCALED, 5.0, -2.0),
            Transform(LOG_SCALED, 0.0, 1.0),
            Transform(LOG_SCALED, 2.0, -1.0),
            Transform(LOGISTIC_SCALED, 0.0, 1.0),
            Transform(LOGISTIC_SCALED, 4.0, -2.0),
        ]
        for t in transforms:
            for _ in range(30):
                y = inverse_point(t, float(rng.normal(0.0, 1.0)))
                h = 1e-6 * max(1.0, abs(y))
                fd = (forward_point(t, y + h) - forward_point(t, y - h)) / (2 * h)
                assert derivative(t, y) == pytest.approx(fd, rel=1e-5)

    def test_log_derivative_depends_on_the_point(self):
        # 1/(y - a), not a constant in y.
        t = Transform(LOG_SCALED, 1.0, 3.0)
        assert derivative(t, 2.0) == pytest.approx(1.0)
        assert derivative(t, 5.0) == pytest.approx(0.25)

    def test_signs_follow_orientation(self):
        assert derivative(Transform(SCALED, 1.0, 0.0), 0.3) == pytest.approx(-1.0)
        t = Transform(LOG_SCALED, 2.0, -1.0)  # support below a = 2
        assert derivative(t, 0.0) < 0
        t2 = Transform(LOGISTIC_SCALED, 4.0, -2.0)
        assert derivative(t2, 0.0) < 0


class TestMomentPair:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MomentPair(0.0, -1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MomentPair(math.inf, 1.0)
        with pytest.raises(ValueError):
            MomentPair(0.0, math.nan)


class TestPriorSpecs:
    def test_family_transform_agreement_enforced(self):
        with pytest.raises(ValueError):
            PriorSpec(family="normal", transform=T_LOG, mean=1.0, variance=1.0)
        with pytest.raises(ValueError):
            PriorSpec(family="beta", transform=T_SCALED, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PriorSpec(family="lognormal", transform=T_LOGISTIC, mean=0.5, variance=0.1)

    def test_field_shape_enforced(self):
        with pytest.raises(ValueError):
            PriorSpec(family="beta", transform=T_LOGISTIC, mean=0.5, variance=0.1)
        with pytest.raises(ValueError):
            PriorSpec(family="normal", transform=T_SCALED, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PriorSpec(family="normal", transform=T_SCALED, mean=0.0, variance=-1.0)

    def test_mean_outside_support_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec(family="lognormal", transform=T_LOG, mean=-1.0, variance=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown prior family 'gamma'"):
            PriorSpec(family="gamma", transform=T_SCALED, mean=1.0, variance=1.0)


class TestMomentMaps:
    def test_normal_affine(self):
        t = Transform(SCALED, 2.0, 6.0)
        p = PriorSpec(family="normal", transform=t, mean=4.0, variance=8.0)
        m = forward_moments(p)
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(0.5)
        back = inverse_moments("normal", t, m)
        assert back.mean == pytest.approx(4.0)
        assert back.variance == pytest.approx(8.0)

    def test_lognormal_identities(self):
        # X = ln Y Gaussian with mu, sigma^2  <=>  EY = exp(mu + sigma^2/2), ...
        t = Transform(LOG_SCALED, 0.0, 1.0)
        mu, sig2 = 0.3, 0.4
        mean_y = math.exp(mu + sig2 / 2)
        var_y = (math.exp(sig2) - 1.0) * math.exp(2 * mu + sig2)
        p = PriorSpec(family="lognormal", transform=t, mean=mean_y, variance=var_y)
        m = forward_moments(p)
        assert m.mean == pytest.approx(mu, abs=1e-12)
        assert m.variance == pytest.approx(sig2, abs=1e-12)
        back = inverse_moments("lognormal", t, m)
        assert back.mean == pytest.approx(mean_y, rel=1e-12)
        assert back.variance == pytest.approx(var_y, rel=1e-12)

    @pytest.mark.parametrize(
        "t,mean",
        [(Transform(LOG_SCALED, 0.0, 2.0), 5e-324), (Transform(LOG_SCALED, -1e308, 1e308), 1.0)],
    )
    def test_lognormal_mean_whose_ratio_rounds_to_zero(self, t, mean):
        # A valid prior whose (mean - a) / (b - a) underflows, or divides by
        # an infinite b - a, has no log-scale moments.
        p = PriorSpec(family="lognormal", transform=t, mean=mean, variance=1.0)
        with pytest.raises(ValueError, match="not on the b side of a"):
            forward_moments(p)

    def test_lognormal_with_offset_and_scale(self):
        t = Transform(LOG_SCALED, 1.0, 4.0)
        p = PriorSpec(family="lognormal", transform=t, mean=3.5, variance=0.9)
        back = inverse_moments("lognormal", t, forward_moments(p))
        assert back.mean == pytest.approx(3.5, rel=1e-10)
        assert back.variance == pytest.approx(0.9, rel=1e-10)

    def test_beta_moments_roundtrip(self):
        t = Transform(LOGISTIC_SCALED, 0.0, 1.0)
        p = PriorSpec(family="beta", transform=t, alpha=8.0, beta=4.0)
        m = forward_moments(p)
        assert m.mean == pytest.approx(0.75952380952380952, abs=1e-8)
        assert m.variance == pytest.approx(0.41695997043114675, abs=1e-8)
        back = inverse_moments("beta", t, m)
        assert back.mean == pytest.approx(8.0 / 12.0, abs=1e-9)
        assert back.variance == pytest.approx(8.0 * 4.0 / (144.0 * 13.0), abs=1e-9)

    def test_beta_moments_rescaled_interval(self):
        t = Transform(LOGISTIC_SCALED, -1.0, 1.0)
        p = PriorSpec(family="beta", transform=t, alpha=2.0, beta=2.0)
        m = forward_moments(p)
        back = inverse_moments("beta", t, m)
        # Beta(2,2) on (-1,1): mean 0, variance 4 * (2*2)/(16*5) = 0.2
        assert back.mean == pytest.approx(0.0, abs=1e-9)
        assert back.variance == pytest.approx(0.2, abs=1e-9)

    def test_beta_inverse_requires_positive_variance(self):
        with pytest.raises(ValueError):
            inverse_moments("beta", T_LOGISTIC, MomentPair(0.0, 0.0))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            inverse_moments("gamma", T_SCALED, MomentPair(0.0, 1.0))


# Transformed-scale variances from 1e-12 to 12, with Beta(0.45, 0.45)'s
# log-odds variance 11.83, where the Beta inversion fails, and 0, which the
# Beta inversion rejects.
VARIANCES = st.one_of(
    st.floats(-12.0, math.log10(12.0)).map(lambda e: 10.0**e),
    st.just(2.0 * trigamma(0.45)),
    st.just(0.0),
)
REFERENCE_POINTS = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).filter(
    lambda ab: ab[0] != ab[1]
)


@st.composite
def family_moments(draw):
    """A family and up to 2 * _BATCH_MIN + 3 entries of (a, b, mean, var) for it."""
    family = draw(st.sampled_from(["normal", "lognormal", "beta"]))
    n = draw(st.integers(1, 2 * _BATCH_MIN + 3))
    entries = []
    for _ in range(n):
        a, b = draw(REFERENCE_POINTS)
        var = draw(VARIANCES)
        if family == "beta":
            mean = draw(st.floats(-700.0, 700.0))
        elif family == "lognormal":
            # exp(mean + var/2) overflows just above 709.78.
            mean = draw(st.one_of(st.floats(-50.0, 50.0), st.floats(700.0, 712.0))) - var / 2
        else:
            mean = draw(st.floats(-1e6, 1e6))
        entries.append((a, b, mean, var))
    return family, entries


def scalar_map(family, a, b, mean, var):
    """Hex bits of inverse_moments' result, or None where it raises."""
    try:
        t = Transform(FAMILY_TRANSFORMS[family], a, b)
        m = inverse_moments(family, t, MomentPair(mean, var))
    except (ValueError, OverflowError, ConvergenceError):
        return None
    return m.mean.hex(), m.variance.hex()


class TestMomentMapArrays:
    @settings(max_examples=80, deadline=None)
    @given(family_moments())
    def test_done_entries_equal_the_scalar_map(self, drawn):
        family, entries = drawn
        a, b, mean, var = (np.array(col) for col in zip(*entries))
        mean_y, var_y, done = _inverse_moments_array(family, a, b, mean, var)
        for k, entry in enumerate(entries):
            if done[k]:
                assert scalar_map(family, *entry) == (mean_y[k].hex(), var_y[k].hex())

    @settings(max_examples=80, deadline=None)
    @given(family_moments(), st.data())
    def test_a_subset_gets_the_bits_of_the_full_batch(self, drawn, data):
        # The solver maps only the parameters whose moments moved, so an
        # entry must not depend on what else is in its batch.
        family, entries = drawn
        keep = data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
        at = np.flatnonzero(keep)
        cols = [np.array(col) for col in zip(*entries)]
        full = _inverse_moments_array(family, *cols)
        part = _inverse_moments_array(family, *(col[at] for col in cols))
        done = full[2][at]
        assert part[2].tolist() == done.tolist()
        for whole, subset in zip(full[:2], part[:2]):
            assert whole[at][done].tobytes() == subset[done].tobytes()

    def test_unfinished_entries_are_left_to_the_scalar_map(self):
        ones, zeros = np.ones(3), np.zeros(3)
        # exp overflows at the second entry only, and at the third only
        # through exp(var) in the variance.
        mean = np.array([1.0, 709.0, -1000.0])
        var = np.array([0.5, 2.0, 710.0])
        mean_y, var_y, done = _inverse_moments_array("lognormal", zeros, ones, mean, var)
        assert done.tolist() == [True, False, False]
        assert scalar_map("lognormal", 0.0, 1.0, 1.0, 0.5) == (mean_y[0].hex(), var_y[0].hex())
        for k in (1, 2):
            with pytest.raises(OverflowError):
                inverse_moments("lognormal", T_LOG, MomentPair(mean[k], var[k]))

        diffuse = 2.0 * trigamma(0.45)
        _, _, done = _inverse_moments_array(
            "beta", zeros, ones, np.zeros(3), np.array([0.1, diffuse, 0.0])
        )
        assert done.tolist() == [True, False, False]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            _inverse_moments_array("gamma", np.zeros(1), np.ones(1), np.zeros(1), np.ones(1))


def scalar_point_map(fn, t, y):
    """Hex bits of ``fn(t, y)``, or None where it raises."""
    try:
        return fn(t, y).hex()
    except ValueError:
        return None


@st.composite
def transforms_and_points(draw):
    """A (rows, cols) grid of transforms and a point for each, often at its support's ends."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ts, ys = [], []
    for _ in range(rows * cols):
        a, b = draw(REFERENCE_POINTS)
        ts.append(Transform(draw(st.sampled_from([SCALED, LOG_SCALED, LOGISTIC_SCALED])), a, b))
        ends = st.sampled_from([a, b, math.nextafter(a, b)])
        ys.append(draw(st.one_of(st.floats(-6.0, 6.0), ends)))
    return (rows, cols), ts, ys


class TestTransformArrays:
    @settings(max_examples=150, deadline=None)
    @given(transforms_and_points())
    def test_entries_equal_the_scalar_maps(self, drawn):
        shape, ts, ys = drawn
        arrays = _TransformArrays.of(ts, shape)
        y = np.reshape(ys, shape)
        x, x_ok = arrays.forward(y)
        dx, dx_ok = arrays.derivative(y)
        inside = arrays.contains(y)
        for i, (t, yi) in enumerate(zip(ts, ys)):
            at = np.unravel_index(i, shape)
            assert inside[at] == t.contains(yi)
            for fn, got, ok in ((forward_point, x, x_ok), (derivative, dx, dx_ok)):
                want = scalar_point_map(fn, t, yi)
                assert ok[at] == (want is not None)
                if ok[at]:
                    assert got[at].hex() == want
