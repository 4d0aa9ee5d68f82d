"""The lane root finder and the quantile grids it builds, against scipy.

``_brentq_lanes`` transcribes scipy's C ``brentq`` to numpy and steps
many brackets at once.  Brent's method runs each bracket on its own
values, so the transcription must give every lane the bits scipy gives
it alone:

* **solver differential** — random cubics on sign-changing brackets give
  the roots ``optimize.brentq`` gives, lane by lane; NaN values, ends of
  the same sign and too small a ``maxiter`` raise scipy's exception
  types;
* **grid differential** — ``EquilibriumResidual``'s lane-built grid of a
  plain Weibull law equals one scalar ``brentq`` per grid point, bit for
  bit, on the six paper-report laws and over a sweep of shapes and
  scales.  Where numpy's SIMD ``power`` differs from libm's ``pow`` in
  the last bit (measured on an AVX-512 x86-64 host), it fails if
  ``(t/η)**β`` is taken with ``np.power``;
* **cache** — a cache hit serves the lane-built arrays, read-only.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.core import distributions
from repro.core.distributions import EquilibriumResidual, Weibull, _brentq_lanes

#: The disk lifetime laws behind paper-report's equilibrium grids: the
#: ABE law, then the Figure 2 and Figure 3 laws.
PAPER_LAWS = [
    (0.7, 236999.86496097175),
    (0.6, 66463.93004594833),
    (0.6, 132927.86009189667),
    (0.7, 78999.95498699057),
    (0.7, 157999.90997398115),
    (0.7, 786408.6428250426),
]

coefficient = st.floats(-10.0, 10.0)
cubic = st.tuples(
    coefficient, coefficient, coefficient, coefficient,
    st.floats(-10.0, 0.0), st.floats(0.0, 10.0),
)


def _scalar(c3, c2, c1, c0):
    return lambda x: ((c3 * x + c2) * x + c1) * x + c0


def _lanes(coeffs: np.ndarray, poison=None):
    """The cubics of ``coeffs`` rows as one lane function; ``poison``
    wraps each lane's value like the scalar function's wrapper."""

    def f(x, lanes):
        c = coeffs[lanes]
        fx = ((c[:, 0] * x + c[:, 1]) * x + c[:, 2]) * x + c[:, 3]
        if poison is not None:
            fx = np.array([poison(i, v, y) for i, v, y in zip(lanes, x, fx)])
        return fx

    return f


def _scipy_outcome(f, a, b, maxiter=100, xtol=1e-9, rtol=1e-12):
    try:
        return optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestSolverDifferential:
    @given(
        st.lists(cubic, min_size=1, max_size=24),
        # Coarse tolerances make the minimum step and the short-step
        # test's ``- delta`` decide steps, not only the last one.
        st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
        st.sampled_from([1e-12, 1e-8, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_roots_match_scipy_bit_for_bit(self, rows, xtol, rtol):
        outcomes = [
            _scipy_outcome(_scalar(*r[:4]), r[4], r[5], xtol=xtol, rtol=rtol)
            for r in rows
        ]
        # Keep the brackets scipy solves (same-sign ends raise below).
        rows = [r for r, o in zip(rows, outcomes) if isinstance(o, float)]
        expected = [o for o in outcomes if isinstance(o, float)]
        if not rows:
            return
        table = np.array(rows)
        roots = _brentq_lanes(
            _lanes(table[:, :4]), table[:, 4], table[:, 5], xtol=xtol, rtol=rtol
        )
        assert roots.tolist() == expected

    @pytest.mark.parametrize("xtol", [1e-9, 1e-3, 0.1, 1.0])
    def test_seeded_batch_matches_scipy(self, xtol):
        """4,000 cubics in one call: coefficients and brackets over six
        decades, and odd cubics on symmetric brackets, whose ends tie in
        ``|f|``.  Coarse tolerances reach the step rules that finite
        Hypothesis runs rarely do."""
        rng = np.random.default_rng(2008)
        n = 4000
        scale = 10.0 ** rng.integers(-3, 4, n)
        coeffs = rng.normal(size=(n, 4)) * scale[:, None] ** [3, 2, 1, 0]
        coeffs[::4, 1::2] = 0.0
        xb = rng.uniform(0.0, 1.0, n) * scale
        xa = -rng.uniform(0.0, 1.0, n) * scale
        xa[::4] = -xb[::4]
        f = _lanes(coeffs)
        lanes = np.arange(n)
        solved = np.signbit(f(xa, lanes)) != np.signbit(f(xb, lanes))
        coeffs, xa, xb = coeffs[solved], xa[solved], xb[solved]
        roots = _brentq_lanes(_lanes(coeffs), xa, xb, xtol=xtol)
        expected = [
            optimize.brentq(_scalar(*c), a, b, xtol=xtol, rtol=1e-12)
            for c, a, b in zip(coeffs.tolist(), xa.tolist(), xb.tolist())
        ]
        assert roots.tolist() == expected

    @given(
        st.lists(cubic, min_size=1, max_size=8),
        st.integers(0, 6),
        st.sets(st.integers(0, 7)),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_errors_match_scipy_types(self, rows, maxiter, poisoned, cut):
        """Lanes in ``poisoned`` are NaN beyond ``cut``.  A NaN or a
        same-sign bracket is a ``ValueError`` as soon as it is seen; a
        lane still running after ``maxiter`` iterations is a
        ``RuntimeError``; otherwise the roots match."""

        def poison(lane, x, fx):
            return np.nan if lane in poisoned and x > cut else fx

        outcomes = [
            _scipy_outcome(
                lambda x, i=i, f=_scalar(*r[:4]): poison(i, x, f(x)),
                r[4], r[5], maxiter,
            )
            for i, r in enumerate(rows)
        ]
        table = np.array(rows)
        solve = lambda: _brentq_lanes(  # noqa: E731
            _lanes(table[:, :4], poison), table[:, 4], table[:, 5],
            maxiter=maxiter,
        )
        for kind in (ValueError, RuntimeError):
            if kind in outcomes:
                with pytest.raises(kind):
                    solve()
                return
        assert solve().tolist() == outcomes

    def test_nan_at_an_end_raises_value_error(self):
        coeffs = np.array([[0.0, 0.0, 1.0, -0.5], [0.0, 0.0, 1.0, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            _brentq_lanes(_lanes(coeffs), np.zeros(2), np.ones(2))

    def test_same_sign_ends_raise_value_error(self):
        coeffs = np.array([[0.0, 0.0, 1.0, -0.5], [0.0, 1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="different signs"):
            _brentq_lanes(_lanes(coeffs), np.zeros(2), np.ones(2))

    def test_zero_at_an_end_is_the_root(self):
        coeffs = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        roots = _brentq_lanes(_lanes(coeffs), np.zeros(2), np.ones(2))
        assert roots.tolist() == [0.0, 1.0]


def _grid_pair(shape: float, scale: float):
    """A law's lane-built grid and its scalar per-point grid."""
    law = EquilibriumResidual(Weibull(shape, scale))
    probs, lanes = law._build_quantile_grid()
    scalar = np.array([law._invert(p) for p in probs])
    return lanes, scalar


class TestGridDifferential:
    @pytest.mark.parametrize(
        "shape,scale", PAPER_LAWS, ids=[f"{a}-{b:.0f}" for a, b in PAPER_LAWS]
    )
    def test_paper_report_laws(self, shape, scale):
        lanes, scalar = _grid_pair(shape, scale)
        assert lanes.tobytes() == scalar.tobytes()

    @given(shape=st.floats(0.3, 3.0), scale=st.floats(1.0, 1e7))
    @settings(max_examples=8, deadline=None)
    def test_weibull_sweep(self, shape, scale):
        lanes, scalar = _grid_pair(shape, scale)
        assert lanes.tobytes() == scalar.tobytes()


class TestCachedLaneGrid:
    def test_cache_hit_serves_the_lane_grid_read_only(self, monkeypatch):
        monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
        shape, scale = PAPER_LAWS[0]
        first = EquilibriumResidual(Weibull(shape, scale))
        probs, quantiles = first._grid()
        hit = EquilibriumResidual(Weibull(shape, scale))._grid()
        assert hit[0] is probs and hit[1] is quantiles
        scalar = np.array([first._invert(p) for p in probs])
        assert quantiles.tobytes() == scalar.tobytes()
        for arr in hit:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
