import json
import warnings

import numpy as np
import pytest

from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet, LogisticSpec, MatrixSpec,
                        PrimalModel, basket_dual, interaction_column, logistic_dual,
                        matrix_dual)
from prodscreen.screening import Emitted

ONE_ROW = AtomicMatrix.from_dense(np.ones((1, 1)))


def _reduced(obj, thresholds):
    """obj's reduced dual over copies of the all-ones column, one per
    threshold; on ONE_ROW, c^T alpha is alpha itself."""
    fs = FeatureSet((0,))
    col = interaction_column(obj.A, fs)
    return obj.reduced([Emitted(fs, col, float(t), 0.0) for t in thresholds])


def _logistic(y, tau=1.0):
    y = np.asarray(y, dtype=float)
    return logistic_dual(LogisticSpec(labels=y, tau_l2=tau),
                         AtomicMatrix.from_dense(np.ones((y.size, 1))))


def test_soft_threshold():
    """The logistic primal map at tau = 1 is the soft threshold
    sign(x) (|x| - lam)_+, with lam a scalar or one per column."""
    red = _reduced(_logistic([1.0]), [1.0])
    assert list(red.primal_map(np.array([3.0]))) == [2.0]
    assert list(red.primal_map(np.array([-3.0]))) == [-2.0]
    assert list(red.primal_map(np.array([0.5]))) == [0.0]
    assert list(red.primal_map(np.array([-0.5]))) == [0.0]
    red = _reduced(_logistic([1.0]), [0.5, 3.0])
    assert np.allclose(red.primal_map(np.array([2.0])), [1.5, 0.0])


def test_clamp():
    """The basket primal map clips (c^T a - lam) / gamma into [0, 1]; its box
    width gamma must be positive, which the spec checks."""
    red = _reduced(basket_dual(BasketSpec(gamma=1.0), ONE_ROW), [0.0])
    assert list(red.primal_map(np.array([1.5]))) == [1.0]
    assert list(red.primal_map(np.array([-0.2]))) == [0.0]
    assert list(red.primal_map(np.array([0.5]))) == [0.5]
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            BasketSpec(gamma=bad)


def test_logistic_conjugate_values():
    """With no active column the logistic dual's value is the summed binary
    entropy of s = y - alpha, with 0 log 0 = 0 at the box corners."""
    red = _logistic([0.0, 1.0]).reduced([])
    assert red.value(np.array([-0.5, 0.5])) == pytest.approx(2.0 * np.log(2.0))
    s = np.array([0.2, 0.9])
    want = -np.sum(s * np.log(s) + (1.0 - s) * np.log(1.0 - s))
    assert red.value(np.array([0.0, 1.0]) - s) == pytest.approx(want, rel=1e-15)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    red = _logistic(y).reduced([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for alpha in (y, y - 1.0, np.where(y == 1.0, y, y - 1.0)):
                assert red.value(alpha) == 0.0  # finite, and no warning


# The conjugate identities behind each dual, verified by grid search:
# f*(a) = max_x (a x - f(x)) to within the grid resolution.

def test_logistic_conjugate_is_a_conjugate():
    """The entropy term is -f*(-alpha) for the logistic loss
    f(x) = log(1 + e^x) - y x, one row at a time."""
    xs = np.linspace(-12.0, 12.0, 48001)
    base = np.logaddexp(0.0, xs)
    for y in (0.0, 1.0):
        fx = base - y * xs
        red = _logistic([y]).reduced([])
        for s in (0.05, 0.2, 0.5, 0.8, 0.95):
            alpha = y - s
            grid = np.max(-alpha * xs - fx)
            assert -red.value(np.array([alpha])) == pytest.approx(grid, abs=1e-4)


def test_basket_loss_conjugate_identity():
    """Per-coordinate covering loss l(p) = 0.5 ((tau - p)_+)^2 has conjugate
    tau a + a^2/2 on a <= 0, which is what the dual value uses."""
    tau = 2.0
    xs = np.linspace(-40.0, 40.0, 160001)
    fx = 0.5 * np.maximum(tau - xs, 0.0) ** 2
    for a in (-3.0, -1.0, -0.25, 0.0):
        grid = np.max(a * xs - fx)
        assert tau * a + 0.5 * a * a == pytest.approx(grid, abs=1e-4)


def test_matrix_loss_conjugate_identity():
    """Scalar case of the residual-plus-nuclear loss: f(p) = 0.5 (y - p)^2
    + rho |p| conjugates to min_{|v|<=1} 0.5 (y + m - rho v)^2 - y^2/2."""
    y, rho = 1.3, 0.4
    xs = np.linspace(-60.0, 60.0, 240001)
    fx = 0.5 * (y - xs) ** 2 + rho * np.abs(xs)
    for m in (-2.0, -0.3, 0.0, 0.5, 1.7):
        grid = np.max(m * xs - fx)
        vs = np.linspace(-1.0, 1.0, 4001)
        closed = np.min(0.5 * (y + m - rho * vs) ** 2) - 0.5 * y * y
        assert closed == pytest.approx(grid, abs=1e-4)


def test_primal_basket():
    """clip((c^T a - lam) / gamma, 0, 1): zero in the dead zone, one at the box."""
    obj = basket_dual(BasketSpec(gamma=2.0), ONE_ROW)
    red = _reduced(obj, [1.0])
    for a, want in ((1.5, 0.25), (0.5, 0.0), (1.0, 0.0), (9.0, 1.0), (-3.0, 0.0)):
        assert list(red.primal_map(np.array([a]))) == [want]
    assert list(_reduced(obj, [1.0, 0.0, 2.0]).primal_map(np.array([1.5]))) == [0.25, 0.75, 0.0]


def test_primal_logistic():
    """sign(c^T a) (|c^T a| - lam)_+ / tau, with lam per column."""
    for tau in (0.5, 1.0, 2.0, 4.0):
        red = _reduced(_logistic([1.0], tau), [1.0])
        assert red.primal_map(np.array([2.5]))[0] == pytest.approx(1.5 / tau)
        assert red.primal_map(np.array([-2.5]))[0] == pytest.approx(-1.5 / tau)
        assert red.primal_map(np.array([0.5]))[0] == 0.0
    red = _reduced(_logistic([1.0]), [0.5, 3.0])
    assert list(red.primal_map(np.array([2.0]))) == [1.5, 0.0]
    assert list(red.primal_map(np.array([-0.5]))) == [0.0, 0.0]


def test_primal_matrix():
    """Row-wise group shrink (1 - lam / |z|)_+ z / eta."""
    obj = matrix_dual(MatrixSpec(responses=np.zeros((1, 2)), eta_l2=1.0), ONE_ROW)
    z = np.array([[3.0, 4.0]])
    red = _reduced(obj, [5.0])
    assert np.all(red.primal_map(z) == 0.0)                  # row norm at the threshold
    assert np.allclose(red.primal_map(2.0 * z), [[3.0, 4.0]])  # shrink by half
    assert np.all(red.primal_map(np.zeros((1, 2))) == 0.0)   # zero row stays zero
    assert np.allclose(_reduced(obj, [0.0]).primal_map(2.0 * z), [[6.0, 8.0]])  # no shrink
    obj = matrix_dual(MatrixSpec(responses=np.zeros((1, 2)), eta_l2=0.5), ONE_ROW)
    W = _reduced(obj, [5.0, 0.0]).primal_map(2.0 * z)
    assert np.allclose(W, [[6.0, 8.0], [12.0, 16.0]])
    assert obj.reduced([]).primal_map(z).shape == (0, 2)


# ------------------------------------------------------------ PrimalModel --

def test_model_drops_zero_rows_and_roundtrips(tmp_path):
    active = (FeatureSet((0,)), FeatureSet((1, 2)), FeatureSet((3,)))
    model = PrimalModel.from_coefficients("logistic", active,
                                          np.array([0.5, 0.0, -1.25]))
    assert model.n_active == 2
    assert [fs.atoms for fs in model.active] == [(0,), (3,)]
    p = tmp_path / "m.json"
    model.save(p)
    loaded = PrimalModel.load(p)
    assert loaded.kind == "logistic"
    assert [fs.atoms for fs in loaded.active] == [(0,), (3,)]
    assert np.allclose(loaded.coefficients, [0.5, -1.25])
    raw = json.loads(p.read_text())
    assert set(raw) == {"kind", "intercept", "entries"}
    assert raw["entries"][0] == {"atoms": [0], "coef": 0.5}


def test_model_matrix_rows(tmp_path):
    active = (FeatureSet((0,)), FeatureSet((1,)))
    coef = np.array([[1.0, 0.0], [0.0, 0.0]])
    model = PrimalModel.from_coefficients("matrix", active, coef,
                                          intercept=np.array([0.5, -0.5]))
    assert model.n_active == 1
    p = tmp_path / "m.json"
    model.save(p)
    loaded = PrimalModel.load(p)
    assert loaded.coefficients.shape == (1, 2)
    assert np.allclose(loaded.intercept, [0.5, -0.5])
    raw = json.loads(p.read_text())
    assert raw["entries"][0]["coef_row"] == [1.0, 0.0]


def test_model_kind_validation():
    with pytest.raises(ValueError):
        PrimalModel("ridge", (), np.zeros(0))
