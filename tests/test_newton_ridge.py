"""The Newton ridge for an exactly singular Hessian is decided per row, so a
row with a singular Hessian leaves the rest of its batch untouched."""

import numpy as np

from repden.expfam import newton_minimize
from repden.grid import Domain

from conftest import make_family


def test_singular_row_does_not_ridge_its_batch():
    d = Domain(0.0, 1.0, 64)
    mu = np.zeros(d.n_grid)
    mu[0] = 800.0
    # at theta = 0 all mass sits on t = 0 (exp(-800) underflows elsewhere),
    # so the statistic has zero variance and the Hessian is exactly zero
    m = make_family(d, [np.sqrt(12.0) * (d.grid - 0.5)], mu_vals=mu)
    alone = newton_minimize(m, 1, np.array([[0.5]]), theta0=np.array([[300.0]]))
    assert alone.errors == (None,)
    both = newton_minimize(m, 1, np.array([[0.5], [0.5]]), theta0=np.array([[300.0], [0.0]]))
    assert both.errors == (None, None)
    assert both.theta[0].tobytes() == alone.theta[0].tobytes()
    second = newton_minimize(m, 1, np.array([[0.5]]), theta0=np.array([[0.0]]))
    assert both.theta[1].tobytes() == second.theta[0].tobytes()
