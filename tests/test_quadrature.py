import numpy as np
import pytest

from egadapt import DomainShape, build_initial, cell_rule, edge_rule, gauss_1d

from reference import edges


def test_midpoint_rule():
    r = gauss_1d(1)
    assert r.points[0] == pytest.approx(0.5)
    assert r.weights[0] == pytest.approx(1.0)


def test_two_point_nodes():
    r = gauss_1d(2)
    off = 1.0 / (2.0 * np.sqrt(3.0))
    assert sorted(r.points) == pytest.approx([0.5 - off, 0.5 + off])
    assert r.weights == pytest.approx([0.5, 0.5])


def test_cubic_exact_with_two_points():
    r = gauss_1d(2)
    assert np.sum(r.weights * r.points ** 3) == pytest.approx(0.25, abs=1e-15)


def test_point_count_range():
    for bad in (0, 11):
        with pytest.raises(ValueError):
            gauss_1d(bad)


def test_cell_rule_counts_and_normalization():
    r1 = cell_rule(1)
    assert r1.n == 16            # _POINTS = 4 per direction, both degrees
    assert np.sum(r1.weights) == pytest.approx(1.0, abs=1e-15)
    r2 = cell_rule(2)
    assert np.sum(r2.weights) == pytest.approx(1.0, abs=1e-15)


def test_cell_rule_x2y2():
    r = cell_rule(2)
    val = np.sum(r.weights * r.points[:, 0] ** 2 * r.points[:, 1] ** 2)
    assert val == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_edge_rule_mapping():
    mesh = build_initial(DomainShape.UNIT_SQUARE, 0.25)
    rule = edge_rule(1)
    # the four boundary edges on x = 0, each of length 1/4
    left = [e for e in edges(mesh, interior=False) if e.normal[0] == -1.0]
    assert len(left) == 4
    pts, w = left[0].points(rule.points), rule.weights * left[0].length
    assert np.sum(w) == pytest.approx(0.25, abs=1e-15)
    assert np.all(pts[:, 0] == 0.0)
    # integrate y^3 over the unit-length x=0 edge by summing the four pieces
    total = 0.0
    for e in left:
        p, ww = e.points(rule.points), rule.weights * e.length
        total += np.sum(ww * p[:, 1] ** 3)
    assert total == pytest.approx(0.25, abs=1e-14)


def test_unit_edge_integral_of_one():
    rule = edge_rule(2)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 11))
def test_random_polynomials_integrated_exactly_1d(n):
    rng = np.random.default_rng(n)
    r = gauss_1d(n)
    deg = 2 * n - 1
    coef = rng.uniform(-1, 1, size=deg + 1)
    quad = np.sum(r.weights * np.polyval(coef, r.points))
    exact = sum(c / (deg - i + 1) for i, c in enumerate(coef))
    assert quad == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2])
def test_random_polynomials_integrated_exactly_2d(k):
    # oracle: monomial integrals over the unit square are 1/((a+1)(b+1))
    rng = np.random.default_rng(k)
    r = cell_rule(k)
    deg = r.exactness
    for _ in range(5):
        a = rng.integers(0, deg + 1)
        b = rng.integers(0, deg + 1)
        c = rng.uniform(-1, 1)
        quad = np.sum(r.weights * c * r.points[:, 0] ** a * r.points[:, 1] ** b)
        assert quad == pytest.approx(c / ((a + 1) * (b + 1)), abs=1e-13)


def test_rules_are_immutable():
    r = gauss_1d(3)
    with pytest.raises(ValueError):
        r.weights[0] = 2.0
