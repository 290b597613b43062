"""Example families: construction, closed forms, and the peak-offset rule."""

import decimal
import math

import numpy as np
import pytest

from influx import (
    Cycle,
    Edge,
    Jordan,
    Line,
    NonFiniteWeight,
    NumericOverflow,
    Star,
    build,
    closed_form_pwp,
    is_column_stochastic,
    line_argmax_offset,
    omega_lambda_sum,
    pwp_matrix,
    to_matrix,
)

ALL_SPECS = (
    [Line(n) for n in range(1, 9)]
    + [Cycle(n) for n in range(1, 9)]
    + [Jordan(n, a) for n in (1, 3, 6) for a in (0.5, -0.3, 1.0)]
    + [Star(n) for n in range(1, 7)]
)


# -- construction -----------------------------------------------------------------

def test_line2_structure():
    g = build(Line(2))
    assert g.n == 2
    assert g.edges == (Edge(1, 2, 1.0),)


def test_cycle3_structure():
    g = build(Cycle(3))
    assert g.edge_count == 3
    assert Edge(3, 1, 1.0) in g.edges


def test_cycle1_is_self_loop():
    g = build(Cycle(1))
    assert g.edges == (Edge(1, 1, 1.0),)


def test_jordan_structure():
    g = build(Jordan(3, 0.5))
    assert g.edge_count == 5  # three loops plus two advances
    d = to_matrix(g)
    assert np.array_equal(np.diag(d), [0.5, 0.5, 0.5])
    assert d[1, 0] == d[2, 1] == 1.0


def test_star_structure():
    g = build(Star(2))
    assert g.n == 3
    assert g.edge_count == 4
    hub = Star(2).center
    assert hub == 3
    assert all(hub in (e.source, e.target) for e in g.edges)


# -- closed forms against the series kernel ------------------------------------------

# at the subnormal 1e-320 and 1e-310, e^lam - 1 and a * lam are subnormal
# too, so a closed form that divides by e^lam - 1 last overflows or rounds
@pytest.mark.parametrize("lam", [1e-320, 1e-310, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_closed_form_matches_series(spec, lam):
    exact = closed_form_pwp(spec, lam)
    series = pwp_matrix(to_matrix(build(spec)), lam, 1e-14)
    assert np.abs(exact - series).max() < 1e-10


def test_line_closed_form_entries():
    lam = 1.0
    t = closed_form_pwp(Line(4), lam)
    eplus = math.expm1(lam)
    for j in range(1, 5):
        for s in range(1, 5 - j):
            assert t[j + s - 1, j - 1] == lam**s / (eplus * math.factorial(s))
    assert np.all(np.triu(t) == 0.0)


def test_cycle_columns_are_rotations():
    t = closed_form_pwp(Cycle(5), 1.0)
    for j in range(1, 5):
        assert np.allclose(t[:, j], np.roll(t[:, 0], j), rtol=0, atol=0)
    assert is_column_stochastic(t, 1e-12)


def test_cycle_influence_decays_with_distance():
    for n in range(2, 9):
        t = closed_form_pwp(Cycle(n), 1.0)
        column = [t[s % n, 0] for s in range(1, n + 1)]
        assert all(a > b for a, b in zip(column, column[1:]))


def test_jordan_diagonal_has_no_empty_walk_term():
    # the closed diagonal is (e^{a lam} - 1)/(e^lam - 1): it must vanish as a -> 0
    t = closed_form_pwp(Jordan(3, 1e-12), 1.0)
    assert abs(t[0, 0]) < 1e-11


def test_star_symmetry():
    spec = Star(3)
    t = closed_form_pwp(spec, 1.0)
    hub = spec.center - 1
    assert np.allclose(t, t.T, rtol=0, atol=0)
    leaf_entries = [t[i, j] for i in range(3) for j in range(3)]
    assert len(set(leaf_entries)) == 1
    assert t[hub, hub] > t[0, 0]


def test_star_hub_leaf_series_form():
    # hub<->leaf entries are sum_{k>=0} n^k lam^(2k+1)/(2k+1)! / e_plus(lam)
    n, lam = 3, 1.0
    spec = Star(n)
    t = closed_form_pwp(spec, lam)
    series = math.fsum(
        n**k * lam ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(40)
    ) / math.expm1(lam)
    hub = spec.center - 1
    assert t[0, hub] == pytest.approx(series, abs=1e-14)
    assert t[hub, 0] == pytest.approx(series, abs=1e-14)


def test_large_lambda_closed_forms_stay_finite():
    # e^{a lam} and cosh/sinh(lam sqrt n) leave the float range at lam = 400,
    # their quotients by e_plus(lam) do not: both are e^400 times a constant
    y = math.exp(400.0)
    jordan = closed_form_pwp(Jordan(3, 2.0), 400.0)
    assert jordan[0, 0] == pytest.approx(y, rel=1e-12)
    assert jordan[1, 0] == pytest.approx(400.0 * y, rel=1e-12)
    assert jordan[2, 0] == pytest.approx(80_000.0 * y, rel=1e-12)
    star = closed_form_pwp(Star(4), 400.0)
    hub = Star(4).center - 1
    assert star[hub, hub] == pytest.approx(y / 2, rel=1e-12)
    assert star[hub, 0] == pytest.approx(y / 4, rel=1e-12)
    assert star[0, 1] == pytest.approx(y / 8, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 30.0])
@pytest.mark.parametrize("spec", [Jordan(4, 0.5), Jordan(4, -0.3), Jordan(4, 2.0), Star(1), Star(5)], ids=str)
def test_scaled_closed_forms_match_direct_forms(spec, lam):
    # the direct forms, which are finite at these lambdas
    eplus = math.expm1(lam)
    t = closed_form_pwp(spec, lam)
    if isinstance(spec, Jordan):
        for j in range(spec.n):
            assert t[j, j] == pytest.approx(math.expm1(spec.a * lam) / eplus, rel=1e-13)
            for s in range(1, spec.n - j):
                direct = math.exp(spec.a * lam) * lam**s / (eplus * math.factorial(s))
                assert t[j + s, j] == pytest.approx(direct, rel=1e-13)
    else:
        x, hub = lam * math.sqrt(spec.n), spec.center - 1
        assert t[hub, hub] == pytest.approx((math.cosh(x) - 1) / eplus, rel=1e-13)
        assert t[hub, 0] == pytest.approx(math.sinh(x) / (math.sqrt(spec.n) * eplus), rel=1e-13)


@pytest.mark.parametrize(
    "spec, lam",
    [(Jordan(3, 3.0), 700.0), (Star(100), 700.0)],
    ids=str,
)
def test_closed_form_overflow_is_typed(spec, lam):
    with pytest.raises(NumericOverflow):
        closed_form_pwp(spec, lam)


@pytest.mark.parametrize("call", [build, lambda spec: closed_form_pwp(spec, 1.0)], ids=["build", "closed_form_pwp"])
def test_unknown_family_spec_is_refused(call):
    with pytest.raises(TypeError, match="^unknown family spec <object object at "):
        call(object())


@pytest.mark.parametrize("lam", [1.0, 30.0])
@pytest.mark.parametrize("spec", [Line(200), Cycle(200)], ids=str)
def test_long_line_and_cycle_match_series(spec, lam):
    # s! alone leaves the float range from s = 171 on, at every lambda
    exact = closed_form_pwp(spec, lam)
    series = pwp_matrix(to_matrix(build(spec)), lam, 1e-14)
    assert np.abs(exact - series).max() < 1e-12


def _length_law(lam: int, lengths) -> float:
    """sum of lam^m / (m! (e^lam - 1)) over the given lengths, in 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(lam)
        eplus = x.exp() - 1
        return float(sum(x**m / (math.factorial(m) * eplus) for m in lengths))


def test_long_line_and_cycle_at_lambda_700():
    # e^700 is finite but lam^s / s! is not for most s; every entry is a
    # probability of the length law
    line = closed_form_pwp(Line(200), 700.0)
    cycle = closed_form_pwp(Cycle(200), 700.0)
    assert np.isfinite(line).all() and np.isfinite(cycle).all()
    assert np.abs(cycle.sum(axis=0) - 1.0).max() < 1e-12
    for s in (1, 2, 50, 170, 171, 199):
        assert line[s, 0] == pytest.approx(_length_law(700, [s]), rel=1e-12)
    for s in (1, 100, 200):
        # the cycle's mode sits at s = 700 mod 200 = 100
        expected = _length_law(700, range(s, 4_000, 200))
        assert cycle[s % 200, 0] == pytest.approx(expected, rel=1e-12)


def test_long_jordan_at_lambda_700():
    # 700^109 alone overflows; each off-diagonal entry e^{a lam} lam^s /
    # ((e^lam - 1) s!) is finite, the largest about 9e133
    t = closed_form_pwp(Jordan(110, 1.0), 700.0)
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(700)
        scale = x.exp() / (x.exp() - 1)
        for s in (1, 2, 50, 108, 109):
            expected = float(scale * x**s / math.factorial(s))
            assert t[s, 0] == pytest.approx(expected, rel=1e-12)
            assert t[109, 109 - s] == t[s, 0]


def test_jordan_with_negative_a_at_lambda_700_keeps_its_small_entries():
    # e^{a lam} lam / (e^lam - 1) is about 7e-607 here, so a running product
    # that starts from it as one float is 0 down the whole column; the
    # entries climb back to 1.49e-306 at s = 699
    t = closed_form_pwp(Jordan(700, -1.0), 700.0)
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(700)
        eplus = x.exp() - 1
        column = [float(((-x).exp() - 1) / eplus)]
        column += [float((-x).exp() * x**s / (math.factorial(s) * eplus)) for s in range(1, 700)]
    column = np.array(column)
    assert column[699] == pytest.approx(1.486524296126e-306, rel=1e-12)
    # rounding of a subnormal result is at most half its spacing, 2^-1075
    assert np.all(np.abs(t[:, 0] - column) <= 1e-12 * np.abs(column) + 2.0**-1075)
    assert np.count_nonzero(t[:, 0]) == np.count_nonzero(column) > 200


def test_star_closed_form_against_oracle():
    spec = Star(3)
    g = build(spec)
    for lam in (1.0, 1e-320):  # the second subnormal
        t = closed_form_pwp(spec, lam)
        for i, j in ((4, 4), (4, 1), (1, 4), (1, 2), (2, 2)):
            assert omega_lambda_sum(g, i, j, lam, 40) == pytest.approx(
                t[i - 1, j - 1], abs=1e-9
            )


# -- peak offset ------------------------------------------------------------------------

def test_argmax_offset_rule():
    assert line_argmax_offset(1.0) == 1
    assert line_argmax_offset(3.7) == 3
    assert line_argmax_offset(0.2) == 1
    assert line_argmax_offset(5.0) == 5


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
def test_argmax_offset_matches_matrix(lam):
    n = 10
    t = closed_form_pwp(Line(n), lam)
    for j in range(1, n):
        if n - j > lam + 1:
            column = t[:, j - 1]
            s_star = int(np.argmax(column)) + 1 - j
            assert s_star == line_argmax_offset(lam)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_jordan_refuses_a_non_finite_weight(a):
    # build's usage error (exit 2), where closed_form_pwp used to overflow (exit 3)
    with pytest.raises(NonFiniteWeight, match=f"^weight {a!r} is not finite$"):
        Jordan(3, a)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        Line(0)
    with pytest.raises(ValueError):
        Star(0)
    with pytest.raises(ValueError):
        closed_form_pwp(Line(3), 0.0)
