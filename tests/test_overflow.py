"""Every NumericOverflow the package raises, one input per site, with its
exact message and its series fields."""

import math

import numpy as np
import pytest

import influx
from influx import (
    Jordan,
    NoConvergenceWithinBudget,
    NumericOverflow,
    Operator,
    Star,
    closed_form_pwp,
    enumerate_paths,
    estimate_and_exact,
    estimate_and_exact_vectors,
    estimate_from_lengths,
    exp_plus,
    exp_plus_vectors,
    influence_dependence,
    mat_pow,
    micmac,
    moments,
    omega_lambda_sum,
    omega_sum,
    parse_edge_list,
    pwp,
    to_operator,
)
from influx.cli import build_parser
from influx.linalg import _sliced_ell

BIG = np.array([[0.0, 1e200], [1e200, 0.0]])
SELF_LOOP = "1,1,1e200\n1,2,1.0\n"  # a walk 1 -> 1 -> 1 weighs 1e400


def _command(tmp_path, edges: str, *argv):
    """The subcommand's function on a file holding `edges`, run outside
    main, so its exception comes through as raised."""
    path = tmp_path / "g.csv"
    path.write_text(edges)
    args = build_parser().parse_args([*argv, str(path)])
    return args.func(args)


def _tiny_error_bars(d, lam, tally, tol):
    # an error of 1 over a subnormal standard error
    n = d.n
    return np.ones((2, n)), np.zeros((2, n)), np.full((2, n), 5e-324)


def _montecarlo_z_score(tmp_path, monkeypatch):
    monkeypatch.setattr(influx.cli, "_sums", _tiny_error_bars)
    _command(tmp_path, "1,2,1.0\n", "montecarlo", "-N", "10")


def _sliced_power_step():
    d = np.array([[1e200]])
    assert _sliced_ell(d) is not None  # the power after d^1 comes from the chain's step
    estimate_from_lengths(d, [1, 2])


# id: (call(tmp_path, monkeypatch), message before " overflows the float range",
# terms, tol); the tol of a series is its default 1e-12, and nan elsewhere
SITES = {
    "mat_pow product": (lambda tmp, mp: mat_pow(BIG, 4), "matrix power 4", 0, math.nan),
    # the chain's running scale keeps d^2 = 1e400 in range, its share of the sum not
    "sampled sum step": (lambda tmp, mp: _sliced_power_step(), "weighted sum of matrix powers", 0, math.nan),
    # rescaled to 1.9, d's entries times four of d's pass the largest float
    "sampled pass power": (
        lambda tmp, mp: estimate_from_lengths(np.full((4, 4), 1.7e308), [1, 2]), "matrix power 2", 0, math.nan,
    ),
    # every power of this d is d, and the shares add up past the largest float
    "sampled sum total": (
        lambda tmp, mp: estimate_from_lengths(np.array([[1.0, np.finfo(float).max], [0.0, 0.0]]), [1, 2, 2, 3, 3]),
        "weighted sum of matrix powers", 0, math.nan,
    ),
    # a row sum of 2 * 1.7e308 is the first power itself
    "series power": (
        lambda tmp, mp: exp_plus_vectors(to_operator(parse_edge_list("1,2,1.7e308\n3,2,1.7e308\n"))),
        "exponential series term 1", 0, 1e-12,
    ),
    # the rescaled power stays finite, its coefficient 2^1327 / 2 does not
    "series term": (lambda tmp, mp: exp_plus(np.array([[1e200]])), "exponential series term 2", 1, 1e-12),
    # d is idempotent, so every term is finite, but (e - 1) * 1.1e308 is not
    "series sum": (
        lambda tmp, mp: exp_plus(np.array([[1.0, 1.1e308], [0.0, 0.0]])), "exponential series sum", 307, 1e-12,
    ),
    # the chain's running scale carries 2^2000 into the sampled sum
    "chain sampled sum": (
        lambda tmp, mp: estimate_and_exact(np.array([[2.0]]), 0.001, [1, 2000]),
        "weighted sum of matrix powers", 0, math.nan,
    ),
    "chain sampled squares": (
        lambda tmp, mp: estimate_and_exact_vectors(np.array([[1e160]]), 1e-200, [1]),
        "weighted sum of squared matrix powers", 0, math.nan,
    ),
    "e^lambda - 1": (
        lambda tmp, mp: pwp(Operator.dense([[1.0]]), 800.0), "e^lambda - 1 for lambda = 800.0", 0, math.nan,
    ),
    "influence_dependence": (
        lambda tmp, mp: influence_dependence(np.full((2, 2), 1.7e308)), "a row or column sum", 0, math.nan,
    ),
    "micmac operator": (
        lambda tmp, mp: micmac(Operator.dense(BIG), 4), "weighted sum of matrix powers", 0, math.nan,
    ),
    "paper scale": (
        lambda tmp, mp: _command(tmp, "1,1,1.01\n", "compute", "--method", "pwp", "--lambda", "709",
                                 "--paper-scale"),
        "paper-scaled d or f", 0, math.nan,
    ),
    "montecarlo z-score": (_montecarlo_z_score, "the sampling error of d or f or its z-score", 0, math.nan),
    "weight_product": (
        lambda tmp, mp: enumerate_paths(parse_edge_list(SELF_LOOP), 1, 1, 2)[0].weight_product(),
        "weight product of a path of length 2", 0, math.nan,
    ),
    "omega_sum": (
        lambda tmp, mp: omega_sum(parse_edge_list(SELF_LOOP), 1, 1, 2), "walk sum of length 2", 0, math.nan,
    ),
    "omega_lambda_sum": (
        lambda tmp, mp: omega_lambda_sum(parse_edge_list(SELF_LOOP), 1, 1, 1.0, 3),
        "walk sum of length 2", 0, math.nan,
    ),
    "second_moment": (
        lambda tmp, mp: moments(1e200).second_moment, "second moment of the length law", 0, math.nan,
    ),
    # math.exp(1400) raises OverflowError
    "closed form OverflowError": (
        lambda tmp, mp: closed_form_pwp(Jordan(3, 3.0), 700.0),
        "closed form of Jordan(n=3, a=3.0) at lambda = 700.0", 0, math.nan,
    ),
    # every factor is a float, but the star's hub entry is past the largest
    "closed form inf": (
        lambda tmp, mp: closed_form_pwp(Star(9), 355.0),
        "closed form of Star(n=9) at lambda = 355.0", 0, math.nan,
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_every_overflow_is_typed_with_its_message(site, tmp_path, monkeypatch):
    call, what, terms, tol = SITES[site]
    with pytest.raises(NumericOverflow) as err:
        call(tmp_path, monkeypatch)
    assert type(err.value) is NumericOverflow and isinstance(err.value, NoConvergenceWithinBudget)
    assert str(err.value) == f"{what} overflows the float range"
    assert err.value.terms == terms
    assert err.value.bound == math.inf
    assert err.value.tol == tol or math.isnan(err.value.tol) and math.isnan(tol)
