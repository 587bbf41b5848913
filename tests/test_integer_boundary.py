"""One integer boundary for the whole public API: an integer argument passed
as `np.int64` gives exactly what the same Python int gives.

Every callable in `etaquad.__all__` is either probed here or exempt with a
reason, so a new export fails `test_every_public_callable_is_probed_or_exempt`
until it is classified.  The divisor-sum, construction and class-group
oracles of conftest are probed too, since tests feed them integers read off
numpy arrays.  A probe draws its integers within int64, calls once with Python
ints and once with the same values as `np.int64`, and requires equal outcomes:
equal results with equal types in every field (no numpy integer leaks out), or
the same exception type and message.
"""

from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from conftest import (
    compose,
    gauss_doubling,
    inverse,
    jacobsthal,
    outcome_of,
    reduce,
    sigma,
    sigma_scaled,
    weighted_sigma,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import etaquad
from etaquad import (
    METHODS,
    CoeffTable,
    ConstructionCase,
    LambdaParams,
    QuadForm,
    TableCache,
    case_arity,
    case_ids,
    class_group,
    closed_form,
    divisor_sums,
    find_rep,
    is_prime,
    kronecker,
    lambda_at,
    lambda_from_reps,
    lambda_multinomial,
    lambda_table,
    lattice_points,
    make_case,
    normalized_reps,
    partition_terms,
    range_report,
    representations,
    sieve_primes,
    verify_construction,
    verify_product,
    verify_thm53,
)
from etaquad import quadform

INT64 = st.integers(-(2**63), 2**63 - 1)
# past 2^62 sums and products of two values wrap in int64
BIG = st.integers(2**62 - 64, 2**63 - 1)


def small(lo, hi):
    """Small values, where the call does its work, or values near the int64
    edge, where it must refuse or stay exact."""
    return st.one_of(st.integers(lo, hi), BIG, st.integers(-(2**63), -(2**62)))


FORM = st.tuples(small(-4, 40), small(-8, 8), small(-4, 40))
PARAMS = st.tuples(small(1, 20), small(1, 20))
CASES = st.sampled_from(case_ids())


def _case_params(draw_case):
    """A case id, then as many drawn parameters as it takes and None for the rest."""

    def fit(drawn):
        case_id, *params = drawn
        arity = case_arity(case_id)
        return (case_id, *params[:arity], *[None] * (2 - arity))

    return st.tuples(draw_case, small(-1, 12), small(-1, 12)).map(fit)


def _table_reads(params, limit, n):
    table = CoeffTable(LambdaParams(*params), limit, "sparse", range(1, limit + 1))
    reads = (lambda: table.value(n), lambda: table.values(n), lambda: table.take([n]))
    return (table,) + tuple(outcome_of(read) for read in reads)


def _range(case_id, p_max, a, b):
    grid = None if case_arity(case_id) == 0 else [(a, b)[: case_arity(case_id)]]
    return range_report(case_id, p_max, grid=grid)


# sigma walks divisors to sqrt(n), so large n come only as small multiples of
# a large multiplier, where sigma(n/a) is cheap
_POWERS = st.sampled_from([2**62, 2**61, 2**60, 3 * 2**60, 2**59])
_SIGMA_SCALED = st.one_of(
    st.tuples(st.integers(-2, 10**6), small(-2, 60)),
    st.tuples(st.just(2**62), _POWERS),
)
_WEIGHTED = st.one_of(
    st.tuples(small(-1, 60), small(-1, 60), st.integers(-2, 10**6)),
    st.tuples(_POWERS, _POWERS, st.just(2**62)),
)

# name -> (strategy of an argument tuple, call on those arguments)
PROBES = {
    "CoeffTable": (st.tuples(PARAMS, st.integers(1, 30), small(-2, 32)), _table_reads),
    "ConstructionCase": (_case_params(CASES), ConstructionCase),
    "LambdaParams": (st.tuples(INT64, INT64), LambdaParams),
    "TableCache": (
        st.tuples(PARAMS, st.one_of(st.integers(-2, 3000), st.integers(2**50, 2**62))),
        lambda params, n: TableCache().values(*params, [n]),
    ),
    "class_group": (st.tuples(small(-3000, 5)), class_group),
    "closed_form": (
        st.tuples(
            st.sampled_from(etaquad.CLOSED_FAMILIES),
            small(-2, 300),
            st.one_of(st.none(), small(-1, 12)),
            st.one_of(st.none(), small(-1, 12)),
        ),
        closed_form,
    ),
    "divisor_sums": (st.tuples(st.integers(-2, 3000)), divisor_sums),
    "find_rep": (st.tuples(small(-1, 30), small(-1, 30), small(-2, 5000)), find_rep),
    "is_prime": (st.tuples(INT64), is_prime),
    "kronecker": (st.tuples(INT64, INT64), kronecker),
    "lambda_at": (
        st.tuples(PARAMS, st.one_of(st.integers(-2, 3000), st.integers(2**50, 2**62))),
        lambda params, n: lambda_at(LambdaParams(*params), [n]),
    ),
    "lambda_from_reps": (
        st.tuples(PARAMS, small(-2, 3000)),
        lambda params, n: lambda_from_reps(LambdaParams(*params), n),
    ),
    "lambda_multinomial": (
        st.tuples(PARAMS, small(-2, 12)),
        lambda params, n: lambda_multinomial(LambdaParams(*params), n),
    ),
    "lambda_table": (
        st.tuples(PARAMS, small(-2, 300), st.sampled_from(METHODS)),
        # a multinomial table sums every partition of each index, so it stays short
        lambda params, limit, method: lambda_table(
            LambdaParams(*params),
            limit,
            "sparse" if method == "multinomial" and limit > 12 else method,
        ),
    ),
    "lattice_points": (
        st.tuples(small(1, 30), small(1, 30), st.integers(-2, 3000)),
        lambda a, b, t_max: lattice_points(a, b, t_max, lambda t: t % 2 == 1),
    ),
    "make_case": (_case_params(CASES), make_case),
    "normalized_reps": (
        st.tuples(FORM, small(-2, 5000)),
        lambda f, n: normalized_reps(QuadForm(*f), n),
    ),
    "partition_terms": (st.tuples(st.integers(-2, 10)), lambda n: list(partition_terms(n))),
    "range_report": (
        st.tuples(CASES, small(-2, 300), st.integers(1, 12), st.integers(1, 12)),
        _range,
    ),
    "representations": (
        st.tuples(FORM, small(-2, 5000)),
        lambda f, n: representations(QuadForm(*f), n),
    ),
    "sieve_primes": (st.tuples(small(-2, 3000)), sieve_primes),
    "verify_construction": (
        st.tuples(_case_params(CASES), small(-2, 3000)),
        lambda case, p: verify_construction(make_case(*case), p),
    ),
    "verify_product": (
        st.tuples(_case_params(st.sampled_from(["T4.1", "T4.2", "T4.3"])), small(-2, 3000)),
        lambda case, p: verify_product(make_case(*case), p),
    ),
    "verify_thm53": (st.tuples(small(-2, 3000)), verify_thm53),
}

# the test oracles, probed like the public callables
ORACLE_PROBES = {
    "compose": (st.tuples(FORM, FORM), lambda f, g: compose(QuadForm(*f), QuadForm(*g))),
    "gauss_doubling": (st.tuples(st.integers(-2, 3000)), gauss_doubling),
    "inverse": (st.tuples(FORM), lambda f: inverse(QuadForm(*f))),
    "jacobsthal": (st.tuples(st.integers(-2, 3000)), jacobsthal),
    "reduce": (st.tuples(FORM), lambda f: reduce(QuadForm(*f))),
    "sigma": (st.tuples(st.integers(-2, 10**6)), sigma),
    "sigma_scaled": (_SIGMA_SCALED, sigma_scaled),
    "weighted_sigma": (_WEIGHTED, weighted_sigma),
}
ALL_PROBES = PROBES | ORACLE_PROBES

# name -> why no integer argument of it needs a probe
EXEMPT = {
    "QuadForm": "a plain record; the functions that take forms convert them with _int_form",
    **dict.fromkeys(
        ("ClassGroup", "RepSet", "RangeReport", "Verdict"),
        "a plain result record, built by the library from converted integers",
    ),
    **dict.fromkeys(
        ("InternalInconsistencyError", "PartitionCapError", "ResourceLimitError"),
        "an exception, built from a message",
    ),
    **dict.fromkeys(("case_arity", "case_ids"), "takes no integer"),
}


def _typed(value):
    """The value with the type of every part spelled out, so == compares
    types too: np.int64(5) and 5 differ here."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype.str, value.tolist()
    if is_dataclass(value):
        return type(value), tuple(_typed(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_typed(v) for v in value)
    slots = getattr(type(value), "__slots__", ())
    if slots:
        return type(value), tuple(_typed(getattr(value, name)) for name in slots)
    return type(value), value


def _as_numpy(value):
    if type(value) is int:
        return np.int64(value)
    if isinstance(value, tuple):
        return tuple(_as_numpy(v) for v in value)
    return value


def test_every_public_callable_is_probed_or_exempt():
    public = {name for name in etaquad.__all__ if callable(getattr(etaquad, name))}
    assert not set(PROBES) & set(EXEMPT)
    assert set(PROBES) | set(EXEMPT) == public


@pytest.mark.parametrize("name", sorted(ALL_PROBES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_numpy_integers_give_the_python_int_outcome(name, data):
    strategy, call = ALL_PROBES[name]
    args = data.draw(strategy)
    # a representation scan of a large target ends at its budget, here lowered
    # so that it ends at once, with the same error for both calls
    with mock.patch.object(quadform, "REPS_SCAN_BUDGET", 1 << 16):
        want = outcome_of(lambda: call(*args))
        got = outcome_of(lambda: call(*_as_numpy(args)))
    assert _typed(got) == _typed(want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sigma(6.0),
        lambda: sigma_scaled(12, 2.0),
        lambda: weighted_sigma(1, 7, 14.0),
        lambda: kronecker(2, 7.0),
        lambda: kronecker(2.0, 7),
        lambda: gauss_doubling(13.0),
        lambda: sieve_primes(30.0),
        lambda: range_report("E1.6", 100.0),
    ],
)
def test_non_integers_are_refused(call):
    # operator.index refuses what int() would truncate or a comparison would pass
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
