"""Interpolation, degree, sensitivity, decomposition, and the restriction
pipeline."""

import itertools
import json
import random
from array import array
from fractions import Fraction
from io import StringIO

import pytest

from hamlab import (
    ContractViolationError,
    FiniteFunction,
    GridPolynomial,
    InvalidInputError,
    ResourceLimitError,
    boolean_restriction_witness,
    degree,
    indicator_decomposition,
    interpolate,
    lifted_tribes,
    local_sensitivity,
    sensitivity,
    tribes,
    verify_sensitivity_bound,
)
from hamlab.encoding import write_json
from hamlab.functions import _alphabets, _sweep

ZERO_ONE = (0, 1)


def test_interpolate_constant():
    f = FiniteFunction((0, 1, 2), (7,), 2, (0,) * 9)
    poly = interpolate(f)
    assert poly.terms == {(0, 0): Fraction(7)}
    assert poly.degree() == 0


def test_interpolate_point_indicator():
    f = FiniteFunction((0, 1, 2), ZERO_ONE, 1, (1, 0, 0))
    poly = interpolate(f)
    # (x-1)(x-2)/2 = 1 - 3x/2 + x^2/2
    assert poly.terms == {
        (0,): Fraction(1),
        (1,): Fraction(-3, 2),
        (2,): Fraction(1, 2),
    }
    assert poly.degree() == 2


def test_interpolate_parity():
    f = FiniteFunction(ZERO_ONE, ZERO_ONE, 2, (0, 1, 1, 0))
    assert interpolate(f).terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 1): Fraction(-2),
    }


def test_interpolate_matches_table_everywhere():
    domain = (Fraction(-1), Fraction(1, 2), Fraction(3))
    values = (2, 0, 1, 1, 0, 2, 2, 1, 0)
    f = FiniteFunction(domain, (Fraction(-5), Fraction(0), Fraction(7, 3)), 2, values)
    poly = interpolate(f)
    for point in f.points():
        assert poly.evaluate(point) == f.value_at(point)


def test_interpolation_uniqueness():
    # interpolating the table of a low-per-variable-degree polynomial returns it
    poly = GridPolynomial(
        2,
        {(0, 0): Fraction(3, 2), (1, 2): Fraction(-1), (2, 1): Fraction(5)},
    )
    domain = (0, 1, 2)
    outputs = [poly.evaluate(p) for p in itertools.product(domain, repeat=2)]
    codomain = tuple(sorted(set(outputs)))
    table = tuple(codomain.index(v) for v in outputs)
    f = FiniteFunction(domain, codomain, 2, table)
    assert interpolate(f).terms == poly.terms


def test_function_documents_respect_the_cap():
    doc = FiniteFunction((0, 1, 2), ZERO_ONE, 2, (0,) * 9).to_doc()
    with pytest.raises(ResourceLimitError, match=r"^enumerating 3\^2 grid points exceeds the "
                                                 r"configured cap of 8$"):
        FiniteFunction.from_doc(doc, cap=8)
    assert FiniteFunction.from_doc(doc, cap=9).point_count == 9


def test_finite_function_validation():
    with pytest.raises(InvalidInputError):
        FiniteFunction((0, 0, 1), ZERO_ONE, 1, (0, 0, 0))
    with pytest.raises(InvalidInputError, match=r"^value table length 3 != vertex count 2\^2$"):
        FiniteFunction((0, 1), ZERO_ONE, 2, (0, 0, 0))
    for bad in (2, -1, 300, 70_000):
        with pytest.raises(InvalidInputError, match=rf"^value index {bad} outside 0\.\.1$"):
            FiniteFunction((0, 1), ZERO_ONE, 1, (0, bad))


def _wide(codomain_size, domain=(0, 1, 2), arity=2, seed=0):
    """A function whose table uses the top codomain index, with the rest
    drawn at random."""
    rng = random.Random(seed)
    values = [rng.randrange(codomain_size) for _ in range(len(domain) ** arity)]
    values[rng.randrange(len(values))] = codomain_size - 1
    return FiniteFunction(domain, range(codomain_size), arity, values)


@pytest.mark.parametrize("codomain_size,typecode", [
    (1, None), (2, None), (11, None), (256, None), (257, "H"), (65_536, "H"), (65_537, "I"),
])
def test_value_table_storage_follows_the_codomain(codomain_size, typecode):
    f = _wide(codomain_size, domain=(0, 1), arity=3)
    if typecode is None:
        assert type(f.values) is bytes
    else:
        assert type(f.values) is array and f.values.itemsize == array(typecode).itemsize
    assert max(f.values) == codomain_size - 1


@pytest.mark.parametrize("seed", range(4))
def test_array_tables_match_the_pointwise_definitions(seed):
    f = _wide(300, domain=(0, Fraction(1, 2), 3), arity=3, seed=seed)
    assert type(f.values) is array
    local = [local_sensitivity(f, p) for p in f.points()]
    best = max(local)
    assert sensitivity(f) == (best, list(f.points())[local.index(best)])
    poly = interpolate(f)
    assert degree(f) == poly.degree()
    assert all(poly.evaluate(p) == f.value_at(p) for p in f.points())


@pytest.mark.parametrize("codomain_size", [2, 11, 300])
def test_to_doc_writes_like_the_stdlib_on_the_listed_values(codomain_size):
    f = _wide(codomain_size)
    doc = f.to_doc()
    assert doc["values"] is f.values
    out = StringIO()
    write_json(doc, out)
    listed = {**doc, "values": list(doc["values"])}
    assert out.getvalue() == json.dumps(listed, sort_keys=True, indent=2) + "\n"
    assert FiniteFunction.from_doc(json.loads(out.getvalue())) == f


def test_finite_function_roundtrip():
    f = FiniteFunction((Fraction(1, 2), 3), (0, Fraction(2, 7)), 2, (0, 1, 1, 0))
    doc = f.to_doc()
    assert doc["A"] == ["1/2", 3]
    assert doc["B"] == [0, "2/7"]
    assert FiniteFunction.from_doc(doc) == f


def test_degree_examples():
    assert degree(tribes(2)) == 4
    assert degree(lifted_tribes((0, 1, 2), 0, 2)) == 8
    assert degree(FiniteFunction((0, 1, 2), (5,), 1, (0, 0, 0))) == 0


def test_sensitivity_constant_and_witness_validity():
    constant = FiniteFunction((0, 1, 2), (4,), 2, (0,) * 9)
    value, witness = sensitivity(constant)
    assert value == 0
    assert local_sensitivity(constant, witness) == 0


def test_sensitivity_attained_at_all_ones_for_tribes():
    for s in (1, 2, 3):
        f = tribes(s)
        value, witness = sensitivity(f)
        assert value == s
        assert local_sensitivity(f, (1,) * (s * s)) == s
        assert local_sensitivity(f, witness) == value


def test_sensitivity_lifted_tribes_witness_is_all_marked():
    f = lifted_tribes((0, 1, 2), 0, 2)
    value, witness = sensitivity(f)
    assert value == 4
    assert witness == (0, 0, 0, 0)


def test_sensitivity_codomain_beyond_one_byte():
    # values 0, 1, 256 and 257 agree in their low byte two by two
    codomain = tuple(range(600))
    values = [256 * (r % 3 == 0) + (r // 5) % 2 for r in range(3 ** 5)]
    f = FiniteFunction((0, 1, 2), codomain, 5, values)
    points = list(f.points())
    local = [local_sensitivity(f, p) for p in points]
    assert sensitivity(f) == (max(local), points[local.index(max(local))])


def test_finite_function_rejects_huge_arity_without_computing_the_grid():
    with pytest.raises(InvalidInputError):
        FiniteFunction((0, 1, 2), ZERO_ONE, 99_999_999, (0, 1))


def test_tribes_checks_cap_before_enumerating():
    with pytest.raises(ResourceLimitError):
        tribes(6, cap=1000)
    with pytest.raises(ResourceLimitError):
        lifted_tribes((0, 1, 2), 0, 6, cap=1000)
    assert tribes(2, cap=16).arity == 4
    for tribe_count in (0, 1, 2):  # len(range(10**20)) would overflow
        with pytest.raises(ResourceLimitError, match="grid points"):
            lifted_tribes(range(10 ** 20), 0, tribe_count)


def test_local_sensitivity_validates_point():
    f = tribes(1)
    with pytest.raises(InvalidInputError):
        local_sensitivity(f, (2,))
    pair = FiniteFunction(ZERO_ONE, ZERO_ONE, 2, (0, 1, 1, 0))
    with pytest.raises(InvalidInputError, match=r"^point has 1 coordinates, expected 2$"):
        pair.point_rank((0,))


def test_indicator_decomposition_identities():
    domain = (0, 1, 2)
    f = FiniteFunction(domain, (0, 1, 2), 1, (0, 1, 2))  # identity
    components = indicator_decomposition(f)
    assert len(components) == 3
    for comp in components:
        assert degree(comp) == 2
    for point in f.points():
        total = sum(
            f.codomain[b] * comp.value_at(point)
            for b, comp in enumerate(components)
        )
        assert total == f.value_at(point)
        assert sum(comp.value_at(point) for comp in components) == 1


def test_indicator_decomposition_single_value_range():
    f = FiniteFunction((0, 1), (9,), 1, (0, 0))
    (component,) = indicator_decomposition(f)
    assert tuple(component.values) == (1, 1)


def test_indicator_decomposition_is_capped_by_its_labels():
    f = FiniteFunction((0, 1, 2), tuple(range(300)), 1, (0, 299, 7))  # array labels
    with pytest.raises(ResourceLimitError, match="300 indicators of 3 points"):
        indicator_decomposition(f, cap=899)
    components = indicator_decomposition(f, cap=900)
    assert [tuple(components[b].values) for b in (0, 7, 299, 1)] == [
        (1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0)]


def test_indicator_decomposition_degree_cover_exhaustive():
    # over every function {0,1,2}^1 -> {0,1,2}: some indicator reaches deg(f)
    domain = (0, 1, 2)
    for table in itertools.product(range(3), repeat=3):
        f = FiniteFunction(domain, (0, 1, 2), 1, table)
        d = degree(f)
        assert max(degree(c) for c in indicator_decomposition(f)) >= d


def test_indicator_sensitive_point_transfer():
    # every indicator's local sensitivity is dominated pointwise by f's
    domain = (0, 1, 2)
    for table in itertools.product(range(3), repeat=3):
        f = FiniteFunction(domain, (0, 1, 2), 1, table)
        components = indicator_decomposition(f)
        for point in f.points():
            for comp in components:
                assert local_sensitivity(comp, point) <= local_sensitivity(f, point)
    for table in [(2, 0, 1, 1, 1, 0, 0, 2, 2), (0, 1, 2, 2, 1, 0, 1, 1, 0)]:
        f = FiniteFunction(domain, (0, 1, 2), 2, table)
        components = indicator_decomposition(f)
        for point in f.points():
            for comp in components:
                assert local_sensitivity(comp, point) <= local_sensitivity(f, point)


def test_degrees_checks_every_table_and_the_alphabets():
    # the messages a FiniteFunction of the same table would raise
    bits = _alphabets((0, 1), (0, 1), 1)
    with pytest.raises(InvalidInputError, match=r"value index 2 outside 0\.\.1"):
        list(_sweep(*bits, 1, [(0, 1), (1, 2)]))
    with pytest.raises(InvalidInputError, match=r"value table length 3 != vertex count 2\^1"):
        list(_sweep(*bits, 1, [(0, 1, 1)]))
    with pytest.raises(InvalidInputError, match="domain values must be nonempty"):
        _alphabets((0, 0), (0, 1), 1)
    assert list(_sweep(*bits, 2, [])) == []
    tables = [(0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    assert [d for _, _, d, _ in _sweep(*bits, 2, tables)] == [2, 2, 0]


def test_restriction_hand_example():
    # indicator of x1 = 0 over {0,1,2}^2
    f = FiniteFunction((0, 1, 2), ZERO_ONE, 2, (1, 1, 1, 0, 0, 0, 0, 0, 0))
    witness = boolean_restriction_witness(f)
    assert witness.target_support == 1
    assert 0 in witness.retained_pairs[0]  # only pairs containing 0 separate values
    g = witness.boolean_function
    assert g.domain == (0, 1) and g.codomain == (0, 1)
    assert degree(g) == 1


def test_restriction_lifted_tribes():
    f = lifted_tribes((0, 1, 2), 0, 2)
    witness = boolean_restriction_witness(f)
    assert witness.target_support == 4
    g = witness.boolean_function
    g_sensitivity, _ = sensitivity(g)
    assert degree(g) >= 4
    assert g_sensitivity <= sensitivity(f)[0]
    assert g_sensitivity >= 2  # sqrt of the support target


def test_restriction_preserves_sensitivity_via_subgrid():
    # restricted functions live on a sub-grid, so sensitivity cannot grow
    domain = (0, 1, 2)
    tables = [(1, 0, 2, 0, 1, 1, 2, 2, 0), (0, 1, 1, 1, 0, 2, 2, 0, 1)]
    for table in tables:
        f = FiniteFunction(domain, (0, 1, 2), 2, table)
        if degree(f) < 1:
            continue
        witness = boolean_restriction_witness(f)
        g = witness.boolean_function
        assert sensitivity(g)[0] <= sensitivity(f)[0]
        assert degree(g) >= witness.target_support


def test_restriction_rejects_constants():
    constant = FiniteFunction((0, 1, 2), (3,), 2, (0,) * 9)
    with pytest.raises(InvalidInputError):
        boolean_restriction_witness(constant)


@pytest.mark.parametrize("domain", [(0, 10, 20), tuple(range(8))])
def test_restriction_rejects_a_table_of_zeros(domain):
    # the only codomain value is 0, so no indicator may be sized for f's
    # table: its slots would hold nothing
    f = FiniteFunction(domain, (0,), 1, (0,) * len(domain))
    with pytest.raises(InvalidInputError, match="constant functions admit no restriction"):
        boolean_restriction_witness(f)


def test_restriction_boolean_input_passthrough():
    f = tribes(2)
    witness = boolean_restriction_witness(f)
    assert witness.target_support == 4
    assert degree(witness.boolean_function) == 4
    assert all(pair == (0, 1) for pair in witness.retained_pairs)


def test_restriction_witness_doc():
    witness = boolean_restriction_witness(
        FiniteFunction((0, 1, 2), ZERO_ONE, 1, (1, 0, 0))
    )
    doc = witness.to_doc()
    assert doc["targetSupport"] == 1
    assert len(doc["pairs"]) == 1
    assert doc["g"]["A"] == [0, 1]


def test_verify_bound_constant_holds():
    report = verify_sensitivity_bound(FiniteFunction((0, 1, 2), (3,), 1, (0, 0, 0)))
    assert report.holds and report.degree == 0 and report.sensitivity == 0
    assert report.ratio is None


def test_verify_bound_lifted_tribes_ratio():
    report = verify_sensitivity_bound(lifted_tribes((0, 1, 2), 0, 2))
    assert report.holds
    assert report.sensitivity == 4 and report.degree == 8
    assert report.ratio == pytest.approx(2.0, abs=1e-12)


def test_tribes_small_cases():
    one = tribes(1)
    assert tuple(one.values) == (0, 1)  # identity on one bit
    assert degree(one) == 1 and sensitivity(one)[0] == 1
    three = tribes(3)
    assert degree(three) == 9 and sensitivity(three)[0] == 3


def test_lifted_tribes_examples():
    f = lifted_tribes((0, 1, 2), 0, 2)
    assert degree(f) == 8 and sensitivity(f)[0] == 4

    boolean_lift = lifted_tribes((0, 1), 1, 2)
    assert boolean_lift.values == tribes(2).values  # marked value 1 is the identity lift

    wide = lifted_tribes((0, 1, 2, 3), 0, 2)
    assert degree(wide) == 12 and sensitivity(wide)[0] == 6


def test_lifted_tribes_rejects_foreign_mark():
    with pytest.raises(InvalidInputError):
        lifted_tribes((0, 1, 2), 5, 2)


def test_polynomial_doc_sorted_by_degree_then_exponents():
    poly = GridPolynomial(
        2,
        {(2, 0): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(1, 3), (0, 0): Fraction(-1)},
    )
    doc = poly.to_doc()
    assert [entry["exponents"] for entry in doc] == [[0, 0], [0, 1], [1, 1], [2, 0]]
    assert doc[2]["coefficient"] == "1/3"
    assert GridPolynomial.from_doc(doc).terms == poly.terms


@pytest.mark.parametrize("exponents", [[0, 1.0], [True, 0], ["1", 0]])
def test_polynomial_doc_rejects_non_integer_exponents(exponents):
    with pytest.raises(InvalidInputError):
        GridPolynomial.from_doc([{"exponents": exponents, "coefficient": 1}])


def test_polynomial_rejects_points_and_exponents_of_the_wrong_arity():
    with pytest.raises(InvalidInputError, match=r"^bad exponent vector \(1,\)$"):
        GridPolynomial(2, {(1,): 1})
    with pytest.raises(InvalidInputError, match=r"^point has 1 coordinates, expected 2$"):
        GridPolynomial(2, {(1, 0): 1}).evaluate((0,))


def test_polynomial_drops_zero_coefficients():
    poly = GridPolynomial(1, {(0,): Fraction(0), (1,): Fraction(2)})
    assert poly.terms == {(1,): Fraction(2)}
    assert GridPolynomial(1, {}).degree() == 0
