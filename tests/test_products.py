import itertools
import math
import random

import pytest

from finreg.boolean import BooleanRing
from finreg.errors import CapExceeded
from finreg.fields import GF
from finreg.products import (ProductElem, ProductRing, RingSignature,
                             SubringPresentation, char_decompose, decompose_finite_reduced,
                             extract_combination, full_presentation,
                             generated_subring, iso_test,
                             residue_field_signature, ring_char,
                             ring_from_signature, structure_decompose)
from finreg import products, stepfun
from finreg.stepfun import StepRing


def P(*specs):
    return ProductRing([(GF(q), atoms) for q, atoms in specs])


def test_componentwise_arithmetic():
    R = P((2, 1), (3, 1))
    x = R.element([1, 2])
    y = R.element([1, 1])
    assert x + y == R.element([0, 0])
    assert x * y == R.element([1, 2])
    assert -x == R.element([1, 1])


def test_scalar_and_char():
    R = P((2, 1), (3, 2))
    assert ring_char(R) == 6
    six = R.scalar(6)
    assert six == R.zero
    assert R.scalar(3).support_profile() == (1, 0)  # 3 = 1 mod 2, 0 mod 3


def test_generated_subring_prime_ring():
    # no generators: the prime subring; {0, 1} in characteristic 2
    R = P((2, 2))
    T = generated_subring(SubringPresentation(R, ()))
    assert set(T) == {R.zero, R.one}


def test_generated_subring_gf4_generator():
    R = P((4, 1))
    K = GF(4)
    T = generated_subring(SubringPresentation(R, (R.scalar_at(0, K.generator),)))
    assert len(T) == 4  # saturation adds g^2 = g+1 and g^3 = 1


def test_generated_subring_idempotent():
    R = P((2, 2))
    S = R.factors[0]
    e = R.element([S.indicator(0b01)])
    T = generated_subring(SubringPresentation(R, (e,)))
    other = R.element([S.indicator(0b10)])
    assert set(T) == {R.zero, R.one, e, other}


def test_generated_subring_cap():
    R = P((4, 2))
    with pytest.raises(CapExceeded):
        generated_subring(full_presentation(R), cap=3)


def _all_pairs_closure(pres, cap):
    """Reference: close gens plus {0, 1, -1} under + and * by combining every
    new element with everything found so far."""
    ring = pres.ambient
    known = {ring.zero, ring.one, -ring.one, *pres.gens}
    frontier = list(known)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(known):
                new.update(c for c in (a + b, a * b) if c not in known)
            if len(known) + len(new) > cap:
                raise CapExceeded(f"closure exceeds {cap}")
        known.update(new)
        frontier = list(new)
    return known


SHAPES = [shape for k in (1, 2, 3)
          for shape in itertools.combinations_with_replacement(
              [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in (1, 2, 3)], k)
          if math.prod(q ** m for q, m in shape) <= 256]


def test_generated_subring_matches_all_pairs_closure():
    rng = random.Random(20240801)
    sizes = []
    for _ in range(30):
        R = P(*rng.choice(SHAPES))
        pres = SubringPresentation(R, tuple(R.random_element(rng)
                                            for _ in range(rng.randint(1, 2))))
        try:
            expected = _all_pairs_closure(pres, cap=200)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                generated_subring(pres, cap=200)
            continue
        T = generated_subring(pres, cap=200)
        assert set(T) == expected
        assert len(T) == len(expected)  # no duplicates
        keys = [t.sort_key() for t in T]
        assert keys == sorted(keys)
        sizes.append(len(T))
    assert len(sizes) >= 20 and max(sizes) > 150  # the draw reaches large subrings


def test_generated_subring_cap_in_monoid_phase(monkeypatch):
    # the powers of 3 in GF(7) are its six units: the monoid alone exceeds 4
    R = P((7, 1))
    pres = SubringPresentation(R, (R.scalar(3),))
    assert len(generated_subring(pres)) == 7

    def no_addition(self, other):
        raise AssertionError("the span phase was entered")

    monkeypatch.setattr(ProductElem, "__add__", no_addition)
    with pytest.raises(CapExceeded):
        generated_subring(pres, cap=4)


def test_generated_subring_cap_in_span_phase():
    # the monoid of the prime subring of GF(7) is {1, -1}; its span has 7 elements
    R = P((7, 1))
    pres = SubringPresentation(R, ())
    assert len(generated_subring(pres, cap=7)) == 7
    with pytest.raises(CapExceeded):
        generated_subring(pres, cap=6)
    with pytest.raises(CapExceeded):
        generated_subring(pres, cap=2)


def test_decompose_z6_prime_subring():
    R = P((2, 1), (3, 1))
    T = generated_subring(SubringPresentation(R, ()))
    assert len(T) == 6
    parts = decompose_finite_reduced(T)
    # oracle: 3*1 = (1, 0) and 4*1 = (0, 1) are the primitive idempotents
    three = R.scalar(3)
    four = R.scalar(4)
    assert three * three == three and four * four == four
    assert {eps for eps, _ in parts} == {three, four}
    assert sorted(fc.order for _, fc in parts) == [2, 3]


def test_decompose_diagonal_gf4_is_a_single_field():
    R = P((4, 2))
    T = generated_subring(SubringPresentation(R, (R.scalar_at(0, GF(4).generator),)))
    parts = decompose_finite_reduced(T)
    assert len(parts) == 1
    eps, fc = parts[0]
    assert eps == R.one and (fc.p, fc.n) == (2, 2)


def test_decompose_rejects_non_closed_sets():
    R = P((3, 1))
    # {0, 1} is not closed under addition in characteristic 3
    with pytest.raises(ValueError, match="not closed"):
        decompose_finite_reduced([R.zero, R.one])
    R5 = P((5, 1))
    with pytest.raises(ValueError, match="not closed"):
        decompose_finite_reduced([R5.zero, R5.one, R5.scalar(2)])


def test_structure_trivial_boolean_ring():
    sig, wit = structure_decompose(SubringPresentation(P((2, 3)), ()))
    assert str(sig) == "sig{GF(2):3}"
    assert wit.subring_size == 2


def test_structure_mixed_block_example():
    # u = g on atoms {0,1}, 1 on atom 2, 0 on atom 3 inside GF(4)^[B4]
    R = P((4, 4))
    K = GF(4)
    S = R.factors[0]
    u = R.element([S.from_values([K.generator, K.generator, K.one, K.zero])])
    sig, wit = structure_decompose(SubringPresentation(R, (u,)))
    assert str(sig) == "sig{GF(2):2, GF(4):2}"
    # independent per-atom oracle: the subfield generated by u's residue
    degrees = [u.parts[0].value_at(j).residue_degree() for j in range(4)]
    assert degrees == [2, 2, 1, 1]


def test_producto_merge():
    sig, _ = structure_decompose(SubringPresentation(P((2, 1), (2, 2)), ()))
    assert str(sig) == "sig{GF(2):3}"


def test_residue_signature_is_an_independent_oracle():
    R = P((4, 3), (3, 2))
    pres = full_presentation(R)
    assert residue_field_signature(pres) == structure_decompose(pres)[0]
    # a presentation that only generates subfields at some primes
    K4 = GF(4)
    S = R.factors[0]
    u = R.element([S.from_values([K4.generator, K4.one, K4.zero]), 1])
    pres2 = SubringPresentation(R, (u,))
    sig2 = residue_field_signature(pres2)
    assert sig2 == structure_decompose(pres2)[0]
    assert sig2.as_dict() == {(2, 2): 1, (2, 1): 2, (3, 1): 2}


def test_iso_tests():
    a = full_presentation(P((2, 2)))
    b = full_presentation(P((2, 1), (2, 1)))
    c = full_presentation(P((4, 2)))
    assert iso_test(a, a)
    assert iso_test(a, b)
    assert not iso_test(a, c)


def test_signature_roundtrip_small():
    for d in ({(2, 1): 3}, {(2, 2): 1, (3, 1): 2}, {(2, 1): 1, (2, 2): 1, (3, 1): 1}):
        sig = RingSignature.from_dict(d)
        ring = ring_from_signature(sig)
        got, _ = structure_decompose(full_presentation(ring))
        assert got == sig


def test_signature_printing():
    sig = RingSignature.from_dict({(2, 2): 1, (2, 1): 3})
    assert str(sig) == "sig{GF(2):3, GF(4):1}"


def test_char_decompose_blocks():
    R = P((2, 1), (3, 1))
    blocks = char_decompose(R)
    assert ring_char(R) == 6
    assert [(b.prime, b.factor_indices) for b in blocks] == [(2, (0,)), (3, (1,))]
    assert blocks[0].idempotent == R.element([1, 0])
    assert blocks[1].idempotent == R.element([0, 1])

    R2 = P((2, 1), (4, 1), (3, 1))
    blocks2 = char_decompose(R2)
    assert [b.prime for b in blocks2] == [2, 3]
    char2 = blocks2[0].subring
    sig, _ = structure_decompose(full_presentation(char2))
    assert str(sig) == "sig{GF(2):1, GF(4):1}"


def test_extraction_on_products():
    R = P((2, 1), (3, 1))
    elems = list(R.elements())
    gens = [R.scalar(k) for k in range(6)]  # diagonal integers cover both factors
    for x in elems:
        combo = extract_combination(x, gens)
        assert R.convex(combo.coeffs, combo.values) == x


def test_presentation_invariance_under_permutations():
    R = P((2, 1), (3, 2))
    pres = full_presentation(R)
    base, _ = structure_decompose(pres)
    rev, _ = structure_decompose(SubringPresentation(R, tuple(reversed(pres.gens))))
    assert rev == base
    swapped, _ = structure_decompose(full_presentation(P((3, 2), (2, 1))))
    assert swapped == base


def test_alternative_generating_sets():
    K4 = GF(4)
    R = P((4, 2))
    one_gen = SubringPresentation(R, (R.scalar_at(0, K4.generator),))
    other_gen = SubringPresentation(R, (R.scalar_at(0, K4.generator + K4.one),))
    both, _ = structure_decompose(SubringPresentation(
        R, (R.scalar_at(0, K4.generator), R.scalar_at(0, K4.generator + K4.one))))
    s1, _ = structure_decompose(one_gen)
    s2, _ = structure_decompose(other_gen)
    assert s1 == s2 == both


# -- interning ----------------------------------------------------------------

def test_product_rings_are_interned():
    assert ProductRing([(GF(2), 1)]) is ProductRing([StepRing(GF(2), BooleanRing(1))])
    R = P((2, 1), (3, 2))
    assert ProductRing(R.factors) is R
    assert ProductRing(f for f in [(GF(2), BooleanRing(1)), (GF(3), 2)]) is R
    assert ProductRing([(GF(3), 2), (GF(2), 1)]) is not R  # factor order matters
    assert "__eq__" not in vars(ProductRing) and "__hash__" not in vars(ProductRing)


def test_char_decompose_subring_is_the_interned_sub_product():
    R = P((2, 1), (3, 2), (4, 1))
    blocks = char_decompose(R)
    assert blocks[0].subring is P((2, 1), (4, 1))
    assert blocks[1].subring is P((3, 2))


# -- the product paths against the formulas they replaced ----------------------

FACTOR_SHAPES = (((2, 1),), ((3, 2),), ((2, 1), (3, 1)), ((4, 1), (2, 2)),
          ((2, 2), (3, 1), (5, 1)), ((3, 1), (2, 1), (2, 1)))


def reference_elements(ring):
    """Mixed radix over the factor orders, factor 0 and atom 0 least significant."""
    for idx in range(ring.size):
        parts = []
        for f in ring.factors:
            idx, sub = divmod(idx, f.size)
            values = []
            for _ in range(f.bool_ring.atom_count):
                sub, v = divmod(sub, f.field.q)
                values.append(f.field.from_index(v))
            parts.append(f.from_values(values))
        yield ring.element(parts)


def reference_coefficient_profiles(x, gens):
    """a_i = (1 - b_i) * prod_{j<i} b_j on whole support profiles."""
    fulls = [f.bool_ring.full_mask for f in x.ring.factors]
    running = list(fulls)
    out = []
    for g in gens:
        b = (x - g).support_profile()
        out.append(tuple((full ^ m) & r for full, m, r in zip(fulls, b, running)))
        running = [r & m for r, m in zip(running, b)]
    return out


def reference_convex(ring, coeffs, values):
    profiles = [c.support_profile() for c in coeffs]
    parts = []
    for i, f in enumerate(ring.factors):
        pairs = [(bmask & prof[i], f.field.from_index(bval)) for prof, val in zip(profiles, values)
                 for bmask, bval in val.parts[i].blocks if bmask & prof[i]]
        parts.append(f.from_blocks(pairs))
    return ring.element(parts)


@pytest.mark.parametrize("shape", FACTOR_SHAPES, ids=str)
def test_product_enumeration_order_and_index(shape):
    R = P(*shape)
    elems = list(R.elements())
    assert elems == list(reference_elements(R))
    assert [R.element_index(x) for x in elems] == list(range(R.size))
    assert R.cached_elements() == tuple(elems)


@pytest.mark.parametrize("shape", FACTOR_SHAPES[2:], ids=str)
def test_product_extraction_matches_per_factor_step_masks(shape):
    R = P(*shape)
    rng = random.Random(len(shape))
    base = list(full_presentation(R).gens)
    families = [base, base[::-1], [R.random_element(rng) for _ in range(3)] + base]
    for gens in families:
        for x in R.elements():
            combo = extract_combination(x, gens)
            profiles = [c.support_profile() for c in combo.coeffs]
            assert all(c.is_idempotent() for c in combo.coeffs)
            assert profiles == reference_coefficient_profiles(x, gens)
            step_masks = [
                [c.mask for c in stepfun.extract_combination(
                    part, [g.parts[i] for g in gens]).coeffs]
                for i, part in enumerate(x.parts)]
            assert profiles == list(zip(*step_masks))
            assert combo.evaluate(R) == x


@pytest.mark.parametrize("shape", FACTOR_SHAPES[2:], ids=str)
def test_product_convex_matches_the_reference_formula(shape):
    R = P(*shape)
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 4)
        owner = {label: rng.randrange(k) for label in R.prime_labels()}
        coeffs = [R.from_profile(
            [sum(1 << j for j in range(f.bool_ring.atom_count) if owner[(i, j)] == c)
             for i, f in enumerate(R.factors)]) for c in range(k)]
        values = [R.random_element(rng) for _ in range(k)]
        assert R.convex(coeffs, values) == reference_convex(R, coeffs, values)


def test_product_extraction_error_names_factor_and_atom():
    R = P((2, 1), (3, 2))
    x = R.element([1, R.factors[1].from_values([0, 2])])
    expected = ("family does not reach ({[all]->1} | {[0]->0; [1]->2}) at factor 1, "
                "atom 1: value 2 is not attained by any generator there")
    with pytest.raises(ValueError) as info:
        extract_combination(x, [0, 1])
    assert str(info.value) == expected


@pytest.mark.parametrize("q, atoms", [(2, 2), (3, 2), (4, 1)])
def test_product_cover_check_agrees_with_the_step_ring(q, atoms):
    S = StepRing(GF(q), BooleanRing(atoms))
    R = ProductRing([S])
    scalars = [S.scalar(k) for k in S.field.elements()]
    for r in range(len(scalars) + 1):
        for subset in itertools.combinations(scalars, r):
            for kwargs in ({}, {"product_cap": 1}):
                step = stepfun.check_residue_cover(S, subset, rng=random.Random(r), **kwargs)
                prod = products.check_residue_cover(R, subset, rng=random.Random(r), **kwargs)
                assert (prod.ok, prod.product_ok, prod.product_checked,
                        prod.product_exhaustive) == (step.ok, step.product_ok,
                                                     step.product_checked,
                                                     step.product_exhaustive)
                assert prod.missing == tuple((0, *entry) for entry in step.missing)
                assert all(len(entry) == 2 for entry in step.missing)


def test_size_text_is_decimal_until_python_cannot_print_it():
    R = P((4, 3), (3, 2))
    assert stepfun.size_text(R.factors) == str(R.size) == "576"
    wide = P((2, 13000))          # 3914 decimal digits, below the 4300 limit
    assert stepfun.size_text(wide.factors) == str(wide.size)
    huge = P((4, 20000), (3, 2), (8, 3))
    assert stepfun.size_text(huge.factors) == "2^40009 * 3^2"
    assert stepfun.size_text(huge.factors[:1]) == "2^40000"
    with pytest.raises(CapExceeded, match=r"has 2\^40000 \* 3\^2 elements"):
        P((4, 20000), (3, 2)).cached_elements()
    with pytest.raises(CapExceeded, match=r"has 2\^40000 elements"):
        next(huge.factors[0].elements())
