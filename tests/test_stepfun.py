import itertools
import random

import pytest

from finreg.boolean import BooleanRing
from finreg.errors import CapExceeded, VerificationError
from finreg.fields import GF, finite_field
from finreg.products import ProductRing
from finreg.stepfun import (PRODUCT_CHECK_CAP, CoverReport, StepRing, check_residue_cover,
                            extract_combination)


def ring(q, atoms):
    return StepRing(GF(q), BooleanRing(atoms))


def dense(x):
    """Independent view: the tuple of values atom by atom."""
    return tuple(x.value_at(j) for j in range(x.ring.bool_ring.atom_count))


def test_arithmetic_matches_pointwise_oracle():
    rng = random.Random(11)
    for _ in range(300):
        R = ring(rng.choice((2, 3, 4, 5, 9)), rng.randint(1, 5))
        x, y = R.random_element(rng), R.random_element(rng)
        vx, vy = dense(x), dense(y)
        assert dense(x + y) == tuple(a + b for a, b in zip(vx, vy))
        assert dense(x * y) == tuple(a * b for a, b in zip(vx, vy))
        assert dense(x - y) == tuple(a - b for a, b in zip(vx, vy))
        assert dense(-x) == tuple(-a for a in vx)


def test_spec_arithmetic_examples():
    R = ring(3, 2)
    x = R.from_values([1, 2])
    y = R.from_values([2, 2])
    assert x + y == R.from_values([0, 1])
    b = R.indicator(R.bool_ring.atom(0))
    assert x * b == R.from_values([1, 0])
    assert x + R.zero == x and x * R.one == x


def test_identities_and_normal_form():
    R = ring(4, 3)
    K = R.field
    g = K.generator
    x = R.from_values([g, g, K.zero])
    # the same element assembled from split, shuffled blocks
    y = R.from_blocks([(0b010, g), (0b100, K.zero), (0b001, g)])
    assert x == y and hash(x) == hash(y)
    assert len(x.blocks) == 2  # equal values merged
    assert str(x) == "{[2]->0; [0,1]->g}"


def test_support_idempotent():
    R = ring(4, 2)
    K = R.field
    assert R.zero.support() == R.zero
    assert R.one.support() == R.one
    assert R.scalar(K.generator).support() == R.one
    x = R.from_values([K.generator, K.zero])
    assert x.support() == R.indicator(R.bool_ring.atom(0))
    assert x.support() * x.support() == x.support()


def test_quasi_inverse():
    R3 = ring(3, 2)
    x = R3.from_values([2, 0])
    xi = x.quasi_inverse()
    assert xi == R3.from_values([2, 0])  # 2 is its own inverse mod 3
    assert R3.zero.quasi_inverse() == R3.zero
    u = R3.scalar(2)
    assert u.quasi_inverse() == R3.scalar(2)
    rng = random.Random(3)
    for _ in range(200):
        R = ring(rng.choice((2, 3, 4, 8)), rng.randint(1, 4))
        x = R.random_element(rng)
        xi = x.quasi_inverse()
        assert x * xi * x == x and xi * x * xi == xi
        assert x * xi == x.support()
        assert x.unit_part() * x.support() == x


def test_convex_combination():
    R = ring(3, 2)
    B = R.bool_ring
    assert R.convex([B.one], [2]) == R.scalar(2)
    x = R.convex([B.atom(0), B.atom(1)], [1, 2])
    assert x == R.from_values([1, 2])
    # permuting the pairs leaves the result unchanged
    assert R.convex([B.atom(1), B.atom(0)], [2, 1]) == x
    with pytest.raises(ValueError):
        R.convex([B.atom(0), B.atom(0)], [1, 2])


def test_extraction_follows_the_constructive_formula():
    R = ring(3, 2)
    x = R.from_values([1, 2])
    combo = extract_combination(x, [0, 1, 2])
    # supports: x-0 is everywhere nonzero, x-1 vanishes on atom 0, x-2 on atom 1
    assert [c.mask for c in combo.coeffs] == [0b00, 0b01, 0b10]
    assert combo.evaluate(R) == x
    # zero coefficients are retained, order follows the generators
    assert len(combo.coeffs) == 3


def test_extraction_scalar_shortcut():
    R = ring(5, 3)
    combo = extract_combination(R.scalar(3), [3, 0, 1])
    assert [c.mask for c in combo.coeffs] == [R.bool_ring.full_mask, 0, 0]


def test_extraction_exhaustive_reconstruction_gf2_b3():
    R = ring(2, 3)
    for x in R.elements():
        combo = extract_combination(x, [0, 1])
        assert combo.evaluate(R) == x


def test_extraction_error_names_the_offending_atom():
    R = ring(3, 2)
    x = R.from_values([1, 2])
    with pytest.raises(ValueError, match="atom 1"):
        extract_combination(x, [0, 1])


def test_extraction_with_step_function_generators():
    R = ring(3, 2)
    g1 = R.from_values([1, 2])
    g2 = R.from_values([2, 0])
    g3 = R.from_values([0, 1])
    # residues at atom 0: {1, 2, 0}; atom 1: {2, 0, 1}: full cover
    assert check_residue_cover(R, [g1, g2, g3]).ok
    for x in R.elements():
        combo = extract_combination(x, [g1, g2, g3])
        assert combo.evaluate(R) == x


def test_cover_check_examples():
    R22 = ring(2, 2)
    assert check_residue_cover(R22, [0, 1]).ok

    R41 = ring(4, 1)
    rep = check_residue_cover(R41, [0, 1])
    assert not rep.ok
    missing = {str(v) for _, v in rep.missing}
    assert missing == {"g", "g+1"}

    R32 = ring(3, 2)
    rep = check_residue_cover(R32, [0, 1, 2])
    assert rep.ok and rep.product_ok and rep.product_exhaustive
    assert rep.product_checked == 9


def test_evaluation_is_a_ring_homomorphism():
    R = ring(3, 2)
    elems = list(R.elements())
    for j in (0, 1):
        for x, y, z in itertools.product(elems, repeat=3):
            assert (x * y + z).value_at(j) == x.value_at(j) * y.value_at(j) + z.value_at(j)


def test_scalar_and_idempotent_evaluation():
    R = ring(4, 3)
    K = R.field
    for k in K.elements():
        for j in range(3):
            assert R.scalar(k).value_at(j) == k
    b = R.indicator(R.bool_ring.subset([1]))
    assert [b.value_at(j).index for j in range(3)] == [0, 1, 0]


def test_idempotents_are_exactly_the_indicators():
    for q, atoms in ((2, 3), (3, 2), (4, 2)):
        R = ring(q, atoms)
        idems = [x for x in R.elements() if x * x == x]
        assert len(idems) == 2 ** atoms
        indicators = {R.indicator(b.mask) for b in R.bool_ring.elements()}
        assert set(idems) == indicators


def test_support_commutes_with_combinations():
    R = ring(3, 2)
    B = R.bool_ring
    elems = list(R.elements())
    for a in B.elements():
        coeffs = (a, a.complement())
        for x, y in itertools.product(elems, repeat=2):
            lhs = R.convex(coeffs, (x, y)).support()
            rhs = R.convex(coeffs, (x.support(), y.support()))
            assert lhs == rhs


def test_wide_atom_universe_stays_cheap():
    # element size tracks the number of distinct values, not the atom count
    R = ring(4, 1 << 20)
    rng = random.Random(77)
    x = R.random_element(rng)
    y = R.random_element(rng)
    assert len((x * y + x).blocks) <= 4
    assert (x * x.quasi_inverse()) == x.support()
    b = R.bool_ring.subset([0, 999_999])
    ind = R.indicator(b)
    assert (ind * ind) == ind
    assert x.value_at(999_999) == (x * ind).value_at(999_999)


def test_zero_atom_universe_rejected():
    with pytest.raises(ValueError):
        ring(3, 0)


def test_mixed_ring_errors():
    with pytest.raises(ValueError):
        ring(3, 2).one + ring(3, 3).one
    with pytest.raises(ValueError):
        ring(3, 2).one + ring(5, 2).one


def test_step_rings_are_interned():
    assert StepRing(GF(3), BooleanRing(2)) is StepRing(GF(3), BooleanRing(2))
    assert ring(3, 2) is not ring(3, 3) and ring(3, 2) is not ring(9, 2)
    assert "__eq__" not in vars(StepRing) and "__hash__" not in vars(StepRing)
    # element hashes are value-based, so they agree across processes
    assert hash(ring(3, 2).from_values([1, 2])) == hash(ring(3, 2).from_values([1, 2]))


# -- index arithmetic against field arithmetic at every atom ----------------


def _pointwise_ops(R):
    """(name, step op, per-atom FieldElem op, arity) for every step-element
    operation, with scalars, exponents and scale factors fixed per ring."""
    K = R.field
    c = K.from_index(K.q - 1)
    ops = [("+", lambda x, y: x + y, lambda a, b: a + b, 2),
           ("-", lambda x, y: x - y, lambda a, b: a - b, 2),
           ("*", lambda x, y: x * y, lambda a, b: a * b, 2),
           ("neg", lambda x: -x, lambda a: -a, 1),
           ("scale", lambda x: x.scale(c), lambda a: a * c, 1),
           ("quasi_inverse", lambda x: x.quasi_inverse(), lambda a: a.inverse() if a else a, 1),
           ("unit_part", lambda x: x.unit_part(), lambda a: a if a else K.one, 1)]
    for e in (0, 1, 2, 3, K.q - 1, K.q, 2 * K.q + 1):
        ops.append((f"**{e}", lambda x, e=e: x ** e, lambda a, e=e: a ** e, 1))
    return ops


def _check_pointwise(R, xs, pairs):
    atoms = range(R.bool_ring.atom_count)
    for name, step_op, field_op, arity in _pointwise_ops(R):
        for args in (pairs if arity == 2 else [(x,) for x in xs]):
            out = step_op(*args)
            assert dense(out) == tuple(field_op(*(a.value_at(j) for a in args)) for j in atoms), \
                (R, name, args)
            assert all(b for b, _ in out.blocks) and \
                [v for _, v in out.blocks] == sorted({v for _, v in out.blocks}), (R, name, args)


@pytest.mark.parametrize("q,atoms", [(2, 2), (3, 2), (4, 2), (9, 1)])
def test_index_arithmetic_matches_field_arithmetic_exhaustively(q, atoms):
    R = ring(q, atoms)
    xs = list(R.elements())
    _check_pointwise(R, xs, list(itertools.product(xs, repeat=2)))


@pytest.mark.parametrize("field,atoms", [((2, 8), 3), ((3, 5), 2),            # tables
                                         ((65537, 1), 2), ((2, 17), 2), ((3, 11), 2)])
def test_index_arithmetic_matches_field_arithmetic_seeded(field, atoms):
    R = StepRing(finite_field(*field, degree_cap=17), BooleanRing(atoms))
    K = R.field
    rng = random.Random(f"index-arithmetic:{K.q}:{atoms}")
    # random elements, plus ones that repeat values, hit 0 and 1, and -1
    xs = [R.random_element(rng) for _ in range(12)]
    xs += [R.from_values([rng.choice((K.zero, K.one, -K.one, v)) for _ in range(atoms)])
           for v in (K.random_element(rng) for _ in range(8))]
    pairs = [(x, y) for x in xs for y in rng.sample(xs, 6)]
    _check_pointwise(R, xs, pairs)


@pytest.mark.parametrize("q,atoms", [(2, 3), (3, 2), (4, 3), (9, 2)])
def test_every_constructor_gives_one_normal_form(q, atoms):
    R = ring(q, atoms)
    K = R.field
    rng = random.Random(q * 10 + atoms)
    full = R.bool_ring.full_mask
    for x in R.elements():
        vals = dense(x)
        assert R.from_values(vals) == x and hash(R.from_values(vals)) == hash(x)
        assert R.from_values([v.index if K.n == 1 else v for v in vals]) == x
        # one block per atom, in shuffled order
        pieces = [(1 << j, v) for j, v in enumerate(vals)]
        rng.shuffle(pieces)
        y = R.from_blocks(pieces)
        assert y == x and hash(y) == hash(x) and y.blocks == x.blocks
        assert y.sort_key() == x.sort_key() and str(y) == str(x)
        assert x.values() == tuple(sorted(set(vals), key=lambda v: v.index))
    for k in K.elements():
        s = R.scalar(k)
        assert s == R.from_values([k] * atoms) == R.from_blocks([(full, k)])
        assert hash(s) == hash(R.from_values([k] * atoms))
    for mask in range(full + 1):
        e = R.indicator(mask)
        same = R.from_values([K.one if mask >> j & 1 else K.zero for j in range(atoms)])
        assert e == same and hash(e) == hash(same) and e.blocks == same.blocks
    assert R.scalar(-1) == R.scalar(K.from_int(-1)) == -R.one


# -- the residue-cover check against the ring-element product loop -----------


def check_residue_cover_by_elements(ring, gens, *, product_cap: int = PRODUCT_CHECK_CAP,
                                    product_samples: int = 256,
                                    rng: random.Random | None = None) -> CoverReport:
    """The reference for check_residue_cover: prod (x - g) multiplied out
    in the ring for every candidate x."""
    gens = [ring.coerce(g) for g in gens]
    missing = tuple(ring.missing_residues(gens))
    ok = not missing
    exhaustive = ring.size <= product_cap
    checked = 0
    product_ok = True
    if exhaustive:
        candidates = ring.elements(product_cap)
    elif product_samples <= 0:
        candidates = ()  # caller cross-checks the product on its own
    else:
        rng = rng or random.Random(0)
        candidates = (ring.random_element(rng) for _ in range(product_samples))
    for x in candidates:
        acc = ring.one
        for g in gens:
            acc = acc * (x - g)
            if not acc:
                break
        checked += 1
        if acc:
            product_ok = False
            break
    if product_ok != ok and exhaustive:
        raise VerificationError("residue coverage and vanishing product disagree")
    return CoverReport(ok, missing, product_ok, exhaustive, checked)


def P(*specs):
    return ProductRing([(GF(q), atoms) for q, atoms in specs])


def cover_families(R, rng, count, with_scalars=True):
    """Seeded families, covering and not: random step elements, alone or
    with all but at most one scalar; the ring is a step or product ring."""
    if isinstance(R, StepRing):
        scalars = [R.scalar(k) for k in R.field.elements()]
    else:
        scalars = [R.scalar_at(i, k) for i, f in enumerate(R.factors) for k in f.field.elements()]
    for k in range(count):
        gens = [R.random_element(rng) for _ in range(rng.randint(0, 4))]
        if k % 3 and with_scalars:
            gens += rng.sample(scalars, len(scalars) - (k % 3 == 1))
        rng.shuffle(gens)
        yield gens


@pytest.mark.parametrize("R", [ring(2, 3), ring(3, 2), ring(4, 2), ring(5, 1), ring(9, 1),
                               P((2, 2), (3, 1)), P((4, 1), (2, 2)), P((3, 1), (3, 1)),
                               P((2, 1), (4, 1), (3, 1))], ids=str)
def test_cover_check_matches_the_element_product_loop(R):
    rng = random.Random(f"cover:{R}")
    outcomes = set()
    for gens in cover_families(R, rng, 30):
        for cap in (PRODUCT_CHECK_CAP, R.size - 1):
            seed = rng.random()
            expected = check_residue_cover_by_elements(R, gens, product_cap=cap,
                                                       rng=random.Random(seed))
            assert check_residue_cover(R, gens, product_cap=cap,
                                       rng=random.Random(seed)) == expected, (gens, cap)
            outcomes.add((expected.ok, expected.product_ok, expected.product_exhaustive))
    assert {(True, True, True), (False, False, True), (True, True, False),
            (False, False, False)} <= outcomes


# a family covering GF(65537) would hold 65537 generators: only random ones there
@pytest.mark.parametrize("R,count,with_scalars", [(ring(4, 30), 6, True), (ring(2, 3000), 6, True),
                                                  (P((3, 40), (2, 25)), 6, True),
                                                  (ring(65537, 2), 2, False)],
                         ids=["GF(4)^30", "GF(2)^3000", "GF(3)^40xGF(2)^25", "GF(65537)^2"])
def test_sampled_cover_check_matches_the_element_product_loop_on_large_rings(R, count,
                                                                            with_scalars):
    rng = random.Random(f"cover-large:{R}")
    for gens in cover_families(R, rng, count, with_scalars):
        seed = rng.random()
        expected = check_residue_cover_by_elements(R, gens, rng=random.Random(seed))
        assert check_residue_cover(R, gens, rng=random.Random(seed)) == expected


def test_radix_weights_give_the_element_index():
    for R in (ring(3, 2), ring(4, 3), ring(2, 1)):
        radix = R.radix()
        assert [label for label, _, _ in radix] == list(range(R.bool_ring.atom_count))
        for position, x in enumerate(R.elements()):
            assert R.element_index(x) == position == \
                sum(x.index_at(label) * weight for label, _, weight in radix)


def test_missing_residues_refuses_a_field_above_the_enumeration_cap():
    R = StepRing(finite_field(1000000000000037, 1), BooleanRing(2))
    with pytest.raises(CapExceeded, match="cannot list the values of GF"):
        R.missing_residues([R.scalar(0), R.scalar(1)])
