import itertools
import random

import pytest

from finreg import polymaps
from finreg.errors import CapExceeded, VerificationError
from finreg.fields import GF
from finreg.products import ProductElem, ProductRing, extract_combination
from finreg.polymaps import (CONV_CHECK_BUDGET, ORBIT_CAP, TABLE_RING_CAP,
                             IterationCertificate, MapTable, PolyMap,
                             boolean_subring_size, commutes_with_conv,
                             contractive_maps, contractive_to_polynomial,
                             is_contractive, is_polynomial, iteration_orbit,
                             polynomial_witness_bruteforce,
                             quotient_order_bound, random_polymap,
                             support_exponent)
from finreg.zmodpoly import prime_power


def P(*specs):
    return ProductRing([(GF(q), atoms) for q, atoms in specs])


def is_contractive_pairs(f):
    """The quadratic definition, pair by pair: the reference for is_contractive."""
    elems = f.ring.cached_elements(len(f.mapping))
    for i, x in enumerate(elems):
        fx = f.mapping[x]
        for y in elems[i + 1:]:
            dom = (x - y).support_profile()
            img = (fx - f.mapping[y]).support_profile()
            if any(m & ~d for m, d in zip(img, dom)):
                return False, (x, y)
    return True, None


def per_atom_functions(f: MapTable):
    """The functions K -> K that f induces on the quotient fields, as
    {label: {argument value: image value}} over the prime labels; None when
    at some prime the image value is not determined by the argument's value
    there, which is exactly when f is not contractive.
    """
    ring = f.ring
    table: dict = {label: {} for label in ring.prime_labels()}
    for x, y in f.mapping.items():
        for label, funcs in table.items():
            vin = x.value_at(label)
            vout = y.value_at(label)
            prev = funcs.get(vin)
            if prev is None:
                funcs[vin] = vout
            elif prev != vout:
                return None
    return table


def commutes_with_conv_pairs(f: MapTable):
    """The reference for commutes_with_conv: the two-block loop on ring
    elements."""
    ring = f.ring
    elems = ring.cached_elements(len(f.mapping))
    profiles = list(ring.idempotent_profiles())
    fulls = tuple(fac.bool_ring.full_mask for fac in ring.factors)
    if len(profiles) * len(elems) ** 2 > CONV_CHECK_BUDGET:
        raise CapExceeded("two-block conv check exceeds the budget")
    for prof in profiles:
        comp = tuple(full ^ m for full, m in zip(fulls, prof))
        a = ring.from_profile(prof)
        b = ring.from_profile(comp)
        for x in elems:
            ax_f = a * f.mapping[x]
            for y in elems:
                lhs = f.mapping[ring.convex((a, b), (x, y))]
                if lhs != ax_f + b * f.mapping[y]:
                    return False, ((a, b), (x, y))
    return True, None


def commutes_with_conv_nblock(f: MapTable, *, budget: int = CONV_CHECK_BUDGET):
    """The reference for commutes_with_conv: two-block families, then the
    full n-block definition on rings with at most three atoms."""
    ok, witness = commutes_with_conv_pairs(f)
    if not ok:
        return ok, witness
    ring = f.ring
    elems = ring.cached_elements(len(f.mapping))
    atoms = ring.total_atoms
    if atoms <= 3:
        labels = ring.prime_labels()
        for n in range(1, atoms + 1):
            combos = n ** atoms * len(elems) ** n
            if combos > budget:
                continue
            for assignment in itertools.product(range(n), repeat=atoms):
                profs = []
                for slot in range(n):
                    masks = [0] * len(ring.factors)
                    for pos, target in enumerate(assignment):
                        if target == slot:
                            fi, aj = labels[pos]
                            masks[fi] |= 1 << aj
                    profs.append(tuple(masks))
                coeffs = [ring.from_profile(p) for p in profs]
                for values in itertools.product(elems, repeat=n):
                    lhs = f.mapping[ring.convex(coeffs, values)]
                    rhs = ring.zero
                    for c, v in zip(coeffs, values):
                        rhs = rhs + c * f.mapping[v]
                    if lhs != rhs:
                        return False, (tuple(coeffs), values)
    return True, None


def first_matrix_by_extraction(table, gens):
    """The reference for the first orbit matrix: the extraction rows of
    f(g) over the family, for every generator g."""
    m1 = []
    for g in gens:
        combo = extract_combination(table(g), gens)
        m1.append(tuple(c.support_profile() for c in combo.coeffs))
    return tuple(m1)


def _boolean_closure(profiles, ring):
    """The reference for boolean_subring_size: closure of the given
    idempotent profiles under ring sum and product."""
    known = set(profiles)
    frontier = list(known)
    while frontier:
        new = []
        for a in frontier:
            for b in list(known):
                s = tuple(x ^ y for x, y in zip(a, b))
                m = tuple(x & y for x, y in zip(a, b))
                for c in (s, m):
                    if c not in known:
                        known.add(c)
                        new.append(c)
        frontier = new
    return known


def table_orbit_by_composition(table, cap):
    """The reference for the table orbit: compose f^k until a repeat."""
    seen = {}
    cur = table
    k = 1
    while True:
        key = cur.key()
        first = seen.get(key)
        if first is not None:
            tail = first - 1
            period = k - first
            return tail + period, tail, period
        seen[key] = k
        if k > cap:
            raise CapExceeded(f"table orbit exceeded the cap {cap}")
        cur = cur.then(table)
        k += 1


def _column_values(col, gen_values, widths):
    """Per factor, the value index at every atom of sum_r col[r] * gens[r]:
    at each prime, the value of the one generator whose mask covers it.
    Raises VerificationError unless col is a complete orthogonal family."""
    out = []
    for i, width in enumerate(widths):
        row = [None] * width
        for prof, values in zip(col, gen_values):
            m = prof[i]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if row[j] is not None:
                    raise VerificationError(f"matrix column {col} has overlapping masks")
                row[j] = values[i][j]
                m ^= low
        if None in row:
            raise VerificationError(f"matrix column {col} does not cover every prime")
        out.append(tuple(row))
    return tuple(out)


def _matrix_column_step(col, m1):
    # next column t-entry: union over r of col[r] & m1[r][t]; the terms are
    # disjoint because col is a complete orthogonal family, so only its
    # nonzero entries contribute
    rows = [(prof, m1[r]) for r, prof in enumerate(col) if any(prof)]
    width = len(col[0])
    out = []
    for t in range(len(col)):
        masks = [0] * width
        for prof, row in rows:
            prof_rt = row[t]
            for i in range(width):
                masks[i] |= prof[i] & prof_rt[i]
        out.append(tuple(masks))
    return tuple(out)


def mask_product_certificate(table, gens, cap=ORBIT_CAP, step=_matrix_column_step):
    """The reference for iteration_orbit with a covering family: M^1 from
    the extraction rows, M^(k+1) = M^k M^1 by mask products column by
    column, each iterate keyed by the value indices its columns select, the
    table orbit by composition and the Boolean subring by closure."""
    ring = table.ring
    gens = tuple(ring.coerce(g) for g in gens)
    widths = tuple(fac.atom_count for fac in ring.factors)
    gen_values = [tuple(tuple(part.index_at(j) for j in range(w)) for part, w in zip(g.parts, widths))
                  for g in gens]
    m1 = first_matrix_by_extraction(table, gens)
    columns = m1
    matrices = [m1]
    seen = {}
    k = 1
    while True:
        values = tuple(_column_values(col, gen_values, widths) for col in columns)
        first = seen.get(values)
        if first is not None:
            tail, period = first - 1, k - first
            break
        seen[values] = k
        k += 1
        if k > cap:
            raise CapExceeded(f"matrix orbit exceeded the cap {cap}")
        columns = tuple(step(col, m1) for col in columns)
        matrices.append(columns)
    by_table = table_orbit_by_composition(table, cap)
    if by_table != (tail + period, tail, period):
        raise VerificationError(f"orbit methods disagree: table {by_table} vs "
                                f"matrix {(tail + period, tail, period)}")
    closure = _boolean_closure([prof for col in m1 for prof in col], ring)
    return IterationCertificate(tail + period, tail, period, gens, tuple(matrices),
                                len(closure), True)


def convex_key(ring, gens, columns):
    """The reference matrix-orbit key: the ring element of every column."""
    return tuple(ring.convex([ring.from_profile(p) for p in col], gens) for col in columns)


def random_orbit_certificates():
    """(ring, gens, certificate) for seeded random polynomials on five rings."""
    rng = random.Random(17)
    rings = [P((2, 3)), P((3, 2)), P((4, 2)), P((8, 2)), P((2, 2), (4, 1))]
    for ring in rings:
        gens = [ring.scalar_at(i, k) for i, f in enumerate(ring.factors)
                for k in f.field.elements()]
        for _ in range(10):
            f = random_polymap(ring, rng)
            yield ring, gens, iteration_orbit(f, gens=gens)


def violates_definition(f, x, y):
    dom = (x - y).support_profile()
    img = (f(x) - f(y)).support_profile()
    return any(m & ~d for m, d in zip(img, dom))


def perturbed(table, rng, changes):
    """A copy of the table with `changes` random entries redrawn."""
    mapping = dict(table.mapping)
    for x in rng.sample(table.ring.cached_elements(), changes):
        mapping[x] = table.ring.random_element(rng)
    return MapTable(table.ring, mapping)


def swap_map(ring):
    S = ring.factors[0]
    return MapTable.from_function(ring, lambda x: ring.element(
        [S.from_values([x.parts[0].value_at(1), x.parts[0].value_at(0)])]))


def test_poly_eval_examples():
    R = P((2, 1), (4, 1))
    X = PolyMap(R, [R.zero, R.one])
    assert all(X.evaluate(x) == x for x in R.elements())
    c = R.element([1, GF(4).generator])
    const = PolyMap(R, [c])
    assert all(const.evaluate(x) == c for x in R.elements())
    cube = PolyMap(R, [R.zero, R.zero, R.zero, R.one])
    x = R.element([1, GF(4).generator])
    assert cube.evaluate(x) == R.element([1, 1])  # g^3 = 1


def test_polymap_normalization_and_equality():
    R = P((3, 1))
    assert PolyMap(R, [R.one, R.zero, R.zero]) == PolyMap(R, [R.one])
    assert PolyMap(R, []).degree == -1
    # distinct coefficients, same induced function: X^3 vs X over GF(3)
    X = PolyMap(R, [R.zero, R.one])
    X3 = PolyMap(R, [R.zero, R.zero, R.zero, R.one])
    assert X != X3 and X.same_function(X3)


def test_contractive_identity_and_constants():
    R = P((2, 2))
    ident = PolyMap(R, [R.zero, R.one]).induced_table()
    assert is_contractive(ident) == (True, None)
    for x in R.elements():
        const = MapTable.from_function(R, lambda _, ix=x: ix)
        assert is_contractive(const)[0]


def test_swap_is_not_contractive_with_the_known_witness():
    R = P((2, 2))
    f = swap_map(R)
    ok, witness = is_contractive(f)
    assert not ok and witness is not None
    # the specific pair (0,1) vs (0,0) violates the inequality
    S = R.factors[0]
    x = R.element([S.from_values([0, 1])])
    y = R.element([S.from_values([0, 0])])
    dom = (x - y).support_profile()
    img = (f(x) - f(y)).support_profile()
    assert any(m & ~d for m, d in zip(img, dom))
    okc, _ = commutes_with_conv(f)
    assert not okc
    assert is_polynomial(f) == (False, None)


def test_per_atom_view_is_equivalent_to_contractivity():
    R = P((2, 2))
    elems = R.cached_elements()
    coordinatewise = 0
    for images in itertools.product(elems, repeat=len(elems)):
        f = MapTable(R, dict(zip(elems, images)))
        ok, _ = is_contractive(f)
        assert ok == (per_atom_functions(f) is not None)
        coordinatewise += ok
    assert coordinatewise == 16  # one function GF(2)->GF(2) per atom


def test_conv_commuting_matches_contractivity_exhaustively():
    for ring in (P((2, 2)), P((4, 1))):
        elems = ring.cached_elements()
        for images in itertools.product(elems, repeat=len(elems)):
            f = MapTable(ring, dict(zip(elems, images)))
            assert is_contractive(f)[0] == commutes_with_conv(f)[0]


def test_support_map_is_contractive_everywhere():
    for ring in (P((2, 2)), P((4, 1)), P((2, 1), (4, 1)), P((3, 2))):
        f = MapTable.from_function(ring, lambda x: x.support())
        assert is_contractive(f)[0]
        assert commutes_with_conv(f)[0]


def test_orbit_increment_char2():
    R = P((2, 2))
    cert = iteration_orbit(PolyMap(R, [R.one, R.one]), gens=[0, 1])
    assert cert.orbit_size == 2 and cert.period == 2 and cert.tail == 0
    assert cert.methods_agree and cert.boolean_subring_size is not None


def test_orbit_increment_char3():
    R = P((3, 2))
    cert = iteration_orbit(PolyMap(R, [R.one, R.one]), gens=[0, 1, 2])
    assert cert.orbit_size == 3


def test_orbit_increment_char6():
    R = P((2, 1), (3, 1))
    cert = iteration_orbit(PolyMap(R, [R.one, R.one]), gens=[R.scalar(k) for k in range(6)])
    assert cert.orbit_size == 6


def test_orbit_frobenius():
    for q, expect in ((4, 2), (8, 3), (16, 4)):
        R = P((q, 1))
        sq = PolyMap(R, [R.zero, R.zero, R.one])
        gens = [R.scalar_at(0, k) for k in GF(q).elements()]
        cert = iteration_orbit(sq, gens=gens)
        assert cert.orbit_size == expect, (q, cert)


def test_orbit_table_only_and_refusal():
    R = P((2, 2))
    f = swap_map(R)
    cert = iteration_orbit(f)  # table method alone is fine
    assert cert.orbit_size == 2 and cert.generators is None
    with pytest.raises(ValueError, match="refused"):
        iteration_orbit(f, gens=[0, 1])


def test_orbit_methods_agree_on_random_polynomials():
    for ring, gens, cert in random_orbit_certificates():
        assert cert.methods_agree
        entries = [prof for col in cert.matrices[0] for prof in col]
        assert cert.boolean_subring_size == len(_boolean_closure(entries, ring))
        # every certificate matrix keeps orthogonal-partition columns
        for matrix in cert.matrices:
            for col in matrix:
                union = [0] * len(ring.factors)
                total = 0
                for prof in col:
                    for i, m in enumerate(prof):
                        union[i] |= m
                        total += m.bit_count()
                assert total == ring.total_atoms
                assert all(u == f_.bool_ring.full_mask
                           for u, f_ in zip(union, ring.factors))


def test_index_key_matches_the_convex_combination_key():
    for ring, gens, cert in random_orbit_certificates():
        widths = tuple(f.atom_count for f in ring.factors)
        gen_values = [tuple(tuple(part.index_at(j) for j in range(w))
                            for part, w in zip(g.parts, widths)) for g in gens]
        old_keys = [convex_key(ring, gens, m) for m in cert.matrices]
        new_keys = [tuple(_column_values(col, gen_values, widths) for col in m)
                    for m in cert.matrices]
        for old, new in zip(old_keys, new_keys):
            assert [[[x.parts[i].index_at(j) for j in range(w)] for i, w in enumerate(widths)]
                    for x in old] == [[list(row) for row in col] for col in new]
        # the matrices run up to the first repeat, under either key
        k = len(cert.matrices) - 1
        assert old_keys.index(old_keys[k]) == new_keys.index(new_keys[k]) == cert.tail
        assert len(set(old_keys[:k])) == len(set(new_keys[:k])) == k == cert.tail + cert.period


def test_matrix_orbit_rejects_a_column_that_is_no_partition():
    ring = P((2, 2), (3, 1))
    gens = [ring.scalar_at(i, k) for i, f in enumerate(ring.factors) for k in f.field.elements()]
    table = PolyMap(ring, [ring.one, ring.one]).induced_table()
    assert mask_product_certificate(table, gens) == iteration_orbit(table, gens=gens)
    gen_values = [tuple(tuple(part.index_at(j) for j in range(f_.atom_count))
                        for part, f_ in zip(g.parts, ring.factors)) for g in gens]
    full = (0b11, 0b1)
    overlap = (full, (0b01, 0)) + ((0, 0),) * (len(gens) - 2)
    gap = ((0b01, 0b1),) + ((0, 0),) * (len(gens) - 1)
    for col in (overlap, gap):
        with pytest.raises(VerificationError):
            _column_values(col, gen_values, (2, 1))
        with pytest.raises(VerificationError, match="matrix column"):
            mask_product_certificate(table, gens, step=lambda _col, _m1, col=col: col)


def test_support_exponent_examples():
    assert support_exponent(P((2, 3)))[:1] == (1,)
    m24, ok24 = support_exponent(P((2, 1), (4, 1)))
    assert (m24, ok24) == (3, True)
    m34, ok34 = support_exponent(P((3, 1), (4, 1)))
    assert (m34, ok34) == (6, True)
    m234, ok234 = support_exponent(P((2, 1), (3, 1), (4, 1)))
    assert (m234, ok234) == (6, True)


def test_support_exponent_honours_samples(monkeypatch):
    R = P((2, 2), (3, 1))
    drawn = []
    original = ProductRing.random_element

    def counting(self, rng):
        drawn.append(1)
        return original(self, rng)

    monkeypatch.setattr(ProductRing, "random_element", counting)
    assert support_exponent(R, cap=R.size - 1, samples=7) == (2, True)
    assert len(drawn) == 7


def test_quotient_order_bound():
    rep = quotient_order_bound(P((2, 1), (4, 1)), 3)
    assert rep.bound == 6 and rep.holds_strictly
    # degree-1 support map on a Boolean ring: the strict bound fails exactly
    # at the order-2 boundary, and is flagged rather than hidden
    edge = quotient_order_bound(P((2, 2)), 1)
    assert edge.boundary_cases == (2,)
    assert edge.ok_up_to_boundary and not edge.holds_strictly
    bad = quotient_order_bound(P((9, 1)), 2)
    assert bad.strict_violations == (9,)


def test_contractive_to_polynomial_identity():
    R = P((3, 2))
    ident = PolyMap(R, [R.zero, R.one]).induced_table()
    poly = contractive_to_polynomial(ident)
    assert poly == PolyMap(R, [R.zero, R.one])


def test_contractive_to_polynomial_shift():
    R = P((2, 1), (4, 1))
    c = R.element([1, GF(4).generator])
    shift = PolyMap(R, [c, R.one]).induced_table()
    ok, witness = is_polynomial(shift)
    assert ok and witness == PolyMap(R, [c, R.one])


def test_support_map_interpolates_to_the_cube():
    R = P((2, 1), (4, 1))
    f = MapTable.from_function(R, lambda x: x.support())
    poly = contractive_to_polynomial(f)
    cube = PolyMap(R, [R.zero, R.zero, R.zero, R.one])
    assert poly.same_function(cube)
    assert poly.degree <= 3


def test_contractive_to_polynomial_rejects_non_contractive():
    R = P((2, 2))
    with pytest.raises(ValueError, match="not contractive"):
        contractive_to_polynomial(swap_map(R))


def test_coordinatewise_maps_roundtrip():
    R = P((3, 2))
    sq = [(x * x).index for x in GF(3).elements()]
    const1 = [GF(3).one.index] * 3
    f = MapTable.from_prime_functions(R, [sq, const1])
    poly = contractive_to_polynomial(f)
    assert all(poly.evaluate(x) == f(x) for x in R.cached_elements())


def test_bruteforce_oracle_agrees_on_all_maps_of_a_tiny_ring():
    R = P((2, 2))
    elems = R.cached_elements()
    for images in itertools.product(elems, repeat=len(elems)):
        f = MapTable(R, dict(zip(elems, images)))
        witness = polynomial_witness_bruteforce(f)
        contractive, _ = is_contractive(f)
        assert (witness is not None) == contractive
        if witness is not None:
            assert all(witness.evaluate(x) == f(x) for x in elems)


def test_polynomials_are_contractive_in_bulk():
    rng = random.Random(23)
    for ring in (P((2, 2)), P((3, 1), (2, 1)), P((4, 1), (3, 1))):
        for _ in range(200):
            table = random_polymap(ring, rng).induced_table()
            assert is_contractive(table)[0]


def test_contractive_enumeration_counts():
    assert sum(1 for _ in contractive_maps(P((2, 2)))) == 16
    assert sum(1 for _ in contractive_maps(P((3, 2)))) == 729


def test_interpolation_roundtrip_gf2_b3():
    R = P((2, 3))
    count = 0
    for f in contractive_maps(R):
        poly = contractive_to_polynomial(f)
        assert all(poly.evaluate(x) == y for x, y in f.mapping.items())
        count += 1
    assert count == 64  # one function GF(2)->GF(2) per atom


def test_prime_scan_matches_the_pair_loop_on_every_small_map():
    for ring in (P((2, 2)), P((4, 1)), P((3, 1)), P((2, 1), (2, 1))):
        elems = ring.cached_elements()
        for images in itertools.product(elems, repeat=len(elems)):
            f = MapTable(ring, dict(zip(elems, images)))
            assert is_contractive(f) == is_contractive_pairs(f), (ring, images)


def test_prime_scan_matches_the_pair_loop_on_perturbed_polynomials():
    rng = random.Random(29)
    shapes = [((3, 4),), ((9, 2),), ((2, 6),), ((2, 3), (3, 1), (3, 1)),
              ((4, 2), (2, 2)), ((2, 2), (4, 1), (5, 1)), ((3, 2), (3, 2))]
    failures = 0
    for shape in shapes:
        ring = P(*shape)
        assert 64 <= ring.size <= 81
        for changes in (0, 1, 1, 2, 3):
            f = perturbed(random_polymap(ring, rng).induced_table(), rng, changes)
            expected = is_contractive_pairs(f)
            assert is_contractive(f) == expected, (shape, changes)
            failures += not expected[0]
    assert failures >= 20


def test_prime_scan_on_729_elements_agrees_with_per_atom_functions():
    ring = P((3, 6))
    rng = random.Random(31)
    poly = random_polymap(ring, rng).induced_table()
    outcomes = set()
    for changes in (0, 1, 3):
        f = perturbed(poly, rng, changes)
        ok, witness = is_contractive(f)
        assert ok == (per_atom_functions(f) is not None)
        assert (witness is None) == ok
        if witness is not None:
            assert violates_definition(f, *witness)
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_two_block_conv_check_matches_the_n_block_definition_on_every_small_map():
    failures = 0
    for ring in (P((2, 2)), P((4, 1)), P((2, 1), (2, 1)), P((3, 1))):
        elems = ring.cached_elements()
        for images in itertools.product(elems, repeat=len(elems)):
            f = MapTable(ring, dict(zip(elems, images)))
            expected = commutes_with_conv_nblock(f)
            assert commutes_with_conv(f) == commutes_with_conv_pairs(f) == expected, \
                (ring, images)
            failures += not expected[0]
    assert failures > 0


def test_two_block_conv_check_matches_the_n_block_definition_on_three_atoms():
    ring = P((2, 3))
    rng = random.Random(37)
    outcomes = set()
    for changes in (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4):
        f = perturbed(random_polymap(ring, rng).induced_table(), rng, changes)
        expected = commutes_with_conv_nblock(f)
        assert commutes_with_conv(f) == expected, changes
        outcomes.add(expected[0])
    assert outcomes == {True, False}


def test_boolean_subring_size_matches_the_closure_on_seeded_families():
    rng = random.Random(41)
    for _ in range(300):
        ring = P(*[(2, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))])
        fulls = [fac.bool_ring.full_mask for fac in ring.factors]
        profiles = [tuple(rng.randint(0, full) for full in fulls)
                    for _ in range(rng.randint(1, 4))]
        assert boolean_subring_size(profiles, ring) == len(_boolean_closure(profiles, ring))


def random_self_maps(ring, rng, count):
    """Seeded self-maps: arbitrary tables, permutations, and maps into a few
    values (long tails, short cycles)."""
    elems = ring.cached_elements()
    for k in range(count):
        kind = k % 3
        if kind == 0:
            images = [rng.choice(elems) for _ in elems]
        elif kind == 1:
            images = list(elems)
            rng.shuffle(images)
        else:
            few = rng.sample(elems, rng.randint(1, min(3, len(elems))))
            images = [rng.choice(few + [x]) for x in elems]
        yield MapTable(ring, dict(zip(elems, images)))


@pytest.mark.parametrize("shape", [((2, 1),), ((2, 3),), ((3, 2),), ((4, 2),),
                                   ((2, 2), (3, 1)), ((3, 3),)], ids=str)
def test_table_orbit_matches_the_composition_loop(shape):
    ring = P(*shape)
    rng = random.Random(f"table-orbit:{shape}")
    for table in random_self_maps(ring, rng, 40):
        want = table_orbit_by_composition(table, polymaps.ORBIT_CAP)
        assert polymaps._table_orbit(table, polymaps.ORBIT_CAP) == want
        size = want[0]
        # the cap raises exactly when tail + period exceeds it, with one message
        for cap in {0, 1, size - 1, size}:
            try:
                expected = table_orbit_by_composition(table, cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as got:
                    polymaps._table_orbit(table, cap)
                assert str(got.value) == str(exc)
            else:
                assert polymaps._table_orbit(table, cap) == expected


def test_table_orbit_examples():
    ring = P((2, 3))
    elems = ring.cached_elements()
    zero = MapTable(ring, {x: ring.zero for x in elems})
    assert polymaps._table_orbit(zero, 10) == (1, 0, 1)
    ident = MapTable(ring, {x: x for x in elems})
    assert polymaps._table_orbit(ident, 10) == (1, 0, 1)
    # a path of length 7 into a fixed point: f^7 is the first constant power
    chain = MapTable(ring, {x: elems[max(i - 1, 0)] for i, x in enumerate(elems)})
    assert polymaps._table_orbit(chain, 10) == (7, 6, 1)
    # cycles of lengths 3 and 5: period 15, no tail
    perm = {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 6, 6: 7, 7: 3}
    perm = MapTable(ring, {elems[i]: elems[j] for i, j in perm.items()})
    assert polymaps._table_orbit(perm, 15) == (15, 0, 15)
    with pytest.raises(CapExceeded, match="table orbit exceeded the cap 14"):
        polymaps._table_orbit(perm, 14)
    # 0 -> 1 -> 2 -> 3 -> 2 (distance 2 to a 2-cycle), a 3-cycle and a fixed point
    mixed = {0: 1, 1: 2, 2: 3, 3: 2, 4: 5, 5: 6, 6: 4, 7: 7}
    mixed = MapTable(ring, {elems[i]: elems[j] for i, j in mixed.items()})
    assert polymaps._table_orbit(mixed, 100) == (7, 1, 6)


@pytest.mark.parametrize("shape", [((2, 3),), ((3, 1), (2, 1)), ((2, 2), (3, 1)),
                                   ((3, 2), (2, 1)), ((4, 1), (5, 1)), ((9, 1), (2, 1))],
                         ids=str)
def test_position_conv_check_matches_the_pair_loop_on_perturbed_polynomials(shape):
    ring = P(*shape)
    rng = random.Random(f"conv:{shape}")
    outcomes = set()
    for changes in (0, 0, 0, 1, 1, 1, 2, 2, 3):
        f = perturbed(random_polymap(ring, rng).induced_table(), rng, changes)
        expected = commutes_with_conv_pairs(f)
        assert commutes_with_conv(f) == expected, changes
        outcomes.add(expected[0])
    assert outcomes == {True, False}


def covering_families(ring, rng, count):
    """Seeded generator families that cover every residue field: the scalar
    generators in shuffled order with repeats, and random step elements
    followed by scalars, so that several generators often take one value."""
    scalars = [ring.scalar_at(i, k) for i, f in enumerate(ring.factors)
               for k in f.field.elements()]
    for k in range(count):
        if k % 2:
            gens = scalars + rng.choices(scalars, k=rng.randint(0, 3))
            rng.shuffle(gens)
        else:
            gens = [ring.random_element(rng) for _ in range(rng.randint(1, 4))] + scalars
        yield gens


@pytest.mark.parametrize("shape", [((2, 3),), ((3, 2),), ((4, 2),), ((2, 2), (3, 1)),
                                   ((2, 1), (4, 1), (3, 1))], ids=str)
def test_first_matrix_matches_the_extraction_rows(shape):
    ring = P(*shape)
    rng = random.Random(f"m1:{shape}")
    for gens in covering_families(ring, rng, 12):
        table = random_polymap(ring, rng).induced_table()
        cert = iteration_orbit(table, gens=gens)
        assert cert.matrices[0] == first_matrix_by_extraction(table, cert.generators)


@pytest.mark.parametrize("shape", [((2, 3),), ((3, 2),), ((4, 2),), ((2, 2), (3, 1)),
                                   ((2, 1), (4, 1), (3, 1))], ids=str)
def test_owner_vector_orbit_matches_the_mask_products(shape):
    ring = P(*shape)
    rng = random.Random(f"owners:{shape}")
    for gens in covering_families(ring, rng, 12):
        table = random_polymap(ring, rng).induced_table()
        cert = iteration_orbit(table, gens=gens)
        assert cert == mask_product_certificate(table, gens)
        # one step short, the matrix orbit hits the cap where the mask products do
        cap = len(cert.matrices) - 1
        with pytest.raises(CapExceeded) as got:
            iteration_orbit(table, gens=gens, cap=cap)
        with pytest.raises(CapExceeded) as want:
            mask_product_certificate(table, gens, cap=cap)
        assert str(got.value) == str(want.value) == f"matrix orbit exceeded the cap {cap}"


def test_tampered_polynomial_is_caught_at_the_first_disagreeing_entry(monkeypatch):
    rng = random.Random(43)
    real = PolyMap
    caught = 0
    for shape in (((3, 2),), ((2, 2), (3, 1)), ((4, 1), (2, 2)), ((5, 1),)):
        ring = P(*shape)
        for _ in range(6):
            table = random_polymap(ring, rng).induced_table()
            d = rng.randrange(max(fac.field.q for fac in ring.factors))
            delta = ring.random_element(rng)
            made = []

            def tampered(ring_, coeffs, d=d, delta=delta, made=made):
                coeffs = list(coeffs)
                coeffs[d] = coeffs[d] + delta
                made.append(real(ring_, coeffs))
                return made[-1]

            monkeypatch.setattr(polymaps, "PolyMap", tampered)
            try:
                contractive_to_polynomial(table)
                error = None
            except VerificationError as exc:
                error = str(exc)
            monkeypatch.setattr(polymaps, "PolyMap", real)
            wrong = [x for x, y in table.mapping.items() if made[0].evaluate(x) != y]
            if wrong:
                assert error == ("interpolated polynomial disagrees with the contractive "
                                 f"map at {wrong[0]}")
                caught += 1
            else:
                assert error is None
    assert caught >= 20


# ---------------------------------------------------------------------------
# position-native tables against the element-keyed reference


class DictMapTable:
    """A total self-map of a small ring, stored explicitly: the element-keyed
    table that `MapTable` replaced, kept as the reference for its views."""

    __slots__ = ("ring", "mapping")

    def __init__(self, ring: ProductRing, mapping, cap: int = TABLE_RING_CAP):
        elems = ring.cached_elements(cap)
        mapping = dict(mapping)
        if len(mapping) != len(elems):
            raise ValueError(f"table must be total: {len(mapping)} entries for {len(elems)} elements")
        for x in elems:
            y = mapping.get(x)
            if y is None:
                raise ValueError(f"table missing {x}")
            mapping[x] = ring.coerce(y)
        self.ring = ring
        self.mapping = mapping

    @classmethod
    def from_function(cls, ring, fn, cap: int = TABLE_RING_CAP):
        return cls(ring, {x: fn(x) for x in ring.cached_elements(cap)}, cap=cap)

    def __call__(self, x: ProductElem) -> ProductElem:
        return self.mapping[x]

    def items(self):
        for x in self.ring.cached_elements(len(self.mapping)):
            yield x, self.mapping[x]

    def then(self, other: "DictMapTable") -> "DictMapTable":
        """x -> other(self(x))."""
        out = DictMapTable.__new__(DictMapTable)
        out.ring = self.ring
        out.mapping = {x: other.mapping[y] for x, y in self.mapping.items()}
        return out

    def key(self):
        ring = self.ring
        return tuple(ring.element_index(self.mapping[x])
                     for x in ring.cached_elements(len(self.mapping)))

    def __eq__(self, other):
        if isinstance(other, DictMapTable):
            return self.ring == other.ring and self.mapping == other.mapping
        return NotImplemented

    def __str__(self):
        return "\n".join(f"{x} -> {y}" for x, y in self.items())


def contractive_maps_by_elements(ring: ProductRing, cap: int = TABLE_RING_CAP):
    """The reference enumeration of contractive maps: one dict K -> K per
    prime, applied element by element."""
    labels = ring.prime_labels()
    ring.cached_elements(cap)
    per_label = []
    for label in labels:
        field = ring.quotient_field(label)
        qs = list(field.elements())
        per_label.append([dict(zip(qs, choice))
                          for choice in itertools.product(qs, repeat=field.q)])
    for combo in itertools.product(*per_label):
        funcs = dict(zip(labels, combo))
        mapping = {}
        for x in ring.cached_elements(cap):
            parts = []
            for i, fac in enumerate(ring.factors):
                values = [funcs[(i, j)][x.parts[i].value_at(j)]
                          for j in range(fac.bool_ring.atom_count)]
                parts.append(fac.from_values(values))
            mapping[x] = ProductElem(ring, tuple(parts))
        yield DictMapTable(ring, mapping)


def small_shapes(max_size):
    """Every ring shape, a multiset of (q, atoms) factors, with at most
    max_size elements."""
    singles = [(q, m) for q in range(2, max_size + 1) if prime_power(q)
               for m in range(1, max_size.bit_length()) if q ** m <= max_size]

    def grow(shape, size, start):
        out = [shape] if shape else []
        for k in range(start, len(singles)):
            q, m = singles[k]
            if size * q ** m <= max_size:
                out += grow(shape + (singles[k],), size * q ** m, k)
        return out

    return grow((), 1, 0)


def test_induced_table_matches_ring_horner_on_every_small_shape():
    rng = random.Random(47)
    shapes = small_shapes(81)
    assert len(shapes) == len(set(shapes)) > 200
    big = [((2, 12),), ((4, 6),), ((2, 2), (5, 2), (8, 1), (4, 1))]
    for shape in shapes + big:
        ring = P(*shape)
        assert ring.size <= TABLE_RING_CAP
        poly = random_polymap(ring, rng, max_degree=5)
        want = MapTable.from_function(ring, poly.evaluate)
        assert poly.induced_table() == want, (shape, poly)
        if ring.size <= 81:
            ref = DictMapTable(ring, want.mapping)
            assert want.key() == ref.key() and str(want) == str(ref), (shape, poly)


def test_table_views_match_the_dict_reference():
    rng = random.Random(53)
    for shape in (((2, 3),), ((3, 1), (2, 2)), ((4, 1), (3, 1)), ((9, 1),)):
        ring = P(*shape)
        elems = ring.cached_elements()
        tables = list(random_self_maps(ring, rng, 6))
        refs = [DictMapTable(ring, t.mapping) for t in tables]
        for f, rf in zip(tables, refs):
            assert f.key() == rf.key()
            assert str(f) == str(rf)
            assert list(f.items()) == list(rf.items())
            assert all(f(x) == rf(x) for x in elems)
            assert f.mapping is f.mapping
            for g, rg in zip(tables, refs):
                assert (f == g) == (rf == rg)
                assert f.then(g).key() == rf.then(rg).key()
                assert f.then(g).mapping == rf.then(rg).mapping


def test_contractive_maps_match_the_element_wise_builder():
    ring = P((3, 2))
    got = list(contractive_maps(ring))
    want = list(contractive_maps_by_elements(ring))
    assert len(got) == len(want) == 729
    assert [f.key() for f in got] == [g.key() for g in want]
    assert all(f.mapping == g.mapping for f, g in zip(got[::50], want[::50]))
    mixed = P((2, 1), (3, 1))
    assert [f.key() for f in contractive_maps(mixed)] == \
        [g.key() for g in contractive_maps_by_elements(mixed)]


def test_table_construction_errors_match_the_reference():
    ring = P((2, 1), (3, 1))
    elems = ring.cached_elements()
    full = {x: x * x for x in elems}
    short = dict(list(full.items())[:-1])
    stray = dict(list(full.items())[1:])
    stray["junk"] = ring.zero
    for mapping, text in ((short, "table must be total: 5 entries for 6 elements"),
                          (stray, f"table missing {elems[0]}")):
        for cls in (MapTable, DictMapTable):
            with pytest.raises(ValueError) as exc:
                cls(ring, mapping)
            assert str(exc.value) == text
