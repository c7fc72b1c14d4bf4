"""Invariant suites behind the `selftest` CLI command.

Each check is exhaustive where the domain is small and seeded-random where
it is not; all randomness flows from one seed, so two runs with the same
flags produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import random

from . import zmodpoly
from .boolean import BooleanRing
from .fields import GF, field_embedding, lagrange_interpolate, fpoly_eval
from .gallery import gf4_kernel_check, tower_build, vraciu_build, FieldAssignment
from .polymaps import (MapTable, PolyMap, commutes_with_conv, contractive_maps,
                       contractive_to_polynomial, is_contractive, iteration_orbit,
                       random_polymap, support_exponent)
from .products import (ProductRing, RingSignature, SubringPresentation, decompose_finite_reduced,
                       char_decompose, full_presentation, generated_subring,
                       ring_from_signature, structure_decompose)
from .stepfun import StepRing, check_residue_cover, extract_combination
from . import textio as tio


def _field_axioms(seed):
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        K = GF(q)
        elems = list(K.elements())
        for x, y in itertools.product(elems, repeat=2):
            assert x + y == y + x and x * y == y * x
        for x, y, z in itertools.product(elems, repeat=3):
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            checked += 1
        for x in elems:
            assert x + (-x) == K.zero and x * K.one == x
            if x:
                assert x * x.inverse() == K.one
    return True, f"{checked} triples over 10 fields"


def _frobenius(seed):
    qs = [q for q in range(2, 257) if zmodpoly.prime_power(q)]
    for q in qs:
        K = GF(q)
        for x in K.elements():
            assert x ** q == x
    return True, f"x^q = x over {len(qs)} fields up to GF(256)"


def _lagrange_roundtrip(seed):
    rng = random.Random(seed)
    checked = 0
    for q in (2, 3, 4):
        K = GF(q)
        elems = list(K.elements())
        for image in itertools.product(elems, repeat=q):
            table = dict(zip(elems, image))
            coeffs = lagrange_interpolate(K, table)
            assert len(coeffs) <= q
            assert all(fpoly_eval(coeffs, x) == table[x] for x in elems)
            checked += 1
    for q in (5, 7, 8):
        K = GF(q)
        elems = list(K.elements())
        for _ in range(300):
            table = {x: K.random_element(rng) for x in elems}
            coeffs = lagrange_interpolate(K, table)
            assert all(fpoly_eval(coeffs, x) == table[x] for x in elems)
            checked += 1
        for _ in range(100):
            coeffs = tuple(K.random_element(rng) for _ in range(rng.randint(0, q - 1)))
            while coeffs and not coeffs[-1]:
                coeffs = coeffs[:-1]
            table = {x: fpoly_eval(coeffs, x) for x in elems}
            assert lagrange_interpolate(K, table) == coeffs
            checked += 1
    return True, f"{checked} tables (exhaustive q<=4, sampled 5,7,8)"


def _embedding_homomorphism(seed):
    pairs = [(GF(2), GF(4)), (GF(2), GF(16)), (GF(4), GF(16))]
    for sub, sup in pairs:
        emb = field_embedding(sub, sup)
        for x, y in itertools.product(sub.elements(), repeat=2):
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
        assert emb(sub.one) == sup.one
    e4_16 = field_embedding(GF(4), GF(16))
    e16_256 = field_embedding(GF(16), GF(256))
    e4_256 = field_embedding(GF(4), GF(256))
    assert all(e4_256(x) == e16_256(e4_16(x)) for x in GF(4).elements())
    return True, "hom on (2->4),(2->16),(4->16); tower 4->16->256 commutes"


def _boolean_axioms(seed):
    for atoms in (1, 2, 3, 4):
        B = BooleanRing(atoms)
        elems = list(B.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert a + b == b + a and a * b == b * a and a * a == a
            assert a + a == B.zero
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
    return True, "exhaustive up to 4 atoms"


def _boolean_derived_sum(seed):
    for q, atoms in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        R = StepRing(GF(q), BooleanRing(atoms))
        B = R.bool_ring
        for a, b in itertools.product(B.elements(), repeat=2):
            ia, ib = R.indicator(a), R.indicator(b)
            diff = ia - ib
            assert diff * diff == R.indicator(a + b)
    return True, "(a-b)^2 = symmetric difference inside GF(2),GF(3) step rings"


def _boolean_primes(seed):
    for atoms in (1, 2, 3, 4):
        B = BooleanRing(atoms)
        primes = B.prime_ideals()
        assert len(set(primes)) == atoms
        for p in primes:
            classes = {(e.mask >> p.atom) & 1 for e in B.elements()}
            assert classes == {0, 1}
        assert all(B.one not in p for p in primes)
    return True, "one prime per atom; 2-element quotients"


def _step_normal_form(seed):
    rng = random.Random(seed + 1)
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5))
        atoms = rng.randint(1, 6)
        R = StepRing(GF(q), BooleanRing(atoms))
        x = R.random_element(rng)
        # rebuild from artificially split blocks, in shuffled order
        pairs = []
        for mask, i in x.blocks:
            v = R.field.from_index(i)
            m = mask
            while m:
                bit = m & -m
                if rng.random() < 0.5 and bit != m:
                    pairs.append((bit, v))
                    m ^= bit
                else:
                    pairs.append((m, v))
                    break
        rng.shuffle(pairs)
        assert R.from_blocks(pairs) == x
    return True, "400 random refinement rebuilds"


def _step_ring_axioms(seed):
    rng = random.Random(seed + 2)
    count = 0
    rings = [StepRing(GF(q), BooleanRing(a)) for q, a in
             ((2, 2), (2, 5), (3, 2), (4, 3), (5, 2), (8, 2), (9, 1))]
    while count < 1200:
        R = rng.choice(rings)
        x, y, z = (R.random_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x and x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + R.zero == x and x * R.one == x and x - x == R.zero
        count += 1
    return True, f"{count} random triples over {len(rings)} rings"


def _step_regularity(seed):
    rng = random.Random(seed + 3)
    for _ in range(600):
        R = StepRing(GF(rng.choice((2, 3, 4, 9))), BooleanRing(rng.randint(1, 5)))
        x = R.random_element(rng)
        xi = x.quasi_inverse()
        assert x * xi * x == x
        assert xi * x * xi == xi
        assert x * xi == x.support()
    return True, "600 random quasi-inverse triples"


def _support_conv_commute(seed):
    R = StepRing(GF(3), BooleanRing(2))
    B = R.bool_ring
    elems = list(R.elements())
    for a in B.elements():
        coeffs = (a, a.complement())
        for x, y in itertools.product(elems, repeat=2):
            lhs = R.convex(coeffs, (x, y)).support()
            rhs = R.convex(coeffs, (x.support(), y.support()))
            assert lhs == rhs
    return True, "support commutes with 2-block combinations on GF(3)^[B2]"


def _residue_cover_equivalence(seed):
    for q, atoms in ((2, 2), (3, 2), (4, 1)):
        K = GF(q)
        R = StepRing(K, BooleanRing(atoms))
        scalars = list(K.elements())
        elems = list(R.elements())
        for r in range(len(scalars) + 1):
            for subset in itertools.combinations(scalars, r):
                rep = check_residue_cover(R, subset)
                prod_zero = all(_vanishes(R, x, subset) for x in elems)
                extract_all = _extracts_all(R, elems, subset)
                assert rep.ok == prod_zero == extract_all
    return True, "three conditions agree on GF(2)^[B2], GF(3)^[B2], GF(4)^[B1]"


def _vanishes(R, x, gens):
    acc = R.one
    for g in gens:
        acc = acc * (x - g)
        if not acc:
            return True
    return not acc


def _extracts_all(R, elems, gens):
    for x in elems:
        try:
            combo = extract_combination(x, gens)
        except ValueError:
            return False
        if combo.evaluate(R) != x:
            return False
    return True


def _idempotents_are_boolean(seed):
    for q, atoms in ((2, 3), (3, 2), (4, 2)):
        R = StepRing(GF(q), BooleanRing(atoms))
        idems = [x for x in R.elements() if x * x == x]
        assert len(idems) == 2 ** atoms
        assert all(x.as_bool_elem() is not None for x in idems)
    return True, "idempotents of K^[B] are exactly the atom subsets"


def _structure_roundtrip(seed):
    fields = [(2, 1), (3, 1), (2, 2)]
    count = 0
    for r in range(1, 4):
        for combo in itertools.combinations(fields, r):
            for counts in itertools.product(range(1, 5), repeat=r):
                if sum(counts) > 4:
                    continue
                sig = RingSignature.from_dict(dict(zip(combo, counts)))
                ring = ring_from_signature(sig)
                got, _ = structure_decompose(full_presentation(ring))
                assert got == sig
                count += 1
    return True, f"{count} signatures rebuilt and re-decomposed"


def _presentation_invariance(seed):
    K4 = GF(4)
    R = ProductRing([(K4, 2)])
    g = K4.generator
    p1 = SubringPresentation(R, (R.scalar_at(0, g),))
    p2 = SubringPresentation(R, (R.scalar_at(0, g + K4.one),))
    s1, _ = structure_decompose(p1)
    s2, _ = structure_decompose(p2)
    assert s1 == s2
    R2 = ProductRing([(GF(2), 1), (GF(3), 2)])
    pres = full_presentation(R2)
    s3, _ = structure_decompose(pres)
    s4, _ = structure_decompose(SubringPresentation(R2, tuple(reversed(pres.gens))))
    assert s3 == s4
    R2swap = ProductRing([(GF(3), 2), (GF(2), 1)])
    s5, _ = structure_decompose(full_presentation(R2swap))
    assert s5 == s3
    return True, "generator sets, generator order, factor order"


def _crt_cardinality(seed):
    R = ProductRing([(GF(2), 1), (GF(3), 1), (GF(4), 1)])
    T = generated_subring(full_presentation(R))
    parts = decompose_finite_reduced(T, assume_closed=True)
    total = R.zero
    card = 1
    for eps, fc in parts:
        total = total + eps
        card *= fc.order
    assert total == R.one and card == len(T)
    for (e1, _), (e2, _) in itertools.combinations(parts, 2):
        assert not (e1 * e2)
    return True, f"|T| = {len(T)} = product of field orders"


def _char_blocks(seed):
    R = ProductRing([(GF(2), 1), (GF(3), 1), (GF(4), 1)])
    blocks = char_decompose(R)
    assert R.char == 6
    assert [b.prime for b in blocks] == [2, 3]
    idems = [b.idempotent for b in blocks]
    assert sum(idems[1:], idems[0]) == R.one
    return True, "char 6 splits into prime blocks {2, 3}"


def _contractive_equivalence(seed):
    R = ProductRing([(GF(2), 2)])
    elems = R.cached_elements()
    agree = 0
    for images in itertools.product(elems, repeat=len(elems)):
        f = MapTable(R, dict(zip(elems, images)))
        a, _ = is_contractive(f)
        b, _ = commutes_with_conv(f)
        assert a == b
        agree += 1
    return True, f"{agree} self-maps of GF(2)^[B2]"


def _polynomial_implies_contractive(seed):
    rng = random.Random(seed + 4)
    for ring in (ProductRing([(GF(2), 2)]), ProductRing([(GF(3), 1), (GF(2), 1)])):
        for _ in range(200):
            f = random_polymap(ring, rng).induced_table()
            ok, witness = is_contractive(f)
            assert ok, witness
    return True, "200 random polynomials per ring stay contractive"


def _support_map_contractive(seed):
    for ring in (ProductRing([(GF(2), 2)]), ProductRing([(GF(4), 1)]),
                 ProductRing([(GF(2), 1), (GF(4), 1)]), ProductRing([(GF(3), 2)])):
        f = MapTable.from_function(ring, lambda x: x.support())
        ok, _ = is_contractive(f)
        assert ok
        m, verified = support_exponent(ring)
        assert verified
    return True, "support map contractive; support exponent verified"


def _interpolation_roundtrip(seed):
    R = ProductRing([(GF(3), 2)])
    count = 0
    for f in contractive_maps(R):
        poly = contractive_to_polynomial(f)
        assert all(poly.evaluate(x) == y for x, y in f.items())
        count += 1
    assert count == 729
    return True, "all 729 contractive maps of GF(3)^[B2] interpolated"


def _orbit_methods_agree(seed):
    rng = random.Random(seed + 5)
    rings = [ProductRing([(GF(2), 3)]), ProductRing([(GF(3), 2)]), ProductRing([(GF(4), 2)])]
    gens_for = {r: [r.scalar_at(i, k) for i, f in enumerate(r.factors) for k in f.field.elements()]
                for r in rings}
    checked = 0
    for ring in rings:
        inc = PolyMap(ring, [ring.one, ring.one])
        cert = iteration_orbit(inc, gens=gens_for[ring])
        assert cert.methods_agree
        for _ in range(8):
            f = random_polymap(ring, rng)
            cert = iteration_orbit(f, gens=gens_for[ring])
            assert cert.methods_agree
            checked += 1
    return True, f"{checked} random polynomial orbits, both methods"


def _vraciu_quotients(seed):
    fa = FieldAssignment(BooleanRing(4), (GF(2), GF(4), GF(2), GF(8)))
    rep = vraciu_build(fa)
    assert rep.ok
    assert [rep.ring.quotient_field(l).q for l in rep.atom_map] == [2, 4, 2, 8]
    return True, str(rep.signature)


def _tower_membership(seed):
    rng = random.Random(seed + 6)
    for n in (1, 2):
        tr = tower_build(2, n)
        universe = list(tr.universe.elements())
        for values in itertools.product(universe, repeat=n):
            tr.is_member(tr.ring.from_values(values))  # raises on disagreement
    tr3 = tower_build(2, 3)
    for _ in range(2000):
        tr3.is_member(tr3.ring.random_element(rng))
    return True, "formulations agree: exhaustive N<=2, 2000 samples at N=3"


def _tower_closure(seed):
    tr = tower_build(2, 2)
    members = list(tr.members())
    assert len(members) == 64
    for x, y in itertools.product(members, repeat=2):
        assert tr.is_member(x + y) and tr.is_member(x * y)
    return True, "all 64^2 pairs at q=2, N=2"


def _gf4_kernel(seed):
    rep = gf4_kernel_check()
    assert rep.ok
    rejected = sum(1 for _, m in rep.candidates if m >= 1)
    return True, f"{rejected}/16 candidate polynomials rejected"


def _serialization_roundtrip(seed):
    rng = random.Random(seed + 7)
    rings = [tio.parse_ring(s) for s in (
        "GF(2)^[B(atoms=3)]", "GF(3)^[B(atoms=2)]", "GF(4)^[B(atoms=2)]",
        "GF(4)^[B(atoms=1)] x GF(2)^[B(atoms=2)]",
        "GF(9)^[B(atoms=2)] x GF(5)^[B(atoms=1)]",
        "GF(8)^[B(atoms=12)]")]
    count = 0
    while count < 10_000:
        ring = rng.choice(rings)
        x = ring.random_element(rng)
        assert tio.parse_element(ring, str(x)) == x
        count += 1
        if count % 23 == 0:
            p = random_polymap(ring, rng)
            assert tio.parse_polymap(ring, str(p)) == p
            count += 1
        if count % 97 == 0:
            assert tio.parse_ring(str(ring)) == ring
            count += 1
    return True, f"{count} values round-tripped"


CHECKS = (
    ("field-axioms", _field_axioms),
    ("frobenius", _frobenius),
    ("lagrange-roundtrip", _lagrange_roundtrip),
    ("embedding-homomorphism", _embedding_homomorphism),
    ("boolean-axioms", _boolean_axioms),
    ("boolean-derived-sum", _boolean_derived_sum),
    ("boolean-primes", _boolean_primes),
    ("step-normal-form", _step_normal_form),
    ("step-ring-axioms", _step_ring_axioms),
    ("step-regularity", _step_regularity),
    ("support-conv-commute", _support_conv_commute),
    ("residue-cover-equivalence", _residue_cover_equivalence),
    ("idempotents-are-boolean", _idempotents_are_boolean),
    ("structure-roundtrip", _structure_roundtrip),
    ("presentation-invariance", _presentation_invariance),
    ("crt-cardinality", _crt_cardinality),
    ("char-blocks", _char_blocks),
    ("contractive-equivalence", _contractive_equivalence),
    ("polynomial-implies-contractive", _polynomial_implies_contractive),
    ("support-map-contractive", _support_map_contractive),
    ("interpolation-roundtrip", _interpolation_roundtrip),
    ("orbit-methods-agree", _orbit_methods_agree),
    ("vraciu-quotients", _vraciu_quotients),
    ("tower-membership", _tower_membership),
    ("tower-closure", _tower_closure),
    ("gf4-kernel", _gf4_kernel),
    ("serialization-roundtrip", _serialization_roundtrip),
)


def run_selftest(seed: int = 20240801, out=print):
    """Run every suite; returns True iff all pass."""
    failures = 0
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except AssertionError as exc:
            ok, detail = False, f"assertion: {exc}"
        except Exception as exc:  # surface, keep running the rest
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        failures += not ok
        results.append((name, ok, detail))
        out(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    out("---SUMMARY---")
    for name, ok, _ in results:
        out(f"{name} {'pass' if ok else 'fail'}")
    out(f"total {len(results)} failed {failures}")
    return failures == 0
