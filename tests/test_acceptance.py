"""Acceptance suite: one test per criterion, one pass/fail line each.

Every exhaustive quantifier is realized literally where the domain is
enumerable; the one place it is not (all 2^q generator subsets for fields
with q > 13) is reduced to the monotone frontier, which decides the whole
subset lattice: each condition is monotone increasing in the generator set,
false on every co-singleton and true on the full set, hence constant below
the top.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from finreg.boolean import BooleanRing
from finreg.fields import GF
from finreg.gallery import gf4_kernel_check, tower_build
from finreg.polymaps import (MapTable, PolyMap, commutes_with_conv,
                             contractive_maps, contractive_to_polynomial,
                             is_contractive, iteration_orbit, quotient_order_bound,
                             random_polymap, support_exponent)
from finreg.products import (ProductRing, RingSignature, SubringPresentation,
                             char_decompose, full_presentation, iso_test,
                             ring_char, ring_from_signature, structure_decompose)
from finreg.selftest import run_selftest
from finreg.stepfun import StepRing, check_residue_cover, extract_combination
from finreg.zmodpoly import prime_power

GOLDEN = Path(__file__).parent / "golden"


def banner(num, name, ok, elapsed=None, extra=""):
    state = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    note = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num:2d} {name}: {state}{timing}{note}")
    assert ok


def P(*specs):
    return ProductRing([(GF(q), atoms) for q, atoms in specs])


# -- criterion 1 --------------------------------------------------------------

PRIME_POWERS_81 = [q for q in range(2, 82) if prime_power(q)]
EXHAUSTIVE_Q = 13  # 2^q subsets enumerated below this; frontier beyond


def _rings_up_to_81():
    for q in PRIME_POWERS_81:
        m = 1
        while q ** m <= 81:
            yield q, m
            m += 1


def _vanishing_product_everywhere(ring, candidates, gens):
    for x in candidates:
        acc = ring.one
        for g in gens:
            acc = acc * (x - g)
            if not acc:
                break
        if acc:
            return False
    return True


def _extracts_everything(ring, candidates, gens):
    for x in candidates:
        try:
            combo = extract_combination(x, gens)
        except ValueError:
            return False
        if combo.evaluate(ring) != x:
            return False
    return True


def test_criterion_01_three_conditions_agree():
    t0 = time.perf_counter()
    rng = random.Random(101)
    rings = 0
    subsets_checked = 0
    for q, m in _rings_up_to_81():
        K = GF(q)
        R = StepRing(K, BooleanRing(m))
        scalars = list(K.elements())
        elems = list(R.elements())
        if q <= EXHAUSTIVE_Q:
            pools = [combo for r in range(q + 1)
                     for combo in itertools.combinations(scalars, r)]
        else:
            pools = [(), tuple(scalars)]
            pools += [tuple(s for s in scalars if s != k) for k in scalars]
            for _ in range(4):
                pools.append(tuple(s for s in scalars if rng.random() < 0.5))
        for S in pools:
            covered = check_residue_cover(R, S).ok
            # probing the scalars outside S first surfaces failure witnesses
            # immediately; the full element scan still runs when none fires
            in_s = {s.index for s in S}
            candidates = [R.scalar(k) for k in scalars if k.index not in in_s]
            candidates += elems
            vanishes = _vanishing_product_everywhere(R, candidates, S)
            extracts = _extracts_everything(R, candidates, S)
            assert covered == vanishes == extracts, (q, m, [str(s) for s in S])
            subsets_checked += 1
        rings += 1
    elapsed = time.perf_counter() - t0
    banner(1, "three-conditions-agree", True, elapsed,
           f"({rings} rings, {subsets_checked} generator sets)")
    assert elapsed < 10.0


# -- criterion 2 --------------------------------------------------------------

def test_criterion_02_constructive_extraction_and_golden():
    t0 = time.perf_counter()
    # reconstruction is exact on every ring of criterion 1 with the full
    # scalar family, and the coefficient formula is reproduced literally
    for q, m in _rings_up_to_81():
        K = GF(q)
        R = StepRing(K, BooleanRing(m))
        gens = [R.scalar(k) for k in K.elements()]
        for x in R.elements():
            combo = extract_combination(x, gens)
            assert combo.evaluate(R) == x
            # re-derive a_i = (1 - b_i) * prod_{j<i} b_j from scratch
            full = R.bool_ring.full_mask
            running = full
            for a_i, g in zip(combo.coeffs, gens):
                b_i = (x - g).support_mask_int()
                assert a_i.mask == (full ^ b_i) & running
                running &= b_i
    # golden file: block-exact coefficient listings
    lines = []
    for q, atoms, gens in ((3, 2, [0, 1, 2]), (2, 3, [0, 1]), (4, 1, None)):
        K = GF(q)
        R = StepRing(K, BooleanRing(atoms))
        if gens is None:
            gens = list(K.elements())
        lines.append(f"ring {R} gens {','.join(str(g) for g in gens)}")
        for x in R.elements():
            combo = extract_combination(x, gens)
            lines.append(f"{x} :: " + " ".join(str(c) for c in combo.coeffs))
        lines.append("")
    regenerated = "\n".join(lines)
    golden = (GOLDEN / "extractions.txt").read_text()
    assert regenerated == golden
    banner(2, "constructive-extraction-golden", True, time.perf_counter() - t0)


# -- criterion 3 --------------------------------------------------------------

def _signatures_atoms_le_4():
    fields = [(2, 1), (3, 1), (2, 2)]
    for r in range(1, len(fields) + 1):
        for combo in itertools.combinations(fields, r):
            for counts in itertools.product(range(1, 5), repeat=r):
                if sum(counts) <= 4:
                    yield RingSignature.from_dict(dict(zip(combo, counts)))


def test_criterion_03_structure_theorem():
    t0 = time.perf_counter()
    rng = random.Random(303)
    sigs = list(_signatures_atoms_le_4())
    presentations = []
    for sig in sigs:
        ring = ring_from_signature(sig)
        pres = full_presentation(ring)
        got, _ = structure_decompose(pres)
        assert got == sig  # round trip
        shuffled = list(pres.gens)
        rng.shuffle(shuffled)
        got2, _ = structure_decompose(SubringPresentation(ring, tuple(shuffled)))
        assert got2 == sig  # generator permutation
        if len(ring.factors) > 1:
            flipped = ProductRing(tuple(reversed(ring.factors)))
            got3, _ = structure_decompose(full_presentation(flipped))
            assert got3 == sig  # factor permutation
        presentations.append((sig, pres))
    for (s1, p1), (s2, p2) in itertools.product(presentations, repeat=2):
        assert iso_test(p1, p2) == (s1 == s2)
    elapsed = time.perf_counter() - t0
    banner(3, "structure-theorem", True, elapsed, f"({len(sigs)} signatures)")
    assert elapsed < 30.0


# -- criterion 4 --------------------------------------------------------------

def test_criterion_04_product_merge():
    for q in (2, 4):
        K = GF(q)
        for m in range(1, 4):
            for n in range(1, 5 - m):
                ring = P((q, m), (q, n))
                sig, _ = structure_decompose(full_presentation(ring))
                assert sig == RingSignature.from_dict({(K.p, K.n): m + n})
    banner(4, "product-merge", True)


# -- criterion 5 --------------------------------------------------------------

def test_criterion_05_contractive_iff_conv():
    t0 = time.perf_counter()
    for ring in (P((2, 2)), P((4, 1))):
        elems = ring.cached_elements()
        count = 0
        for images in itertools.product(elems, repeat=len(elems)):
            f = MapTable(ring, dict(zip(elems, images)))
            assert is_contractive(f)[0] == commutes_with_conv(f)[0]
            count += 1
        assert count == 256
    elapsed = time.perf_counter() - t0
    banner(5, "contractive-iff-conv", True, elapsed)
    assert elapsed < 5.0


# -- criterion 6 --------------------------------------------------------------

def test_criterion_06_support_power():
    cases = [(P((2, 1), (4, 1)), 3), (P((3, 1), (4, 1)), 6), (P((2, 1), (3, 1), (4, 1)), 6)]
    for ring, expected_m in cases:
        m, verified = support_exponent(ring)
        assert m == expected_m and verified
        for x in ring.elements():
            assert x ** m == x.support()
        rep = quotient_order_bound(ring, m)
        assert rep.holds_strictly  # every order < 2m away from the edge
    # the all-order-2 edge: strict bound fails exactly at the boundary, flagged
    boolean = P((2, 3))
    m, verified = support_exponent(boolean)
    assert (m, verified) == (1, True)
    rep = quotient_order_bound(boolean, m)
    assert rep.boundary_cases == (2,) and rep.ok_up_to_boundary
    assert not rep.holds_strictly
    banner(6, "support-power-and-bound", True)


# -- criterion 7 --------------------------------------------------------------

def test_criterion_07_contractive_to_polynomial():
    t0 = time.perf_counter()
    # validate the coordinatewise enumeration against the definition first
    small = P((2, 2))
    elems = small.cached_elements()
    by_definition = set()
    for images in itertools.product(elems, repeat=len(elems)):
        f = MapTable(small, dict(zip(elems, images)))
        if is_contractive(f)[0]:
            by_definition.add(f.key())
    enumerated = {f.key() for f in contractive_maps(small)}
    assert enumerated == by_definition
    # all 729 contractive maps of the 9-element ring interpolate exactly
    ring = P((3, 2))
    count = 0
    for f in contractive_maps(ring):
        poly = contractive_to_polynomial(f)
        assert all(poly.evaluate(x) == y for x, y in f.mapping.items())
        count += 1
    assert count == 729
    elapsed = time.perf_counter() - t0
    banner(7, "contractive-to-polynomial", True, elapsed, f"({count} maps)")
    assert elapsed < 10.0


# -- criterion 8 --------------------------------------------------------------

def test_criterion_08_iteration_finiteness():
    t0 = time.perf_counter()
    for ring, expect in ((P((2, 2)), 2), (P((3, 2)), 3), (P((2, 1), (3, 1)), 6)):
        gens = [ring.scalar(k) for k in range(ring_char(ring))]
        cert = iteration_orbit(PolyMap(ring, [ring.one, ring.one]), gens=gens)
        assert cert.orbit_size == expect and cert.methods_agree
    for q, expect in ((4, 2), (8, 3), (16, 4)):
        ring = P((q, 1))
        gens = [ring.scalar_at(0, k) for k in GF(q).elements()]
        cert = iteration_orbit(PolyMap(ring, [ring.zero, ring.zero, ring.one]), gens=gens)
        assert cert.orbit_size == expect and cert.methods_agree
    rng = random.Random(808)
    rings = [P((2, 3)), P((3, 2)), P((4, 2)), P((2, 2), (4, 1)), P((8, 2)), P((2, 6))]
    done = 0
    while done < 100:
        ring = rings[done % len(rings)]
        gens = [ring.scalar_at(i, k) for i, f in enumerate(ring.factors)
                for k in f.field.elements()]
        cert = iteration_orbit(random_polymap(ring, rng), gens=gens)
        assert cert.methods_agree
        done += 1
    elapsed = time.perf_counter() - t0
    banner(8, "iteration-finiteness", True, elapsed, f"({done} random maps)")


# -- criterion 9 --------------------------------------------------------------

def test_criterion_09_gf4_kernel():
    t0 = time.perf_counter()
    rep = gf4_kernel_check()
    K = GF(4)
    assert rep.relation_ok
    assert rep.h_values == (K.zero, K.zero, K.zero, K.one)
    assert rep.h_values[2] == K.zero  # the image of the generator vanishes
    assert len(rep.candidates) == 16 and rep.all_rejected
    assert all(m >= 1 for _, m in rep.candidates)
    elapsed = time.perf_counter() - t0
    banner(9, "gf4-kernel", True, elapsed)
    assert elapsed < 1.0


# -- criterion 10 -------------------------------------------------------------

def test_criterion_10_tower():
    t0 = time.perf_counter()
    expected = {1: (4,), 2: (4, 16), 3: (4, 16, 256)}
    maxes = []
    rng = random.Random(1010)
    for n in (1, 2, 3):
        tr = tower_build(2, n)
        assert tr.quotient_sizes() == expected[n]
        if n <= 2:
            for values in itertools.product(list(tr.universe.elements()), repeat=n):
                tr.is_member(tr.ring.from_values(values))  # raises on mismatch
        else:
            for _ in range(10_000):
                tr.is_member(tr.ring.random_element(rng))
        maxes.append(max(tr.quotient_sizes()))
    assert maxes == [4, 16, 256]
    assert all(a < b for a, b in zip(maxes, maxes[1:]))
    elapsed = time.perf_counter() - t0
    banner(10, "tower-quotients", True, elapsed)


# -- criterion 11 -------------------------------------------------------------

def test_criterion_11_characteristic_decomposition():
    ring = P((2, 1), (3, 1), (4, 1))
    assert ring_char(ring) == 6
    blocks = char_decompose(ring)
    assert sorted(b.prime for b in blocks) == [2, 3]
    total = ring.zero
    for b in blocks:
        total = total + b.idempotent
        assert b.idempotent * b.idempotent == b.idempotent
    assert total == ring.one
    for b1, b2 in itertools.combinations(blocks, 2):
        assert not (b1.idempotent * b2.idempotent)
    banner(11, "characteristic-decomposition", True)


# -- criterion 12 -------------------------------------------------------------

def test_criterion_12_infrastructure_selftest():
    t0 = time.perf_counter()
    ok = run_selftest(out=lambda *_: None)
    elapsed = time.perf_counter() - t0
    banner(12, "infrastructure-selftest", ok, elapsed)
    assert elapsed < 120.0
