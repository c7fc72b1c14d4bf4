import itertools
import math
import random

import pytest

from finreg import zmodpoly as zp
from finreg.errors import CapExceeded, ParseError
from finreg.fields import (GF, INTERN_CAP, INTERP_CAP, finite_field, field_embedding, field_roots,
                           fpoly_eval, fpoly_mul, fpoly_trim, interpolate_i, lagrange_interpolate)


def test_prime_field_moduli():
    assert finite_field(2, 1).modulus == (0, 1)  # the polynomial x
    assert list(x.coeffs[0] for x in GF(3).elements()) == [0, 1, 2]


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a quadratic over GF(2) is irreducible iff it has no root in {0,1}
    irreducible = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        f = (c0, c1, 1)
        if all((r * r + c1 * r + c0) % 2 != 0 for r in (0, 1)):
            irreducible.append(f)
    assert irreducible == [(1, 1, 1)]
    assert GF(4).modulus == (1, 1, 1)


def test_element_enumeration_is_base_p_counter():
    K = GF(9)
    elems = list(K.elements())
    assert [e.index for e in elems] == list(range(9))
    assert elems[5].coeffs == (2, 1)  # 5 = 2 + 1*3


def test_gf4_arithmetic_examples():
    K = GF(4)
    g = K.generator
    # oracle: x^2 mod (x^2+x+1) = x+1, and x^2+x mod (x^2+x+1) = 1
    assert (g * g).coeffs == (1, 1)
    assert g * (g + 1) == K.one
    for x in K.elements():
        assert x + K.zero == x
        assert x * K.one == x


def test_field_axioms_exhaustive_small():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        K = GF(q)
        elems = list(K.elements())
        for x, y, z in itertools.product(elems, repeat=3):
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
        for x in elems:
            if x:
                assert x * x.inverse() == K.one


def test_fermat_frobenius():
    for q in (2, 3, 4, 8, 9, 16, 25, 27, 49, 64, 81, 121, 128, 243, 256):
        K = GF(q)
        assert all(x ** q == x for x in K.elements())


def test_construction_errors():
    with pytest.raises(ValueError):
        finite_field(6, 1)
    with pytest.raises(ValueError):
        finite_field(2, 0)
    with pytest.raises(CapExceeded):
        finite_field(2, 17)
    assert finite_field(2, 17, degree_cap=17).n == 17  # cap is configurable


def is_prime_trial_division(m):
    """The reference for zmodpoly.is_prime: trial division up to sqrt(m)."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def prime_power_trial_division(q):
    """The reference for zmodpoly.prime_power: the least divisor is p."""
    if q < 2:
        return None
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    n = 0
    while q % p == 0:
        q //= p
        n += 1
    return (p, n) if q == 1 else None


def test_primality_and_prime_powers_match_trial_division_below_200000():
    for m in range(200_000):
        assert zp.is_prime(m) == is_prime_trial_division(m), m
        assert zp.prime_power(m) == prime_power_trial_division(m), m


# Carmichael numbers, then strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7
# and 9 prime bases, and the one to the first 12 (all composite)
PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                5394826801, 2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051,
                318665857834031151167461]


def test_miller_rabin_rejects_pseudoprimes_and_decides_up_to_its_bound():
    for m in PSEUDOPRIMES:
        assert not zp.is_prime(m), m
        assert zp.prime_power(m) is None, m
    for p in (65537, 2 ** 31 - 1, 1000000000000037, 2 ** 61 - 1, 10 ** 18 + 3):
        assert zp.is_prime(p) and zp.prime_power(p) == (p, 1)
        assert zp.prime_power(p ** 3) == (p, 3)
    bound = 3317044064679887385961981
    assert not zp.is_prime(bound + 1) and not zp.is_prime(41 * bound)
    for m in (bound, 2 ** 89 - 1, 10 ** 29 + 319):
        with pytest.raises(CapExceeded, match="not decided"):
            zp.is_prime(m)
    with pytest.raises(CapExceeded):
        zp.prime_power(10 ** 29 + 319)


def test_prime_power_of_huge_integers():
    assert zp.prime_power(3 ** 100) == (3, 100)
    assert zp.prime_power(2 ** 1000) == (2, 1000)
    assert zp.prime_power(7 ** 4000) == (7, 4000)
    assert zp.prime_power(1031 ** 7) == (1031, 7)          # no divisor below 1024
    assert zp.prime_power(1031 ** 6 * 1033) is None
    assert zp.prime_power((2 ** 61 - 1) ** 5) == (2 ** 61 - 1, 5)
    for q in (2 ** 64 - 1, 3 ** 40 - 1, 10 ** 30, (2 ** 31 - 1) ** 2 * 1033):
        assert zp.prime_power(q) is None
    # no divisor below 1024, and the least root is above the bound of is_prime
    with pytest.raises(CapExceeded):
        zp.prime_power((2 ** 61 - 1) ** 2 * (2 ** 31 - 1) ** 4)


def test_fields_are_memoized_before_the_primality_test(monkeypatch):
    K = finite_field(3, 2)
    monkeypatch.setattr(zp, "is_prime", lambda m: pytest.fail("primality tested again"))
    assert finite_field(3, 2) is K and GF(9) is not None


def test_zero_inverse_and_mixed_fields():
    K = GF(4)
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()
    with pytest.raises(ValueError):
        K.one + GF(8).one


def test_embedding_prime_field_cases():
    K2, K4, K16 = GF(2), GF(4), GF(16)
    e = field_embedding(K2, K4)
    assert e(K2.zero) == K4.zero and e(K2.one) == K4.one
    e16 = field_embedding(K2, K16)
    assert {e16(x).index for x in K2.elements()} == {0, 1}


def test_embedding_gf4_into_gf16_root_check():
    K4, K16 = GF(4), GF(16)
    img = field_embedding(K4, K16)(K4.generator)
    # oracle: evaluate the GF(4) modulus at the image inside GF(16)
    assert img * img + img + K16.one == K16.zero


@pytest.mark.parametrize("sub_q,sup_q", [(2, 4), (2, 16), (4, 16)])
def test_embedding_is_ring_homomorphism(sub_q, sup_q):
    sub, sup = GF(sub_q), GF(sup_q)
    e = field_embedding(sub, sup)
    for x, y in itertools.product(sub.elements(), repeat=2):
        assert e(x + y) == e(x) + e(y)
        assert e(x * y) == e(x) * e(y)


def test_embedding_tower_coherence():
    chains = [(4, 16, 256), (2, 4, 256), (4, 16, 2 ** 12)]
    for a, b, c in chains:
        Ka, Kb, Kc = GF(a), GF(b), GF(c)
        eab = field_embedding(Ka, Kb)
        ebc = field_embedding(Kb, Kc)
        eac = field_embedding(Ka, Kc)
        assert all(eac(x) == ebc(eab(x)) for x in Ka.elements())


def test_embedding_degree_error():
    with pytest.raises(ValueError):
        field_embedding(GF(4), GF(8))


def test_root_finding_large_field_paths_agree():
    K4, K256 = GF(4), GF(256)
    by_enum = field_roots(K256, K4.modulus)
    by_split = field_roots(K256, K4.modulus, force_cz=True)
    assert by_enum == by_split and len(by_enum) == 2


def test_lagrange_identity_and_constant():
    K3 = GF(3)
    ident = lagrange_interpolate(K3, {x: x for x in K3.elements()})
    assert ident == (K3.zero, K3.one)
    c = K3.from_int(2)
    assert lagrange_interpolate(K3, {x: c for x in K3.elements()}) == (c,)


def test_lagrange_gf4_obstruction_table():
    K = GF(4)
    g = K.generator
    table = {K.zero: K.zero, K.one: K.zero, g: K.zero, g + 1: K.one}
    coeffs = lagrange_interpolate(K, table)
    # independent oracle: brute-force search of all 4^4 coefficient tuples
    expected = None
    for cand in itertools.product(K.elements(), repeat=4):
        if all(fpoly_eval(list(cand), t) == table[t] for t in K.elements()):
            assert expected is None, "interpolant of degree < q must be unique"
            expected = tuple(cand)
    trimmed = list(expected)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert coeffs == tuple(trimmed)
    assert all(fpoly_eval(coeffs, t) == table[t] for t in K.elements())


def test_lagrange_roundtrip_exhaustive_gf3():
    K = GF(3)
    elems = list(K.elements())
    for image in itertools.product(elems, repeat=3):
        table = dict(zip(elems, image))
        coeffs = lagrange_interpolate(K, table)
        assert all(fpoly_eval(coeffs, x) == table[x] for x in elems)


def test_lagrange_partial_table_rejected():
    K = GF(4)
    with pytest.raises(ValueError):
        lagrange_interpolate(K, {K.zero: K.zero})


def lagrange_by_master_polynomial(field, table):
    """The reference for interpolate_i: sum over the nodes of y times the
    basis polynomial master / (X - node), scaled to 1 at the node, with
    master = prod (X - node) and the quotients by synthetic division."""
    pts = dict(table)
    nodes = [field.from_index(i) for i in range(field.q)]
    for node in nodes:
        if node not in pts:
            raise ValueError(f"interpolation table is not total: missing {node}")
    if len(pts) != field.q:
        raise ValueError("interpolation table has keys outside the field")
    master = [field.one]
    for node in nodes:
        master = fpoly_mul(master, [-node, field.one], field)
    out = [field.zero] * field.q
    for node in nodes:
        y = pts[node]
        if not y:
            continue
        div = [field.zero] * field.q
        div[field.q - 1] = master[field.q]
        for k in range(field.q - 2, -1, -1):
            div[k] = master[k + 1] + node * div[k + 1]
        scale = y * fpoly_eval(div, node).inverse()
        for k in range(field.q):
            if div[k]:
                out[k] = out[k] + scale * div[k]
    return tuple(fpoly_trim(out))


def assert_transform_matches_the_reference(K, values):
    table = {K.from_index(a): K.from_index(y) for a, y in enumerate(values)}
    want = lagrange_by_master_polynomial(K, table)
    got = interpolate_i(K, values)
    assert len(got) == K.q
    assert tuple(fpoly_trim(map(K.from_index, got))) == want
    assert lagrange_interpolate(K, table) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_interpolation_transform_matches_the_master_polynomial_exhaustively(q):
    K = GF(q)
    for values in itertools.product(range(q), repeat=q):
        assert_transform_matches_the_reference(K, values)


@pytest.mark.parametrize("q", [7, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243, 256])
def test_interpolation_transform_matches_the_master_polynomial_sampled(q):
    K = GF(q)
    rng = random.Random(f"interp:{q}")
    few = rng.sample(range(q), 3)
    # random tables (more on the small fields), a sparse one and a constant one
    samples = [[rng.randrange(q) for _ in range(q)] for _ in range(13 if q <= 32 else 1)]
    samples.append([rng.choice(few) if rng.random() < 0.1 else 0 for _ in range(q)])
    samples.append([rng.randrange(q)] * q)
    for values in samples:
        assert_transform_matches_the_reference(K, values)


def test_interpolation_wrapper_keeps_its_checks():
    K = GF(4)
    full = {x: x for x in K.elements()}
    for table in ({K.zero: K.zero}, {**full, GF(2).one: K.one}):
        with pytest.raises(ValueError) as got:
            lagrange_interpolate(K, table)
        with pytest.raises(ValueError) as want:
            lagrange_by_master_polynomial(K, table)
        assert str(got.value) == str(want.value)
    # values: a zero of another field is skipped like any zero, a nonzero one
    # is refused with the reference's text, and integers are prime-field values
    for table in ({**full, K.zero: GF(2).zero}, {**full, K.generator: GF(2).zero},
                  {x: 1 for x in full}, {**full, K.one: 3}):
        assert lagrange_interpolate(K, table) == lagrange_by_master_polynomial(K, table)
    for table in ({**full, K.one: GF(2).one}, {**full, K.generator: GF(8).generator}):
        with pytest.raises(ValueError) as got:
            lagrange_interpolate(K, table)
        with pytest.raises(ValueError) as want:
            lagrange_by_master_polynomial(K, table)
        assert str(got.value) == str(want.value)
    big = GF(8192)
    with pytest.raises(CapExceeded, match=f"interpolation over GF\\(8192\\) exceeds the cap {INTERP_CAP}"):
        lagrange_interpolate(big, {})


def test_element_printing_and_parsing():
    K = GF(4)
    g = K.generator
    assert [str(x) for x in K.elements()] == ["0", "1", "g", "g+1"]
    K9 = GF(9)
    shown = [str(x) for x in K9.elements()]
    assert shown[:4] == ["0", "1", "2", "g"]
    assert "2g+2" in shown
    for K_ in (K, K9, GF(8), GF(27)):
        for x in K_.elements():
            assert K_.parse_element(str(x)) == x
    with pytest.raises(ParseError):
        K.parse_element("1g")
    with pytest.raises(ParseError):
        K.parse_element("g+g")
    with pytest.raises(ParseError):
        K9.parse_element("3")


# ---------------------------------------------------------------------------
# differential test: every element operation against Z/p[X]/(modulus)
# arithmetic on coefficient tuples, computed with zmodpoly


class _Oracle:
    def __init__(self, K):
        self.p, self.n, self.q, self.mod = K.p, K.n, K.q, K.modulus

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        if self.n == 1:     # Z/p[X]/(X): the exhaustive pass makes a million of these
            return (a[0] * b[0] % self.p,)
        c = zp.rem(zp.mul(a, b, self.p), self.mod, self.p)
        return c + (0,) * (self.n - len(c))

    def pow(self, a, e):
        """a^e, or None when a = 0 and e < 0."""
        if e < 0:
            if not any(a):
                return None
            a, e = self.pow(a, self.q - 2), -e
        c = zp.powmod(zp.normalize(a, self.p), e, self.mod, self.p)
        return c + (0,) * (self.n - len(c))


def _oracle_pow(mul, i, e):
    """Index of x^e by square and multiply over the oracle's table."""
    r = 1
    while e:
        if e & 1:
            r = mul[r][i]
        e >>= 1
        i = mul[i][i]
    return r


def test_arithmetic_matches_coefficient_oracle_exhaustive_small():
    for q in range(2, 257):
        if zp.prime_power(q) is None:
            continue
        K = GF(q)
        oracle = _Oracle(K)
        elems = list(K.elements())
        coeffs = [x.coeffs for x in elems]
        pos = {c: i for i, c in enumerate(coeffs)}
        add = [[pos[oracle.add(a, b)] for b in coeffs] for a in coeffs]
        mul = [[pos[oracle.mul(a, b)] for b in coeffs] for a in coeffs]
        inv = [None] + [row.index(1) for row in mul[1:]]
        for x in elems:
            i = x.index
            assert [(x + y).index for y in elems] == add[i], K
            assert [(x * y).index for y in elems] == mul[i], K
            # x - y and x / y are the oracle's unique solutions z of z + y = x, z * y = x
            assert [add[(x - y).index][y.index] for y in elems] == [i] * q, K
            assert [mul[(x / y).index][y.index] for y in elems[1:]] == [i] * (q - 1), K
            assert (-x).index == pos[oracle.neg(x.coeffs)], K
            with pytest.raises(ZeroDivisionError):
                x / K.zero
            if not x:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                with pytest.raises(ZeroDivisionError):
                    x ** -1
                assert x ** 0 == K.one and x ** 5 == x
                continue
            assert x.inverse().index == inv[i], K
            for e in (-q - 1, -2, -1, 0, 1, 2, 3, q - 1, q, 3 * q + 5):
                want = _oracle_pow(mul, i, e) if e >= 0 else _oracle_pow(mul, inv[i], -e)
                assert (x ** e).index == want, (K, x, e)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 10), (65521, 1), (2, 16),       # tables
                                 (65537, 1), (2, 17), (3, 11)])                 # coefficients
def test_arithmetic_matches_coefficient_oracle_sampled(p, n):
    K = finite_field(p, n, degree_cap=17)
    assert (K.q <= INTERN_CAP) == (K._exp is not None)
    oracle = _Oracle(K)
    rng = random.Random(f"fields-oracle:{p}^{n}")
    elems = [K.zero, K.one, K.from_int(-1)] + [K.random_element(rng) for _ in range(40)]
    exponents = (-K.q, -2, -1, 0, 1, 2, 3, K.q - 1, K.q, rng.randrange(-10 ** 9, 10 ** 9))
    for x in elems:
        a = x.coeffs
        assert (-x).coeffs == oracle.neg(a)
        if x:
            assert x.inverse().coeffs == oracle.pow(a, -1)
        for e in exponents:
            want = oracle.pow(a, e)
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    x ** e
            else:
                assert (x ** e).coeffs == want, (K, x, e)
        for y in rng.sample(elems, 8):
            b = y.coeffs
            assert (x + y).coeffs == oracle.add(a, b), (K, x, y)
            assert (x - y).coeffs == oracle.add(a, oracle.neg(b)), (K, x, y)
            assert (x * y).coeffs == oracle.mul(a, b), (K, x, y)
            if y:
                assert (x / y).coeffs == oracle.mul(a, oracle.pow(b, -1)), (K, x, y)
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y


def tuple_walk_tables(K):
    """Reference log/Zech tables: the powers of K's log base b stepped by
    zmodpoly.mul and rem on coefficient tuples, as the builder did for odd p
    before it stepped on indices."""
    p, n, m = K.p, K.n, K.q - 1
    b = K._exp[1]
    bc = K._index_to_coeffs(b)

    def index(coeffs):
        return sum(c * p ** k for k, c in enumerate(coeffs))

    exp, log = [0] * m, [m] * (m + 1)
    v = (1,) + (0,) * (n - 1)
    for k in range(m):
        exp[k] = index(v)
        log[exp[k]] = k
        v = zp.rem(zp.mul(bc, v, p), K.modulus, p)
        v = v + (0,) * (n - len(v))
    assert sorted(exp) == list(range(1, m + 1))     # b is primitive,
    assert all(math.gcd(log[i], m) > 1 for i in range(2, b))   # and the least one
    zech = [log[index(((c[0] + 1) % p,) + c[1:])] for c in map(K._index_to_coeffs, exp)]
    return exp, log, zech


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
                                  (5, 2), (5, 3), (7, 2), (7, 3), (251, 2)])
def test_index_log_walk_matches_the_tuple_walk(p, n):
    K = finite_field(p, n)
    exp, log, zech = tuple_walk_tables(K)
    assert list(K._exp) == exp
    assert list(K._log) == log
    assert list(K._zech) == zech
