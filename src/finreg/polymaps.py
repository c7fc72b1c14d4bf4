"""Polynomial and contractive self-maps of a product ring.

A map is contractive when the support of f(x) - f(y) is dominated by the
support of x - y; on these rings that is the same as commuting with convex
combinations, and on finitely covered rings the same again as being given by
a polynomial.  Contractivity is decided prime by prime: f is contractive
exactly when its value at each prime depends only on the argument's value
there, so one scan per prime finds the first violating pair in linear time.
Commuting with convex combinations is checked on two-block families only,
which by induction on the number of blocks covers every family.
Both directions are made effective here: a contractive map table is
interpolated blockwise on the embedded field scalars into an explicit
polynomial (and the result is verified against the whole table before it is
returned), and a brute-force witness search over all small coefficient
tuples serves as an independent oracle.

Iteration finiteness is witnessed two ways: plain cycle detection on
composed tables, and the coefficient-matrix iteration over the finite
Boolean subring generated by the convex coordinates of f on a generating
family, whose size is counted prime by prime.  Both must agree on the orbit
size.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import CapExceeded, VerificationError
from .fields import lagrange_interpolate
from .products import ProductElem, ProductRing, check_residue_cover, extract_combination

TABLE_RING_CAP = 4096
CONV_CHECK_BUDGET = 500_000
ORBIT_CAP = 100_000


class PolyMap:
    """A polynomial with coefficients in the ring, as a self-map.

    Equality is equality of normalized coefficient tuples (trailing zeros
    stripped); two distinct polynomials over a finite ring may still induce
    the same function, which `same_function` tests separately.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ProductRing, coeffs):
        coeffs = [ring.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, x: ProductElem) -> ProductElem:
        x = self.ring.coerce(x)
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def induced_table(self, cap: int = TABLE_RING_CAP) -> "MapTable":
        return MapTable.from_function(self.ring, self.evaluate, cap=cap)

    def same_function(self, other: "PolyMap", cap: int = TABLE_RING_CAP) -> bool:
        if self.ring != other.ring:
            raise ValueError("polynomials over different rings")
        return all(self.evaluate(x) == other.evaluate(x) for x in self.ring.elements(cap))

    def __eq__(self, other):
        if isinstance(other, PolyMap):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return "poly[" + "; ".join(str(c) for c in self.coeffs) + "]"

    __repr__ = __str__


class MapTable:
    """A total self-map of a small ring, stored explicitly."""

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

    def then(self, other: "MapTable") -> "MapTable":
        """x -> other(self(x))."""
        out = MapTable.__new__(MapTable)
        out.ring = self.ring
        out.mapping = {x: other.mapping[y] for x, y in self.mapping.items()}
        return out

    def key(self):
        ring = self.ring
        return tuple(ring.element_index(self.mapping[x])
                     for x in ring.cached_elements(len(self.mapping)))

    def __eq__(self, other):
        if isinstance(other, MapTable):
            return self.ring == other.ring and self.mapping == other.mapping
        return NotImplemented

    def __str__(self):
        return "\n".join(f"{x} -> {y}" for x, y in self.items())


def as_table(f, cap: int = TABLE_RING_CAP) -> MapTable:
    return f.induced_table(cap) if isinstance(f, PolyMap) else f


# ---------------------------------------------------------------------------
# contractivity and conv-commuting

_MIXED = object()   # two different image values share one argument value


def is_contractive(f: MapTable):
    """Whether support(f(x)-f(y)) <= support(x-y) for all x, y, decided by
    one backward scan per prime.

    A pair violates the inequality iff at some prime x and y agree while
    f(x) and f(y) differ.  Walking the elements backwards, each prime keeps
    the image value seen so far for every argument value there, or _MIXED
    once two differ; an element with a later partner is one whose entry is
    mixed or holds another image.  Returns (ok, witness), where the witness
    is the first violating pair in element order (the smallest x, then the
    smallest y after it).
    """
    ring = f.ring
    elems = ring.cached_elements(len(f.mapping))
    images = [f.mapping[x] for x in elems]
    first = len(elems)
    for label in ring.prime_labels():
        suffix = {}
        for i in range(len(elems) - 1, -1, -1):
            v = elems[i].value_at(label)
            w = images[i].value_at(label)
            seen = suffix.get(v)
            if seen is None:
                suffix[v] = w
            elif seen is _MIXED or seen != w:
                suffix[v] = _MIXED
                first = min(first, i)
    if first == len(elems):
        return True, None
    x, fx = elems[first], images[first]
    for y, fy in zip(elems[first + 1:], images[first + 1:]):
        dom = (x - y).support_profile()
        img = (fx - fy).support_profile()
        if any(m & ~d for m, d in zip(img, dom)):
            return False, (x, y)
    raise VerificationError(f"the prime scan found no partner for {x}")


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


def commutes_with_conv(f: MapTable):
    """Check f(sum a_i x_i) = sum a_i f(x_i) over two-block families.

    Two-block families suffice: an n-block combination is a_1 x_1 +
    (1 - a_1) z with z = (a_1 + a_2) x_2 + a_3 x_3 + ... + a_n x_n an
    (n-1)-block one, so commuting with every two-block family gives the rest
    by induction.  Returns (ok, witness) where a witness is (coeffs, values).
    """
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


# ---------------------------------------------------------------------------
# iteration orbits


@dataclass(frozen=True)
class IterationCertificate:
    """Witness that the iterates of a map form a finite set."""

    orbit_size: int
    tail: int
    period: int
    generators: tuple | None
    matrices: tuple | None          # coefficient matrices M^1, M^2, ...
    boolean_subring_size: int | None
    methods_agree: bool


def iteration_orbit(f, gens=None, cap: int = ORBIT_CAP) -> IterationCertificate:
    """Orbit size of {f, f^2, f^3, ...} by table iteration, and, when a
    generating family is supplied, by the coefficient-matrix iteration.

    The matrix method needs f to commute with convex combinations (checked
    via contractivity) and the family to cover every residue field; it is
    refused otherwise.  Both methods must agree.  The Boolean subring the
    matrix entries generate has 2^c elements, c the number of distinct
    nonzero patterns recording which entries contain each prime.
    """
    table = as_table(f)
    t_size, t_tail, t_period = _table_orbit(table, cap)
    if gens is None:
        return IterationCertificate(t_size, t_tail, t_period, None, None, None, True)

    ring = table.ring
    contractive, witness = is_contractive(table)
    if not contractive:
        raise ValueError(f"matrix method refused: map does not commute with "
                         f"convex combinations (witness pair {witness})")
    cover = check_residue_cover(ring, gens)
    if not cover.ok:
        raise ValueError(f"matrix method refused: generators miss residues {cover.missing[:3]}")
    gens = tuple(ring.coerce(g) for g in gens)
    m1 = []
    for g in gens:
        combo = extract_combination(table(g), gens)
        m1.append(tuple(c.support_profile() for c in combo.coeffs))
    # m1[j][i] = coefficient of gens[i] in f(gens[j]); columns indexed by j
    columns = m1
    matrices = [tuple(columns)]
    seen = {}
    k = 1
    while True:
        values = tuple(ring.convex([ring.from_profile(p) for p in col], gens) for col in columns)
        first = seen.get(values)
        if first is not None:
            m_tail = first - 1
            m_period = k - first
            break
        seen[values] = k
        k += 1
        if k > cap:
            raise CapExceeded(f"matrix orbit exceeded the cap {cap}")
        columns = [_matrix_column_step(col, m1) for col in columns]
        matrices.append(tuple(columns))
    m_size = m_tail + m_period
    agree = m_size == t_size and m_tail == t_tail and m_period == t_period
    if not agree:
        raise VerificationError(
            f"orbit methods disagree: table {(t_size, t_tail, t_period)} vs "
            f"matrix {(m_size, m_tail, m_period)}")
    bool_size = boolean_subring_size([prof for col in m1 for prof in col], ring)
    return IterationCertificate(t_size, t_tail, t_period, gens, tuple(matrices), bool_size, True)


def _table_orbit(table: MapTable, cap: int):
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


def _matrix_column_step(col, m1):
    # next column t-entry: union over r of col[r] & m1[r][t]; the terms are
    # disjoint because col is a complete orthogonal family
    n = len(col)
    width = len(col[0])
    out = []
    for t in range(n):
        masks = [0] * width
        for r in range(n):
            prof_cr = col[r]
            prof_rt = m1[r][t]
            for i in range(width):
                masks[i] |= prof_cr[i] & prof_rt[i]
        out.append(tuple(masks))
    return tuple(out)


def boolean_subring_size(profiles, ring) -> int:
    """Size of the Boolean subring generated by the given idempotent profiles:
    2 to the number of distinct nonzero membership patterns over the primes."""
    patterns = {tuple((p[i] >> j) & 1 for p in profiles) for i, j in ring.prime_labels()}
    patterns.discard((0,) * len(profiles))
    return 1 << len(patterns)


# ---------------------------------------------------------------------------
# the support map as a power


def support_exponent(ring: ProductRing, *, cap: int = TABLE_RING_CAP,
                     samples: int = 1000, rng: random.Random | None = None):
    """The exponent m (product of |K|-1 over distinct factor orders) with
    support(x) = x^m, and whether that identity was verified."""
    orders = sorted({f.field.q for f in ring.factors})
    m = 1
    for q in orders:
        m *= q - 1
    verified = True
    if ring.size <= cap:
        candidates = ring.elements(cap)
    else:
        rng = rng or random.Random(0)
        candidates = (ring.random_element(rng) for _ in range(samples))
    for x in candidates:
        if x ** m != x.support():
            verified = False
            break
    return m, verified


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking that every residue order is < 2k for a degree-k
    polynomial support map."""

    degree: int
    bound: int
    orders: tuple
    strict_violations: tuple   # orders > bound: genuinely impossible
    boundary_cases: tuple      # orders == bound: the all-GF(2) edge

    @property
    def holds_strictly(self):
        return not self.strict_violations and not self.boundary_cases

    @property
    def ok_up_to_boundary(self):
        return not self.strict_violations


def quotient_order_bound(ring: ProductRing, degree: int) -> BoundReport:
    bound = 2 * degree
    orders = tuple(sorted({f.field.q for f in ring.factors}))
    strict = tuple(q for q in orders if q > bound)
    boundary = tuple(q for q in orders if q == bound)
    return BoundReport(degree, bound, orders, strict, boundary)


# ---------------------------------------------------------------------------
# contractive -> polynomial


def contractive_to_polynomial(f: MapTable) -> PolyMap:
    """Interpolate a contractive table into an explicit polynomial.

    Per factor, Lagrange-interpolate the values of f on the embedded field
    scalars; the coefficients are step functions read off atomwise.  The
    returned polynomial is verified against the whole table before return.
    """
    ok, witness = is_contractive(f)
    if not ok:
        raise ValueError(f"map is not contractive (witness pair {witness})")
    ring = f.ring
    degree = max(fac.field.q for fac in ring.factors)
    factor_coeffs = []
    for i, fac in enumerate(ring.factors):
        field = fac.field
        atoms = fac.bool_ring.atom_count
        scalar_images = {k: f(ring.scalar_at(i, k)).parts[i] for k in field.elements()}
        atom_coeffs = []
        for j in range(atoms):
            table = {k: img.value_at(j) for k, img in scalar_images.items()}
            coeffs = lagrange_interpolate(field, table)
            atom_coeffs.append(coeffs + (field.zero,) * (degree - len(coeffs)))
        cols = []
        for d in range(degree):
            cols.append(fac.from_values([atom_coeffs[j][d] for j in range(atoms)]))
        factor_coeffs.append(cols)
    coeffs = [ring.element([factor_coeffs[i][d] for i in range(len(ring.factors))])
              for d in range(degree)]
    poly = PolyMap(ring, coeffs)
    for x, y in f.mapping.items():
        if poly.evaluate(x) != y:
            raise VerificationError(
                f"interpolated polynomial disagrees with the contractive map at {x}")
    return poly


def is_polynomial(f: MapTable):
    """(True, witness polynomial) iff the table is contractive."""
    ok, _ = is_contractive(f)
    if not ok:
        return False, None
    return True, contractive_to_polynomial(f)


def polynomial_witness_bruteforce(f: MapTable):
    """Independent oracle: search every coefficient tuple of degree less than
    the largest factor order.  Returns a witness PolyMap or None."""
    ring = f.ring
    elems = ring.cached_elements(len(f.mapping))
    degree = max(fac.field.q for fac in ring.factors)
    total = len(elems) ** degree * len(elems)
    if total > 300_000:
        raise CapExceeded(f"brute-force witness search needs {total} evaluations")
    for coeffs in itertools.product(elems, repeat=degree):
        poly = PolyMap(ring, coeffs)
        if all(poly.evaluate(x) == y for x, y in f.mapping.items()):
            return poly
    return None


# ---------------------------------------------------------------------------
# enumerating contractive maps, random polynomials


def contractive_maps(ring: ProductRing, cap: int = TABLE_RING_CAP):
    """All contractive self-maps, enumerated as tuples of per-prime functions.

    Contractive maps act prime-by-prime, so they are exactly the choices of
    one function K -> K per atom; the tests validate this enumeration
    against the definition.
    """
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
        yield _table_from_atom_functions(ring, funcs, cap)


def _table_from_atom_functions(ring, funcs, cap: int = TABLE_RING_CAP):
    mapping = {}
    for x in ring.cached_elements(cap):
        parts = []
        for i, fac in enumerate(ring.factors):
            values = [funcs[(i, j)][x.parts[i].value_at(j)]
                      for j in range(fac.bool_ring.atom_count)]
            parts.append(fac.from_values(values))
        mapping[x] = ProductElem(ring, tuple(parts))
    out = MapTable.__new__(MapTable)
    out.ring = ring
    out.mapping = mapping
    return out


def random_polymap(ring: ProductRing, rng: random.Random, max_degree: int = 3) -> PolyMap:
    degree = rng.randint(0, max_degree)
    return PolyMap(ring, [ring.random_element(rng) for _ in range(degree + 1)])
