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
interpolated prime by prime into an explicit polynomial (and the result is
verified against the whole table before it is returned), and a brute-force
witness search over all small coefficient tuples serves as an independent
oracle.

Iteration finiteness is witnessed two ways, which must agree on tail and
period.  The table method reads them off the functional graph of f in one
pass: the tail from the longest path into a cycle, the period as the lcm of
the cycle lengths.  The matrix method iterates the coefficient matrix of f
on a generating family over the finite Boolean subring its entries generate
(whose size is counted prime by prime).  Every column of every iterate is a
complete orthogonal family, so it is its owner vector: at each prime, the
one generator whose entry contains it.  M^(k+1) = M^k M^1 is then one lookup
per prime and column, own'[p] = owner1[own[p]][p].  Every owner is the
first generator with its value at its prime, so two iterates are equal
exactly when their owner vectors are; no ring element and no mask is built
per step, and the certificate's mask matrices are read off the owner vectors
at the end.

A map table is the tuple of its image positions.  The ring's radix
(`ProductRing.radix`) names an element by its position, whose digits are its
value indices at the primes, and every check here reads digits off positions.
`MapTable.from_prime_functions` alone assembles positions, from one
value-index function per prime: Horner on a polynomial's coefficient indices,
an enumerated contractive map, or an interpolation to be checked.  The ring
element loops these replace are kept in the tests as references, and
`PolyMap.evaluate` stays ring Horner, the oracle for polynomial tables.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import CapExceeded, VerificationError
from .fields import interpolate_i
from .products import ProductElem, ProductRing, check_residue_cover
from .record import Record, _set

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

    def induced_table(self) -> "MapTable":
        """The table of x -> self(x), by Horner on the coefficients' value
        indices once per (prime, value)."""
        def row(label, field):
            cs = [c.index_at(label) for c in reversed(self.coeffs)]
            for v in range(field.q):
                fv = 0
                for c in cs:
                    fv = field.add_i(field.mul_i(fv, v), c)
                yield fv

        return MapTable.from_prime_functions(
            self.ring, (row(label, field) for label, field, _ in self.ring.radix()))

    def same_function(self, other: "PolyMap") -> bool:
        if self.ring != other.ring:
            raise ValueError("polynomials over different rings")
        return self.induced_table() == other.induced_table()

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
    """A total self-map of a small ring: images[k] is the position, in
    `cached_elements` order, of the image of the k-th element.  `mapping`
    (built on first use), `items`, calls and the text are views of it."""

    __slots__ = ("ring", "images", "_mapping")

    def __init__(self, ring: ProductRing, mapping):
        elems = ring.cached_elements(TABLE_RING_CAP)
        mapping = dict(mapping)
        if len(mapping) != len(elems):
            raise ValueError(f"table must be total: {len(mapping)} entries for {len(elems)} elements")
        images = []
        for x in elems:
            y = mapping.get(x)
            if y is None:
                raise ValueError(f"table missing {x}")
            images.append(ring.element_index(ring.coerce(y)))
        self.ring = ring
        self.images = tuple(images)
        self._mapping = None

    @classmethod
    def _of(cls, ring, images):
        out = cls.__new__(cls)
        out.ring = ring
        out.images = images
        out._mapping = None
        return out

    @classmethod
    def from_function(cls, ring, fn):
        return cls(ring, {x: fn(x) for x in ring.cached_elements(TABLE_RING_CAP)})

    @classmethod
    def from_prime_functions(cls, ring, rows):
        """The map whose image has value index rows[t][v] at the t-th prime
        of `ring.radix()` where the argument's is v, for v = 0, ..., q - 1.
        Positions are built prime by prime, the first varying fastest as in
        element order; rows is read only after the size cap is checked."""
        ring.cached_elements(TABLE_RING_CAP)
        images = [0]
        for (_, _, weight), row in zip(ring.radix(), rows, strict=True):
            images = [c + b for c in [d * weight for d in row] for b in images]
        return cls._of(ring, tuple(images))

    @property
    def mapping(self):
        if self._mapping is None:
            self._mapping = dict(self.items())
        return self._mapping

    def __call__(self, x: ProductElem) -> ProductElem:
        return self.mapping[x]

    def items(self):
        elems = self.ring.cached_elements(len(self.images))
        return zip(elems, (elems[k] for k in self.images))

    def then(self, other: "MapTable") -> "MapTable":
        """x -> other(self(x))."""
        return MapTable._of(self.ring, tuple(other.images[k] for k in self.images))

    def key(self):
        return self.images

    def __eq__(self, other):
        if isinstance(other, MapTable):
            return self.ring == other.ring and self.images == other.images
        return NotImplemented

    def __str__(self):
        return "\n".join(f"{x} -> {y}" for x, y in self.items())


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
    images = f.images
    n = len(images)
    radix = [(field.q, weight) for _, field, weight in f.ring.radix()]
    first = n
    for q, weight in radix:
        suffix = {}
        for i in range(n - 1, -1, -1):
            v = i // weight % q             # the digits of element i and its image here
            w = images[i] // weight % q
            seen = suffix.get(v)
            if seen is None:
                suffix[v] = w
            elif seen is _MIXED or seen != w:
                suffix[v] = _MIXED
                first = min(first, i)
    if first == n:
        return True, None
    elems = f.ring.cached_elements(n)
    fx = images[first]
    for y in range(first + 1, n):
        fy = images[y]
        if any(first // w % q == y // w % q and fx // w % q != fy // w % q for q, w in radix):
            return False, (elems[first], elems[y])
    raise VerificationError(f"the prime scan found no partner for {elems[first]}")


def commutes_with_conv(f: MapTable):
    """Check f(sum a_i x_i) = sum a_i f(x_i) over two-block families.

    Two-block families suffice: an n-block combination is a_1 x_1 +
    (1 - a_1) z with z = (a_1 + a_2) x_2 + a_3 x_3 + ... + a_n x_n an
    (n-1)-block one, so commuting with every two-block family gives the rest
    by induction.  Returns (ok, witness) where a witness is (coeffs, values).

    Elements are compared by position.  For the family (a, 1 - a), the
    position of a x + (1 - a) y is pa[x] + pb[y], the digits of x at the
    primes of a and those of y elsewhere (`ProductRing.radix`); likewise
    a f(x) + (1 - a) f(y) is at ia[x] + ib[y], read off the images.
    """
    ring = f.ring
    img = f.images
    elems = ring.cached_elements(len(img))
    profiles = list(ring.idempotent_profiles())
    if len(profiles) * len(elems) ** 2 > CONV_CHECK_BUDGET:
        raise CapExceeded("two-block conv check exceeds the budget")
    radix = ring.radix()
    positions = range(len(elems))
    for prof in profiles:
        in_a = [(field.q, weight) for (i, j), field, weight in radix if prof[i] >> j & 1]
        pa = [sum(k // w % q * w for q, w in in_a) for k in positions]
        ia = [sum(t // w % q * w for q, w in in_a) for t in img]
        pb = [k - a for k, a in zip(positions, pa)]
        ib = [t - a for t, a in zip(img, ia)]
        for x in positions:
            px, fx = pa[x], ia[x]
            for y in positions:
                if img[px + pb[y]] != fx + ib[y]:
                    fulls = (fac.bool_ring.full_mask for fac in ring.factors)
                    comp = tuple(full ^ m for full, m in zip(fulls, prof))
                    coeffs = (ring.from_profile(prof), ring.from_profile(comp))
                    return False, (coeffs, (elems[x], elems[y]))
    return True, None


# ---------------------------------------------------------------------------
# iteration orbits


class IterationCertificate(Record):
    """Witness that the iterates of a map form a finite set; `matrices`
    holds the coefficient matrices M^1, M^2, ..."""

    __slots__ = ()

    def __init__(self, orbit_size: int, tail: int, period: int, generators: tuple | None,
                 matrices: tuple | None, boolean_subring_size: int | None,
                 methods_agree: bool):
        _set(self, "_key", (orbit_size, tail, period, generators, matrices,
                            boolean_subring_size, methods_agree))


def iteration_orbit(f, gens=None, cap: int = ORBIT_CAP) -> IterationCertificate:
    """Orbit size of {f, f^2, f^3, ...} by table iteration, and, when a
    generating family is supplied, by the coefficient-matrix iteration.

    The matrix method needs f to commute with convex combinations (checked
    via contractivity) and the family to cover every residue field; it is
    refused otherwise.  Both methods must agree.  The matrix iterates run
    on owner vectors (see the module docstring) until they repeat.
    The Boolean subring the matrix entries generate has 2^c elements, c the
    number of distinct nonzero patterns recording which entries contain each
    prime.
    """
    table = f.induced_table() if isinstance(f, PolyMap) else f
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
    radix = ring.radix()
    digits = [(field.q, weight) for _, field, weight in radix]
    positions = [ring.element_index(g) for g in gens]
    gen_values = [[x // w % q for q, w in digits] for x in positions]
    # owner1[j][t]: the generator M^1's column j selects at the t-th prime,
    # the first one taking the value of f(gens[j]) there (one does: the
    # family covers), as in the extraction.  Every later owner is an entry
    # of owner1, so the owner vectors key the iterates.
    first_gen = {}
    for r, values in enumerate(gen_values):
        for t, v in enumerate(values):
            first_gen.setdefault((t, v), r)
    owner1 = [tuple(first_gen[t, y // w % q] for t, (q, w) in enumerate(digits))
              for y in (table.images[x] for x in positions)]
    owners = []         # M^1, M^2, ... up to the first repeat, as owner vectors per column
    seen = {}
    own = owner1
    while True:
        owners.append(own)
        first = seen.setdefault(tuple(own), len(owners))
        if first < len(owners):
            break
        if len(owners) >= cap:
            raise CapExceeded(f"matrix orbit exceeded the cap {cap}")
        own = [tuple(owner1[r][t] for t, r in enumerate(col)) for col in own]
    m_tail = first - 1
    m_period = len(owners) - first
    m_size = m_tail + m_period
    agree = m_size == t_size and m_tail == t_tail and m_period == t_period
    if not agree:
        raise VerificationError(
            f"orbit methods disagree: table {(t_size, t_tail, t_period)} vs "
            f"matrix {(m_size, m_tail, m_period)}")
    labels = [(i, 1 << j) for (i, j), _, _ in radix]
    # the mask matrices, built once per distinct column
    masks = {col: _column_masks(col, labels, len(gens), len(ring.factors))
             for col in set(itertools.chain.from_iterable(owners))}
    matrices = tuple(tuple(map(masks.__getitem__, own)) for own in owners)
    bool_size = boolean_subring_size([prof for col in matrices[0] for prof in col], ring)
    return IterationCertificate(t_size, t_tail, t_period, gens, matrices, bool_size, True)


def _column_masks(own, labels, count, width):
    """The matrix column with owner vector own: per generator, per factor,
    the mask of the primes it owns."""
    masks = [[0] * width for _ in range(count)]
    for (i, bit), r in zip(labels, own):
        masks[r][i] |= bit
    return tuple(map(tuple, masks))


def _table_orbit(table: MapTable, cap: int):
    """(size, tail, period) of f, f^2, ..., read off the functional graph of f.

    Every x reaches a cycle after h(x) steps, and f^a(x) = f^b(x) for a < b
    exactly when a >= h(x) and the cycle length divides b - a.  So the first
    repeat among the powers from f^1 on is f^(tail + 1) with tail =
    max(h, 1) - 1, h the largest distance to a cycle, and period the lcm of
    the cycle lengths.
    """
    succ = table.images
    depth = [-1] * len(succ)        # distance to the cycle, once known
    height = 0
    period = 1
    for start in range(len(succ)):
        walk = {}                   # node -> position on this walk
        x = start
        while depth[x] < 0 and x not in walk:
            walk[x] = len(walk)
            x = succ[x]
        path = list(walk)
        if depth[x] < 0:            # the walk closed a new cycle at x
            cut = walk[x]
            period = math.lcm(period, len(path) - cut)
            for y in path[cut:]:
                depth[y] = 0
            del path[cut:]
        d = depth[x]
        for y in reversed(path):
            d += 1
            depth[y] = d
        height = max(height, d)
    tail = max(height, 1) - 1
    if tail + period > cap:
        raise CapExceeded(f"table orbit exceeded the cap {cap}")
    return tail + period, tail, period


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


class BoundReport(Record):
    """Outcome of checking that every residue order is < 2k for a degree-k
    polynomial support map.  Strict violations are orders above the bound
    (genuinely impossible), boundary cases orders equal to it (the all-GF(2)
    edge)."""

    __slots__ = ()

    def __init__(self, degree: int, bound: int, orders: tuple, strict_violations: tuple,
                 boundary_cases: tuple):
        _set(self, "_key", (degree, bound, orders, strict_violations, boundary_cases))

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

    At each prime, interpolate the function f induces there (read off the
    images of the elements whose other digits are 0); coefficient d is the
    element whose digit at each prime is that prime's d-th coefficient.  The polynomial's table must equal f's before return.
    """
    ok, witness = is_contractive(f)
    if not ok:
        raise ValueError(f"map is not contractive (witness pair {witness})")
    ring = f.ring
    images = f.images
    elems = ring.cached_elements(len(images))
    radix = ring.radix()
    degree = max(fac.field.q for fac in ring.factors)
    digits = []     # per prime, the coefficients' value indices
    for _, field, weight in radix:
        row = [images[v * weight] // weight % field.q for v in range(field.q)]
        digits.append(interpolate_i(field, row) + [0] * (degree - field.q))
    poly = PolyMap(ring, [elems[sum(cs[d] * weight for cs, (_, _, weight) in zip(digits, radix))]
                          for d in range(degree)])
    got = poly.induced_table().images
    if got != images:
        k = next(k for k, (a, b) in enumerate(zip(got, images)) if a != b)
        raise VerificationError(
            f"interpolated polynomial disagrees with the contractive map at {elems[k]}")
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
    elems = ring.cached_elements(len(f.images))
    degree = max(fac.field.q for fac in ring.factors)
    total = len(elems) ** degree * len(elems)
    if total > 300_000:
        raise CapExceeded(f"brute-force witness search needs {total} evaluations")
    items = list(f.items())
    for coeffs in itertools.product(elems, repeat=degree):
        poly = PolyMap(ring, coeffs)
        if all(poly.evaluate(x) == y for x, y in items):
            return poly
    return None


# ---------------------------------------------------------------------------
# enumerating contractive maps, random polynomials


def contractive_maps(ring: ProductRing):
    """All contractive self-maps, enumerated as tuples of per-prime functions.

    Contractive maps act prime-by-prime, so they are exactly the choices of
    one function K -> K per atom; the tests validate this enumeration
    against the definition.
    """
    ring.cached_elements(TABLE_RING_CAP)
    choices = [itertools.product(range(field.q), repeat=field.q) for _, field, _ in ring.radix()]
    for rows in itertools.product(*choices):
        yield MapTable.from_prime_functions(ring, rows)


def random_polymap(ring: ProductRing, rng: random.Random, max_degree: int = 3) -> PolyMap:
    degree = rng.randint(0, max_degree)
    return PolyMap(ring, [ring.random_element(rng) for _ in range(degree + 1)])
