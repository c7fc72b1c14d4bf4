"""Finite fields GF(p^n) with a deterministic canonical presentation.

Every field is presented by the lexicographically least irreducible monic
modulus (constant coefficient varying fastest), so element coefficient
vectors mean the same thing across runs and processes.  Elements are
immutable; fields are interned, so field equality is identity.

An element is named by its canonical index, the base-p value of its
coefficient vector.  Arithmetic lives in the field's index kernels `add_i`,
`neg_i`, `sub_i`, `mul_i`, `pow_i` and `inv_i`, which map indices to
indices; FieldElem's operators wrap them, and step-element arithmetic calls
them directly without building FieldElem objects.

Fields of at most INTERN_CAP = 2^16 elements intern every element and keep
three 16-bit tables of about q entries over the log base g, the primitive
element of least index (often not the class of X, which is not primitive in
GF(9), GF(256), GF(4096) or GF(65536)): `_log[i]` is the log of the element
of index i, `_exp[k]` the index of g^k and `_zech[k]` the Zech logarithm
log(1 + g^k).  On these fields the kernels add logs mod q - 1 for products,
quotients, inverses and powers, and a sum g^a + g^b = g^(a + Z(b - a)) is one
Zech lookup (Lidl and Niederreiter, Finite Fields, ch. 9).  Above INTERN_CAP
the same kernels compute on coefficient vectors.

Interpolation (`interpolate_i`) is a transform over the multiplicative
group: by Lucas' binom(q-1, k) = (-1)^k mod p, the coefficient of x^k in
the polynomial through a table f is -sum f(a) a^(-k) over a != 0, for
0 < k < q - 1, each term one log-table lookup; `lagrange_interpolate` wraps
it for FieldElem tables.

Subfield embeddings follow a least-root rule constrained to agree with the
already-fixed embeddings of every maximal proper subfield, which makes the
whole lattice of embeddings commute: embedding F1 into F3 equals embedding
F1 into F2 and then F2 into F3 whenever the degrees divide each other.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache, reduce
from itertools import product, zip_longest

from . import zmodpoly as zp
from .errors import CapExceeded, ParseError, VerificationError

DEGREE_CAP = 16
INTERN_CAP = 1 << 16
ROOT_ENUM_CAP = 4096
INTERP_CAP = 4096

_FIELDS: dict = {}


def finite_field(p: int, n: int = 1, *, degree_cap: int = DEGREE_CAP) -> "FiniteField":
    """The canonical GF(p^n); memoized, so identical calls share one object."""
    field = _FIELDS.get((p, n)) if isinstance(p, int) and isinstance(n, int) else None
    if field is not None:
        return field
    if not isinstance(p, int) or not zp.is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"extension degree must be a positive integer, got {n!r}")
    if n > degree_cap:
        raise CapExceeded(f"degree {n} exceeds the cap {degree_cap} for GF({p}^{n})")
    field = FiniteField(p, n)
    _FIELDS[(p, n)] = field
    return field


def GF(q: int, *, degree_cap: int = DEGREE_CAP) -> "FiniteField":
    """GF(q) for a prime power q."""
    pn = zp.prime_power(q)
    if pn is None:
        raise ValueError(f"{q!r} is not a prime power")
    return finite_field(pn[0], pn[1], degree_cap=degree_cap)


class FieldElem:
    """Element of a FiniteField: an immutable length-n coefficient vector mod p.

    `index` is the base-p value of the vector (constant coefficient least
    significant); it is the canonical ordering used everywhere.
    """

    __slots__ = ("field", "coeffs", "index")

    def __init__(self, field, coeffs, index):
        self.field = field
        self.coeffs = coeffs
        self.index = index

    def _index_of(self, other):
        """Index of an element of this field, or of the image of an integer;
        None for anything else."""
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise ValueError(f"mixed fields: {self.field} vs {other.field}")
            return other.index
        if isinstance(other, int):
            return other % self.field.p
        return None

    # each operator takes its operand's index inline in the common case, a
    # FieldElem of the same field, to save a call per operation

    def __add__(self, other):
        f = self.field
        j = other.index if other.__class__ is FieldElem and other.field is f else self._index_of(other)
        if j is None:
            return NotImplemented
        return f._elem(f.add_i(self.index, j))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return f._elem(f.neg_i(self.index))

    def __sub__(self, other):
        f = self.field
        j = other.index if other.__class__ is FieldElem and other.field is f else self._index_of(other)
        if j is None:
            return NotImplemented
        return f._elem(f.sub_i(self.index, j))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        f = self.field
        j = other.index if other.__class__ is FieldElem and other.field is f else self._index_of(other)
        if j is None:
            return NotImplemented
        return f._elem(f.mul_i(self.index, j))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        return f._elem(f.pow_i(self.index, e))

    def __truediv__(self, other):
        f = self.field
        j = other.index if other.__class__ is FieldElem and other.field is f else self._index_of(other)
        if j is None:
            return NotImplemented
        return f._elem(f.mul_i(self.index, f.inv_i(j)))

    def inverse(self):
        f = self.field
        return f._elem(f.inv_i(self.index))

    def residue_degree(self) -> int:
        """Least d (dividing n) with x^(p^d) = x: x generates GF(p^d)."""
        f = self.field
        for d in f.divisors():
            if self ** (f.p ** d) == self:
                return d
        raise VerificationError(f"{self} fixed by no subfield of {f}")

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.index == other.index and self.field is other.field
        if isinstance(other, int):
            # compare against the ring image of the integer
            return self.index == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.index))

    def __str__(self):
        f = self.field
        if f.n == 1:
            return str(self.coeffs[0])
        terms = []
        for k in range(f.n - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}g" + (f"^{k}" if k > 1 else ""))
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"{self}:{self.field}"


class FiniteField:
    """GF(p^n) presented by the canonical modulus.  Construct via finite_field/GF."""

    __slots__ = ("p", "n", "q", "modulus", "_elems", "_elem", "_log", "_exp", "_zech")

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = zp.least_irreducible(p, n) if n > 1 else (0, 1)
        self._elems = self._log = self._exp = self._zech = None
        self._elem = self._new_elem         # index -> FieldElem
        if self.q <= INTERN_CAP:
            self._build_log_tables()

    def __str__(self):
        return f"GF({self.q})"

    __repr__ = __str__

    # -- log/Zech tables ---------------------------------------------------

    def _build_log_tables(self):
        p, n, m = self.p, self.n, self.q - 1
        # product() varies the last digit fastest; the index varies the constant
        self._elems = elems = [FieldElem(self, c[::-1], i)
                               for i, c in enumerate(product(range(p), repeat=n))]
        self._elem = elems.__getitem__
        # until _log and _exp are set, the index kernels run on coefficients
        primes = zp.prime_divisors(m)
        b = next(i for i in range(1, m + 1) if all(self.pow_i(i, m // r) != 1 for r in primes))
        if p == 2:      # the index is the packed coefficient bitmask
            mod = zp.pack2(self.modulus)

            def step(v):
                return zp._rem2(zp._mul2(v, b), mod)
        elif n == 1:
            def step(v):
                return v * b % p
        else:
            step = self._linear_step(elems[b].coeffs)
        # 16-bit tables: exp[k] is the index of g^k, log[i] the log of the
        # element of index i, with m standing for the log of 0
        exp = array("H", [0]) * m
        log = array("H", [m]) * (m + 1)
        v = 1
        for k in range(m):
            exp[k] = v
            log[v] = k
            v = step(v)
        if log.count(m) != 1:
            raise VerificationError(f"log base {elems[b]} of {self} is not primitive")
        # zech[k] = log(1 + g^k).  Adding 1 moves an index to the next one in
        # its block of p indices (the constant coefficient is the lowest
        # base-p digit), so rotate log by one within every block.
        succ = log[1:] + log[:1]
        succ[p - 1::p] = log[::p]
        self._zech = array("H", map(succ.__getitem__, exp))
        self._log, self._exp = log, exp

    def _linear_step(self, bc):
        """v -> index of b*v for odd p and n >= 2, b of coefficients bc.

        Multiplying by b is GF(p)-linear in the base-p digits of v.  The images
        of v's low and high digit halves are tabulated as vectors packed `s`
        bits per digit, wide enough for the sum of two digits, so the halves
        add as integers with no carry between digits; tables over `width`
        packed digits then reduce each digit mod p and weight it into an index.
        """
        p, n, elems = self.p, self.n, self._elems
        s = (2 * p - 2).bit_length()
        half = p ** ((n + 1) // 2)

        def packed(coeffs):
            return sum(d << (j * s) for j, d in enumerate(coeffs))

        low = [packed(self._mul_coeffs(bc, elems[u].coeffs)) for u in range(half)]
        high = [packed(self._mul_coeffs(bc, elems[u * half].coeffs))
                for u in range(self.q // half)]
        width = max(1, 12 // s)
        mask = (1 << (width * s)) - 1
        digit = [d % p for d in range(1 << s)]
        table = digit
        for _ in range(width - 1):      # packed key f_0 + (rest << s) -> f_0 + p*rest
            table = [d + p * t for t in table for d in digit]
        chunks = [(k * s, [t * p ** k for t in table]) for k in range(0, n, width)]

        def step(v):
            w = low[v % half] + high[v // half]
            i = 0
            for shift, weights in chunks:
                i += weights[(w >> shift) & mask]
            return i
        return step

    # -- index kernels -------------------------------------------------------
    # Arithmetic on canonical indices, the one home of the table formulas:
    # FieldElem's operators and step-element arithmetic both call these.

    def add_i(self, i: int, j: int) -> int:
        if not j:
            return i
        if not i:
            return j
        log = self._log
        if log is None:
            p = self.p
            return self._coeffs_to_index(tuple((a + b) % p for a, b in zip(
                self._index_to_coeffs(i), self._index_to_coeffs(j))))
        a = log[i]
        z = self._zech[log[j] - a]      # g^a + g^b = g^(a + Z(b - a))
        m = self.q - 1
        return 0 if z == m else self._exp[a + z - m]

    def neg_i(self, i: int) -> int:
        p = self.p
        if p == 2 or not i:
            return i
        if self._log is None:
            return self._coeffs_to_index(tuple(-a % p for a in self._index_to_coeffs(i)))
        return self._exp[self._log[i] - (self.q - 1) // 2]     # -1 = g^((q-1)/2)

    def sub_i(self, i: int, j: int) -> int:
        return self.add_i(i, self.neg_i(j))

    def mul_i(self, i: int, j: int) -> int:
        if not i or not j:
            return 0
        log = self._log
        if log is None:
            return self._coeffs_to_index(self._mul_coeffs(self._index_to_coeffs(i),
                                                          self._index_to_coeffs(j)))
        return self._exp[log[i] + log[j] - self.q + 1]    # _exp[-k] is _exp[q - 1 - k]

    def pow_i(self, i: int, e: int) -> int:
        if self._log is not None and i:
            return self._exp[self._log[i] * e % (self.q - 1)]
        if e < 0:
            return self.pow_i(self.inv_i(i), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul_i(result, i)
            e >>= 1
            if e:
                i = self.mul_i(i, i)
        return result

    def inv_i(self, i: int) -> int:
        if not i:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        if self._log is not None:
            return self._exp[-self._log[i]]
        return self.pow_i(i, self.q - 2)

    # -- element construction ----------------------------------------------

    def _index_to_coeffs(self, i):
        if self._elems is not None:
            return self._elems[i].coeffs
        p = self.p
        coeffs = []
        for _ in range(self.n):
            i, c = divmod(i, p)
            coeffs.append(c)
        return tuple(coeffs)

    def _coeffs_to_index(self, coeffs):
        i = 0
        for c in reversed(coeffs):
            i = i * self.p + c
        return i

    def _new_elem(self, i):
        return FieldElem(self, self._index_to_coeffs(i), i)

    def from_index(self, i: int) -> FieldElem:
        if not 0 <= i < self.q:
            raise ValueError(f"element index {i} out of range for {self}")
        return self._elem(i)

    def from_coeffs(self, coeffs) -> FieldElem:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.n:
            raise ValueError(f"too many coefficients for {self}")
        coeffs = coeffs + (0,) * (self.n - len(coeffs))
        i = self._coeffs_to_index(coeffs)
        return self._elems[i] if self._elems is not None else FieldElem(self, coeffs, i)

    def from_int(self, k: int) -> FieldElem:
        """Image of the integer k under the ring map Z -> GF(p^n)."""
        return self.from_index(k % self.p)

    @property
    def zero(self):
        return self.from_index(0)

    @property
    def one(self):
        return self.from_index(1)

    @property
    def generator(self):
        """The class of X in Z/p[X]/(modulus); only defined for n >= 2."""
        if self.n < 2:
            raise ValueError(f"{self} is a prime field; it has no presentation generator")
        return self.from_index(self.p)

    def elements(self):
        return (self.from_index(i) for i in range(self.q))

    def random_element(self, rng: random.Random) -> FieldElem:
        return self.from_index(rng.randrange(self.q))

    def divisors(self):
        return tuple(d for d in range(1, self.n + 1) if self.n % d == 0)

    def _mul_coeffs(self, a, b):
        c = zp.rem(zp.mul(a, b, self.p), self.modulus, self.p)
        return c + (0,) * (self.n - len(c))

    # -- parsing -------------------------------------------------------------

    def parse_element(self, text: str) -> FieldElem:
        """Parse exactly the grammar produced by FieldElem.__str__."""
        s = text.strip()
        if self.n == 1:
            if not s.isdigit() or (len(s) > 1 and s[0] == "0"):
                raise ParseError(f"bad element of {self}", text, 0)
            v = int(s)
            if v >= self.p:
                raise ParseError(f"coefficient {v} out of range for {self}", text, 0)
            return self.from_index(v)
        if s == "0":
            return self.zero
        coeffs = [0] * self.n
        last_power = self.n
        pos = 0
        for term in s.split("+"):
            if not term:
                raise ParseError("empty term", text, pos)
            coeff, power = _parse_term(term, text, pos)
            if coeff < 1 or coeff >= self.p:
                raise ParseError(f"coefficient {coeff} out of range for {self}", text, pos)
            if power >= last_power:
                raise ParseError("terms must have strictly descending powers", text, pos)
            if power >= self.n:
                raise ParseError(f"power g^{power} out of range for {self}", text, pos)
            coeffs[power] = coeff
            last_power = power
            pos += len(term) + 1
        return self.from_coeffs(coeffs)


def _parse_term(term, text, pos):
    if "g" not in term:
        if not term.isdigit() or (len(term) > 1 and term[0] == "0"):
            raise ParseError(f"bad term {term!r}", text, pos)
        return int(term), 0
    head, _, tail = term.partition("g")
    if head == "":
        coeff = 1
    else:
        if not head.isdigit() or head == "1" or head[0] == "0":
            raise ParseError(f"bad coefficient {head!r}", text, pos)
        coeff = int(head)
    if tail == "":
        power = 1
    else:
        if not tail.startswith("^") or not tail[1:].isdigit() or tail[1:] in ("0", "1") or tail[1] == "0":
            raise ParseError(f"bad power {tail!r}", text, pos)
        power = int(tail[1:])
    return coeff, power


# ---------------------------------------------------------------------------
# polynomials with FieldElem coefficients (used by the embeddings and the
# large-field root finder)


def fpoly_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def fpoly_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return fpoly_trim(out)


def fpoly_add(a, b, field):
    return fpoly_trim([x + y for x, y in zip_longest(a, b, fillvalue=field.zero)])


def fpoly_divmod(a, b, field):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        c = a[-1] * inv_lead
        off = len(a) - len(b)
        quot[off] = c
        for i, x in enumerate(b):
            a[off + i] = a[off + i] - c * x
        a.pop()
    return fpoly_trim(quot), fpoly_trim(a)


def fpoly_rem(a, b, field):
    return fpoly_divmod(a, b, field)[1]


def fpoly_monic(a):
    if not a:
        return []
    inv = a[-1].inverse()
    return [x * inv for x in a]


def fpoly_gcd(a, b, field):
    a, b = list(a), list(b)
    while b:
        a, b = b, fpoly_rem(a, b, field)
    return fpoly_monic(a)


def fpoly_powmod(base, e, mod, field):
    result = [field.one]
    base = fpoly_rem(base, mod, field)
    while e:
        if e & 1:
            result = fpoly_rem(fpoly_mul(result, base, field), mod, field)
        e >>= 1
        if e:
            base = fpoly_rem(fpoly_mul(base, base, field), mod, field)
    return result


def fpoly_eval(coeffs, x):
    acc = x.field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# interpolation


def interpolate_i(field: FiniteField, values) -> list:
    """Coefficient indices c_0, ..., c_(q-1) of the polynomial of degree < q
    whose value at the element of index a has index values[a], on a field
    with log tables.

    From f(x) = sum_a f(a) (1 - (x - a)^(q-1)) and binom(q-1, k) = (-1)^k
    mod p (Lucas): c_0 = f(0), c_k = -sum_(a != 0) f(a) a^(-k) for
    0 < k < q - 1, and c_(q-1) = -sum_a f(a).  The middle coefficients are a
    transform over the multiplicative group: f(a) a^(-k) = g^(log f(a) - k log a).
    """
    add, log, exp, m = field.add_i, field._log, field._exp, field.q - 1
    terms = [(log[y], log[a]) for a, y in enumerate(values) if a and y]
    coeffs = [values[0]]
    for k in range(1, m):
        coeffs.append(field.neg_i(reduce(add, [exp[(ly - k * la) % m] for ly, la in terms], 0)))
    coeffs.append(field.neg_i(reduce(add, values, 0)))
    return coeffs


def lagrange_interpolate(field: FiniteField, table) -> tuple:
    """Coefficients (ascending, trailing zeros stripped) of the unique
    polynomial of degree < q matching `table` at every element of GF(q).

    `table` maps FieldElem -> FieldElem and must be total.
    """
    if field.q > INTERP_CAP:
        raise CapExceeded(f"interpolation over {field} exceeds the cap {INTERP_CAP}")
    pts = dict(table)
    nodes = [field.from_index(i) for i in range(field.q)]
    for node in nodes:
        if node not in pts:
            raise ValueError(f"interpolation table is not total: missing {node}")
    if len(pts) != field.q:
        raise ValueError("interpolation table has keys outside the field")
    # any zero counts as 0, an integer is a prime-field value, and a nonzero
    # value of another field raises `mixed fields`
    values = [(pts[node] * field.one).index if pts[node] else 0 for node in nodes]
    return tuple(fpoly_trim(map(field.from_index, interpolate_i(field, values))))


# ---------------------------------------------------------------------------
# embeddings


class FieldEmbedding:
    """The canonical injective ring homomorphism GF(p^d) -> GF(p^n), d | n."""

    __slots__ = ("sub", "sup", "gen_image")

    def __init__(self, sub, sup, gen_image):
        self.sub = sub
        self.sup = sup
        self.gen_image = gen_image

    def __call__(self, x: FieldElem) -> FieldElem:
        if x.field is not self.sub:
            raise ValueError(f"{x!r} is not an element of {self.sub}")
        return fpoly_eval([self.sup.from_int(c) for c in x.coeffs], self.gen_image)

    def __repr__(self):
        return f"embed({self.sub} -> {self.sup}; g -> {self.gen_image})"


@lru_cache(maxsize=None)
def field_embedding(sub: FiniteField, sup: FiniteField) -> FieldEmbedding:
    if sub.p != sup.p:
        raise ValueError(f"no embedding {sub} -> {sup}: different characteristic")
    if sup.n % sub.n != 0:
        raise ValueError(f"no embedding {sub} -> {sup}: {sub.n} does not divide {sup.n}")
    if sub.n == sup.n:
        return FieldEmbedding(sub, sup, sup.from_index(sup.p) if sup.n > 1 else sup.zero)
    return FieldEmbedding(sub, sup, _generator_image(sub, sup))


def embed(x: FieldElem, sup: FiniteField) -> FieldElem:
    return field_embedding(x.field, sup)(x)


def _generator_image(sub, sup):
    roots = field_roots(sup, sub.modulus)
    if not roots:
        raise VerificationError(f"modulus of {sub} has no root in {sup}")
    survivors = roots
    for ell in zp.prime_divisors(sub.n):
        e = sub.n // ell
        if e == 1:
            continue  # the prime field embeds uniquely
        mid = finite_field(sub.p, e, degree_cap=max(DEGREE_CAP, e))
        t_sub = field_embedding(mid, sub)(mid.generator)
        target = field_embedding(mid, sup)(mid.generator)
        t_poly = [sup.from_int(c) for c in t_sub.coeffs]
        survivors = [r for r in survivors if fpoly_eval(t_poly, r) == target]
    if not survivors:
        raise VerificationError(f"no compatible root for {sub} -> {sup}")
    return min(survivors, key=lambda r: r.index)


def field_roots(sup: FiniteField, zcoeffs, *, force_cz: bool = False):
    """All roots in `sup` of a squarefree polynomial with Z/p coefficients,
    sorted by canonical element order."""
    f = [sup.from_int(c) for c in zcoeffs]
    f = fpoly_trim(f)
    if sup.q <= ROOT_ENUM_CAP and not force_cz:
        roots = [x for x in sup.elements() if not fpoly_eval(f, x)]
    else:
        roots = _roots_cz(sup, fpoly_monic(f))
    return sorted(roots, key=lambda r: r.index)


def _roots_cz(sup, f):
    # Cantor-Zassenhaus equal-degree splitting; f monic, splits into distinct
    # linear factors over sup.  Deterministically seeded, so runs agree.
    rng = random.Random(sup.p * 1_000_003 + sup.n * 101 + len(f))
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        deg = len(g) - 1
        if deg == 0:
            continue
        if deg == 1:
            out.append(-g[0])
            continue
        while True:
            a = sup.random_element(rng)
            if not a:
                continue
            if sup.p == 2:
                # split by the trace of a*X: distinct roots r, s disagree on
                # Tr(a r) vs Tr(a s) for half of all a
                h = [sup.zero, a]
                acc = list(h)
                tr = list(h)
                for _ in range(sup.n - 1):
                    acc = fpoly_rem(fpoly_mul(acc, acc, sup), g, sup)
                    tr = fpoly_add(tr, acc, sup)
                cand = fpoly_gcd(g, tr, sup)
            else:
                h = fpoly_powmod([a, sup.one], (sup.q - 1) // 2, g, sup)
                h = fpoly_add(h, [-sup.one], sup)
                cand = fpoly_gcd(g, h, sup)
            if 0 < len(cand) - 1 < deg:
                quot, rem_ = fpoly_divmod(g, cand, sup)
                if rem_:
                    raise VerificationError("factor does not divide in root split")
                stack.append(cand)
                stack.append(quot)
                break
    return out
