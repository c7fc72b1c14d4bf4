"""The ring of K-valued step functions on the atoms of a finite Boolean ring.

An element is a partition of the atom universe into blocks, each labelled
with a distinct field value: exactly the locally constant functions from the
(discrete, finite) spectrum of the Boolean ring into K.  `StepElem.blocks`
holds (atom mask, value index) pairs of ints, the index being K's canonical
element index.  The normal form (nonempty disjoint covering blocks, pairwise
distinct values, blocks sorted by index) makes structural equality semantic
equality, and keeps elements small even over huge atom universes: an element
costs one block per distinct value, never one slot per atom.  Arithmetic
runs on the common refinement of two partitions through K's index kernels
(`FiniteField.add_i`, `mul_i`, ...), so it builds no FieldElem; values become
FieldElems only where they are read out (`value_at`, `values`, `__str__`).

Scalars embed as single-block elements, Boolean elements embed as 0/1-valued
indicators, and those indicators are exactly the idempotents of the ring.
The support idempotent of x (the unique idempotent generating the same
principal ideal) is the indicator of where x is nonzero; the quasi-inverse
inverts x blockwise on its support.  Convex combinations (coefficients a
complete orthogonal family of idempotents) and their constructive extraction
against a generating family are the workhorses of everything downstream.

This module is the one home of the per-factor algorithms; `products` runs
them factor by factor.  Here live the element enumeration and indexing, the
convex combination (`StepRing.convex`), the extraction coefficient masks
(`extraction_masks`), the per-atom residue coverage
(`StepRing.missing_residues`), the residue-cover check for step and product
rings alike (`check_residue_cover`, on per-prime digits), the ring-size
formatter (`size_text`), the caps `ENUM_CAP` and `PRODUCT_CHECK_CAP`, and
the refusal to list a field above the first (`require_listable`).
`StepRing.radix` names every prime with its field and place value, so an
element's position in `elements()` is the sum of its digits times those.
Step rings are interned, so ring equality is identity.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from .boolean import BooleanRing, BoolElem
from .errors import CapExceeded, VerificationError
from .fields import FieldElem, FiniteField

ENUM_CAP = 1 << 20
PRODUCT_CHECK_CAP = 4096
PRODUCT_SAMPLES = 256


def size_text(step_rings) -> str:
    """The order of the product of `step_rings`: in decimal where Python
    prints it, else as a product of prime powers such as 2^20000."""
    try:
        return str(math.prod(f.size for f in step_rings))
    except ValueError:      # more digits than sys.get_int_max_str_digits()
        exponents = Counter()
        for f in step_rings:
            exponents[f.field.p] += f.field.n * f.atom_count
        return " * ".join(f"{p}^{e}" for p, e in sorted(exponents.items()))


def require_listable(field: FiniteField):
    """Raise CapExceeded when the field has more than ENUM_CAP elements."""
    if field.q > ENUM_CAP:
        raise CapExceeded(f"cannot list the values of {field}: "
                          f"{field.q} elements, above the cap {ENUM_CAP}")


_STEP_RINGS: dict = {}


class StepRing:
    """K-valued step functions over a fixed finite Boolean ring of atoms.

    Interned like `finite_field`: one object per (field, atom count), so two
    step rings are equal exactly when they are the same object.
    """

    __slots__ = ("field", "bool_ring")

    def __new__(cls, field: FiniteField, bool_ring: BooleanRing):
        key = (field, bool_ring.atom_count)
        ring = _STEP_RINGS.get(key)
        if ring is None:
            ring = _STEP_RINGS[key] = super().__new__(cls)
            ring.field = field
            ring.bool_ring = bool_ring
        return ring

    def __str__(self):
        return f"GF({self.field.q})^[{self.bool_ring}]"

    __repr__ = __str__

    @property
    def atom_count(self):
        return self.bool_ring.atom_count

    @property
    def size(self):
        return self.field.q ** self.bool_ring.atom_count

    @property
    def zero(self):
        return self.scalar(self.field.zero)

    @property
    def one(self):
        return self.scalar(self.field.one)

    def _value_index(self, v):
        """The field index of a value of this ring's field, or of the image of
        an integer; None for anything else."""
        if isinstance(v, int):
            return v % self.field.p
        if isinstance(v, FieldElem) and v.field is self.field:
            return v.index
        return None

    def scalar(self, k) -> "StepElem":
        i = self._value_index(k)
        if i is None:
            raise ValueError(f"{k!r} is not a scalar of {self.field}")
        return StepElem(self, ((self.bool_ring.full_mask, i),))

    def indicator(self, b) -> "StepElem":
        """The 0/1-valued step function equal to 1 exactly on b."""
        if isinstance(b, BoolElem):
            if b.ring != self.bool_ring:
                raise ValueError(f"{b!r} lives over a different Boolean ring")
            mask = b.mask
        elif isinstance(b, int):
            if not 0 <= b <= self.bool_ring.full_mask:
                raise ValueError(f"mask {b:#x} out of range")
            mask = b
        else:
            raise TypeError(f"expected a Boolean element or mask, got {b!r}")
        full = self.bool_ring.full_mask
        if mask == 0:
            return self.zero
        if mask == full:
            return self.one
        return StepElem(self, ((full ^ mask, 0), (mask, 1)))

    def from_values(self, values) -> "StepElem":
        """Build from one field value per atom (atom j gets values[j])."""
        values = list(values)
        if len(values) != self.bool_ring.atom_count:
            raise ValueError(f"expected {self.bool_ring.atom_count} values, got {len(values)}")
        indices = []
        for v in values:
            i = self._value_index(v)
            if i is None:
                raise ValueError(f"value {v!r} is not in {self.field}")
            indices.append(i)
        return self._from_indices(indices)

    def _from_indices(self, indices) -> "StepElem":
        acc = {}
        for j, i in enumerate(indices):
            acc[i] = acc.get(i, 0) | (1 << j)
        return StepElem(self, _normal(acc))

    def from_blocks(self, pairs) -> "StepElem":
        """Build from (atom set, value) pairs; validates a partition."""
        blocks = []
        for part, value in pairs:
            if isinstance(part, BoolElem):
                if part.ring != self.bool_ring:
                    raise ValueError("block over a different Boolean ring")
                mask = part.mask
            else:
                mask = int(part)
            i = self._value_index(value)
            if i is None:
                raise ValueError(f"value {value!r} is not in {self.field}")
            blocks.append((mask, i))
        return self._partition(blocks)

    def _partition(self, blocks) -> "StepElem":
        """The element of (mask, index) pairs, which must partition the atoms."""
        acc = {}
        union = 0
        total = 0
        for mask, i in blocks:
            if mask:
                union |= mask
                total += mask.bit_count()
                acc[i] = acc.get(i, 0) | mask
        if union != self.bool_ring.full_mask or total != self.bool_ring.atom_count:
            raise ValueError("blocks must partition the atom universe")
        return StepElem(self, _normal(acc))

    def coerce(self, v) -> "StepElem":
        if isinstance(v, StepElem):
            if v.ring is not self:
                raise ValueError(f"element of {v.ring} used in {self}")
            return v
        if isinstance(v, (FieldElem, int)):
            return self.scalar(v)
        if isinstance(v, BoolElem):
            return self.indicator(v)
        raise TypeError(f"cannot coerce {v!r} into {self}")

    def elements(self, cap: int = ENUM_CAP):
        """All elements in canonical order (atom-0 value varies fastest)."""
        if self.size > cap:
            raise CapExceeded(f"{self} has {size_text((self,))} elements, above the cap {cap}")
        q = self.field.q
        atoms = range(self.bool_ring.atom_count)
        for idx in range(self.size):
            digits = []
            t = idx
            for _ in atoms:
                t, i = divmod(t, q)
                digits.append(i)
            yield self._from_indices(digits)

    def radix(self):
        """(label, field, weight) for every prime in element order, the label
        being the atom: element_index(x) == sum(x.index_at(label) * weight)."""
        q = self.field.q
        return tuple((j, self.field, q ** j) for j in range(self.bool_ring.atom_count))

    def element_index(self, x: "StepElem") -> int:
        return sum(x.index_at(label) * weight for label, _, weight in self.radix())

    def random_element(self, rng: random.Random) -> "StepElem":
        atoms = self.bool_ring.atom_count
        if atoms <= 24:
            return self.from_values([self.field.random_element(rng) for _ in range(atoms)])
        # wide universe: a few random blocks instead of per-atom sampling
        remaining = self.bool_ring.full_mask
        pairs = []
        blocks = rng.randint(1, min(self.field.q, 8))
        for _ in range(blocks - 1):
            take = remaining & rng.getrandbits(atoms)
            if take:
                pairs.append((take, self.field.random_element(rng)))
                remaining &= ~take
        if remaining:
            pairs.append((remaining, self.field.random_element(rng)))
        return self.from_blocks(pairs)

    def convex(self, coeffs, values) -> "StepElem":
        """Sum a_i * x_i for a complete orthogonal idempotent family (a_i)."""
        masks = _coeff_masks(self, coeffs)
        values = [self.coerce(v) for v in values]
        if len(masks) != len(values):
            raise ValueError("coefficient and value sequences differ in length")
        return self._partition([(bmask & mask, i) for mask, val in zip(masks, values)
                                for bmask, i in val.blocks])

    def missing_residues(self, gens):
        """(atom, value) for every field value no generator takes at that atom."""
        missing = []
        for atom in range(self.bool_ring.atom_count):
            residues = {g.index_at(atom) for g in gens}
            if len(residues) != self.field.q:
                require_listable(self.field)
                missing.extend((atom, v) for v in self.field.elements()
                               if v.index not in residues)
        return missing


def _normal(acc):
    """Blocks in normal form from a {value index: mask} dict."""
    if len(acc) == 1:
        [(i, m)] = acc.items()
        return ((m, i),)
    return tuple([(acc[i], i) for i in sorted(acc)])


def _coeff_masks(ring, coeffs):
    """Masks of a coefficient family; validates it is a partition of unity."""
    masks = []
    union = 0
    total = 0
    for c in coeffs:
        if isinstance(c, BoolElem):
            if c.ring != ring.bool_ring:
                raise ValueError("coefficient over a different Boolean ring")
            mask = c.mask
        elif isinstance(c, StepElem):
            if c.ring is not ring:
                raise ValueError("coefficient from a different ring")
            if not c.is_idempotent():
                raise ValueError(f"coefficient {c} is not idempotent")
            mask = c.support_mask_int()
        else:
            raise TypeError(f"bad coefficient {c!r}")
        masks.append(mask)
        union |= mask
        total += mask.bit_count()
    if not masks or union != ring.bool_ring.full_mask or total != ring.bool_ring.atom_count:
        raise ValueError("coefficients do not form a complete orthogonal idempotent family")
    return masks


class StepElem:
    """Normalized step function; construct through StepRing factories.

    `blocks` holds (atom mask, field index) pairs sorted by index.
    """

    __slots__ = ("ring", "blocks", "_hash")

    def __init__(self, ring, blocks):
        self.ring = ring
        self.blocks = blocks
        self._hash = None       # computed on first use

    # -- arithmetic: common refinement of the two partitions ----------------

    def _combine(self, other, op):
        if not isinstance(other, StepElem):
            other = self.ring.coerce(other)
        elif other.ring is not self.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
        acc = {}
        for ma, va in self.blocks:
            for mb, vb in other.blocks:
                m = ma & mb
                if m:
                    v = op(va, vb)
                    acc[v] = acc.get(v, 0) | m
        return StepElem(self.ring, _normal(acc))

    def __add__(self, other):
        return self._combine(other, self.ring.field.add_i)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, self.ring.field.sub_i)

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        return self._combine(other, self.ring.field.mul_i)

    __rmul__ = __mul__

    def __neg__(self):
        return self._valuewise(self.ring.field.neg_i)

    def _valuewise(self, fn):
        acc = {}
        for m, v in self.blocks:
            w = fn(v)
            acc[w] = acc.get(w, 0) | m
        return StepElem(self.ring, _normal(acc))

    def scale(self, c: FieldElem) -> "StepElem":
        k = self.ring._value_index(c)
        if k is None:
            raise ValueError(f"{c!r} is not a scalar of {self.ring.field}")
        mul = self.ring.field.mul_i
        return self._valuewise(lambda v: mul(v, k))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers of step elements")
        if e == 0:
            return self.ring.one
        pow_i = self.ring.field.pow_i
        return self._valuewise(lambda v: pow_i(v, e))

    # -- regular-ring structure ---------------------------------------------

    def support_mask_int(self) -> int:
        m = 0
        for mask, v in self.blocks:
            if v:
                m |= mask
        return m

    def support(self) -> "StepElem":
        """The idempotent generating the same principal ideal: 1 where x != 0."""
        return self.ring.indicator(self.support_mask_int())

    def quasi_inverse(self) -> "StepElem":
        """x* with x x* x = x and x* x x* = x*: blockwise inverse on support."""
        inv_i = self.ring.field.inv_i
        return self._valuewise(lambda v: inv_i(v) if v else 0)

    def unit_part(self) -> "StepElem":
        """Unit u with x = u * support(x): x on the support, 1 elsewhere."""
        return self._valuewise(lambda v: v or 1)

    def is_idempotent(self) -> bool:
        return all(v <= 1 for _, v in self.blocks)

    def as_bool_elem(self):
        if not self.is_idempotent():
            return None
        return self.ring.bool_ring.from_mask(self.support_mask_int())

    # -- evaluation at primes -------------------------------------------------

    def index_at(self, atom: int) -> int:
        """Field index of the value at the prime ideal of the given atom."""
        if not 0 <= atom < self.ring.bool_ring.atom_count:
            raise ValueError(f"atom {atom} out of range for {self.ring}")
        bit = 1 << atom
        for mask, v in self.blocks:
            if mask & bit:
                return v
        raise VerificationError("blocks do not cover the atom universe")

    def value_at(self, atom: int) -> FieldElem:
        """Project to the quotient field at the prime ideal of the given atom."""
        return self.ring.field.from_index(self.index_at(atom))

    def values(self):
        field = self.ring.field
        return tuple(field.from_index(v) for _, v in self.blocks)

    # -- plumbing -------------------------------------------------------------

    def __bool__(self):
        return self.support_mask_int() != 0

    def __eq__(self, other):
        if isinstance(other, StepElem):
            return self.ring is other.ring and self.blocks == other.blocks
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            field = self.ring.field
            h = self._hash = hash((field.p, field.n, self.ring.bool_ring.atom_count, self.blocks))
        return h

    def sort_key(self):
        return tuple((v, m) for m, v in self.blocks)

    def __str__(self):
        ring = self.ring
        parts = []
        for mask, v in self.blocks:
            parts.append(f"{ring.bool_ring.from_mask(mask)}->{ring.field.from_index(v)}")
        return "{" + "; ".join(parts) + "}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# convex combinations and the constructive extraction


@dataclass(frozen=True)
class ConvexCombination:
    """Coefficients (a complete orthogonal idempotent family) and values."""

    coeffs: tuple
    values: tuple

    def evaluate(self, ring):
        return ring.convex(self.coeffs, self.values)


def extraction_masks(x: StepElem, gens, *, whole=None, factor=None) -> list:
    """Masks of the coefficients a_i = (1 - b_i) * prod_{j<i} b_j, where b_i
    is the support of x - g_i, for step elements of one ring.

    Raises ValueError at the first atom where no generator takes the value of
    x.  A product caller passes its whole element and the factor index, so
    the message names them.
    """
    full = x.ring.bool_ring.full_mask
    masks = []
    running = full
    for g in gens:
        b = (x - g).support_mask_int()
        masks.append((full ^ b) & running)
        running &= b
    if running:
        atom = (running & -running).bit_length() - 1
        where = f"atom {atom}" if factor is None else f"factor {factor}, atom {atom}"
        raise ValueError(
            f"family does not reach {x if whole is None else whole} at {where}: value "
            f"{x.value_at(atom)} is not attained by any generator there")
    return masks


def extract_combination(x: StepElem, gens) -> ConvexCombination:
    """Write x = sum a_i x_i over the given family, constructively.

    The coefficients are those of `extraction_masks`; zero coefficients are
    retained and the order follows the input family, so the output is
    reproducible bit for bit.  Fails if some atom's value is not attained by
    any generator there.
    """
    ring = x.ring
    gens = [ring.coerce(g) for g in gens]
    coeffs = tuple(ring.bool_ring.from_mask(m) for m in extraction_masks(x, gens))
    return ConvexCombination(coeffs, tuple(gens))


# ---------------------------------------------------------------------------
# the finite-cover witness check


@dataclass(frozen=True)
class CoverReport:
    """Outcome of checking that a family covers every residue field."""

    ok: bool
    missing: tuple  # (atom, missing value) pairs, or (factor, atom, value)
    product_ok: bool
    product_exhaustive: bool
    product_checked: int

    def __bool__(self):
        return self.ok


def check_residue_cover(ring, gens, *, product_cap: int = PRODUCT_CHECK_CAP,
                        rng: random.Random | None = None) -> CoverReport:
    """Decide whether the family hits every value of every residue field.

    `ring` is a StepRing or a ProductRing.  The residue coverage at every
    prime (`ring.missing_residues`) is the decision procedure; the vanishing
    of prod (x - g) over the whole ring is cross-checked exhaustively when the
    ring is small enough, on PRODUCT_SAMPLES seeded samples otherwise.

    The product vanishes at x exactly when it vanishes at every prime, and
    there it is prod (v - g_k) over the value v of x and the values g_k of
    the generators.  That field product is evaluated with the index kernels
    once per (generator values, v) that a candidate meets, so no ring
    element is built: exhaustive candidates are the digit rows of the
    ring's radix in element order, sampled ones are read block by block
    against the generators' common refinement.  The loop that multiplies
    prod (x - g) out in the ring is kept in the tests as the reference.
    """
    gens = [ring.coerce(g) for g in gens]
    missing = tuple(ring.missing_residues(gens))
    ok = not missing
    exhaustive = ring.size <= product_cap
    tables = {}         # (field, generator values) -> {v: prod (v - g_k)}, filled on demand

    def prime(field, values):
        return field, values, tables.setdefault((field, values), {})

    if exhaustive:
        primes = [prime(field, tuple(g.index_at(label) for g in gens))
                  for label, field, _ in reversed(ring.radix())]
        # product() varies its last digit fastest, and the last prime is label 0
        candidates = (zip(primes, row) for row in
                      itertools.product(*(range(field.q) for field, _, _ in primes)))
    else:
        rng = rng or random.Random(0)
        if isinstance(ring, StepRing):
            factors, split = (ring,), lambda x: (x,)
        else:
            factors, split = ring.factors, lambda x: x.parts
        gen_parts = [split(g) for g in gens]
        cells = [[(mask, prime(f.field, values)) for mask, values in
                  _common_refinement(f, [parts[i] for parts in gen_parts])]
                 for i, f in enumerate(factors)]
        samples = (split(ring.random_element(rng)) for _ in range(PRODUCT_SAMPLES))
        candidates = ([(p, v) for part, factor_cells in zip(parts, cells)
                       for mask, p in factor_cells for bmask, v in part.blocks if bmask & mask]
                      for parts in samples)
    checked = 0
    product_ok = True
    for pairs in candidates:
        checked += 1
        if not all(_product_vanishes(p, v) for p, v in pairs):
            product_ok = False
            break
    if product_ok != ok and exhaustive:
        raise VerificationError("residue coverage and vanishing product disagree")
    return CoverReport(ok, missing, product_ok, exhaustive, checked)


def _common_refinement(ring, parts):
    """(atom mask, value index of every part) over the common refinement of
    step elements of one ring."""
    cells = [(ring.bool_ring.full_mask, ())]
    for part in parts:
        cells = [(mask & bmask, values + (v,)) for mask, values in cells
                 for bmask, v in part.blocks if mask & bmask]
    return cells


def _product_vanishes(prime, v) -> bool:
    """Whether prod (v - g_k) is zero in the field, over the generator
    values g_k of one prime, reading or filling that prime's table."""
    field, values, table = prime
    acc = table.get(v)
    if acc is None:
        acc = 1
        for g in values:
            acc = field.mul_i(acc, field.sub_i(v, g))
            if not acc:
                break
        table[v] = acc
    return not acc
