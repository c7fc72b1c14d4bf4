"""Finite products of step-function rings and the structure-theorem pipeline.

A ProductRing is the ambient for everything downstream: a tuple of
(field, Boolean ring) factors, with elements operated on componentwise.
Every algorithm that works prime by prime has its one implementation in
`stepfun` and runs here factor by factor: element enumeration (factor 0
varies fastest) and indexing through the radix of the primes, convex
combinations, the extraction coefficient masks, and the residue coverage
behind `check_residue_cover`, which is re-exported from `stepfun`.  Product
rings are interned on their tuple of (interned) step-ring factors, so ring
equality is identity.  A presentation names a subring inside such an
ambient: the convex span (over the ambient's full idempotent algebra) of the
subring generated by the given elements together with 0, 1, -1.

The canonical invariant of a presented ring is its signature: for each
residue-field isomorphism class, the total number of atoms whose quotient is
that field.  Two presentations are isomorphic exactly when their signatures
agree, because finite Boolean rings are classified by their atom count.  The
decomposition pipeline follows the constructive route: saturate the
generated subring to a finite set, split it into fields along its primitive
idempotents (Chinese remainder), and count ambient atoms under each
idempotent; an independent per-atom residue-field count cross-checks it.
"""

from __future__ import annotations

import itertools
import math
import random

from .boolean import BooleanRing
from .errors import CapExceeded, VerificationError
from .fields import FieldElem, FiniteField, finite_field
from .record import Record, _set
# check_residue_cover serves step and product rings alike; it is re-exported here
from .stepfun import (ENUM_CAP, PRODUCT_CHECK_CAP, ConvexCombination, StepElem, StepRing,
                      check_residue_cover, extraction_masks, size_text)
from .zmodpoly import prime_power

SUBRING_CAP = 10 ** 6

_PRODUCT_RINGS: dict = {}


class ProductRing:
    """A finite product of step-function ring factors.

    Factors are StepRings or (field, Boolean ring or atom count) pairs.
    Interned on the tuple of StepRing factors, so ring equality is identity.
    """

    __slots__ = ("factors", "_elem_list", "_radix")

    def __new__(cls, factors):
        norm = []
        for f in factors:
            if isinstance(f, StepRing):
                norm.append(f)
            else:
                field, br = f
                if isinstance(br, int):
                    br = BooleanRing(br)
                norm.append(StepRing(field, br))
        if not norm:
            raise ValueError("a product ring needs at least one factor")
        key = tuple(norm)
        ring = _PRODUCT_RINGS.get(key)
        if ring is None:
            ring = _PRODUCT_RINGS[key] = super().__new__(cls)
            ring.factors = key
            ring._elem_list = None
            ring._radix = None
        return ring

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)

    __repr__ = __str__

    @property
    def total_atoms(self):
        return sum(f.bool_ring.atom_count for f in self.factors)

    @property
    def size(self):
        return math.prod(f.size for f in self.factors)

    @property
    def char(self):
        """lcm of the factor characteristics: a squarefree integer."""
        c = 1
        for f in self.factors:
            if c % f.field.p:
                c *= f.field.p
        return c

    def element(self, parts) -> "ProductElem":
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} parts, got {len(parts)}")
        return ProductElem(self, tuple(f.coerce(p) for f, p in zip(self.factors, parts)))

    @property
    def zero(self):
        return ProductElem(self, tuple(f.zero for f in self.factors))

    @property
    def one(self):
        return ProductElem(self, tuple(f.one for f in self.factors))

    def scalar(self, k: int) -> "ProductElem":
        """The diagonal image of the integer k."""
        return ProductElem(self, tuple(f.scalar(k) for f in self.factors))

    def scalar_at(self, factor: int, k) -> "ProductElem":
        """k on the given factor, zero elsewhere."""
        parts = [f.zero for f in self.factors]
        parts[factor] = self.factors[factor].scalar(k)
        return ProductElem(self, tuple(parts))

    def from_profile(self, masks) -> "ProductElem":
        """The idempotent with the given per-factor atom masks."""
        masks = tuple(masks)
        if len(masks) != len(self.factors):
            raise ValueError("profile length mismatch")
        return ProductElem(self, tuple(f.indicator(m) for f, m in zip(self.factors, masks)))

    def coerce(self, v) -> "ProductElem":
        if isinstance(v, ProductElem):
            if v.ring is not self:
                raise ValueError(f"element of {v.ring} used in {self}")
            return v
        if isinstance(v, int):
            return self.scalar(v)
        if isinstance(v, StepElem) and len(self.factors) == 1:
            return ProductElem(self, (self.factors[0].coerce(v),))
        if isinstance(v, (tuple, list)):
            return self.element(v)
        raise TypeError(f"cannot coerce {v!r} into {self}")

    def prime_labels(self):
        """All primes as (factor index, atom index) pairs."""
        out = []
        for i, f in enumerate(self.factors):
            out.extend((i, j) for j in range(f.bool_ring.atom_count))
        return tuple(out)

    def quotient_field(self, label) -> FiniteField:
        return self.factors[label[0]].field

    def elements(self, cap: int = ENUM_CAP):
        """All elements in mixed-radix order of the factors' own orders:
        factor 0 varies fastest, so the position is `element_index`."""
        if self.size > cap:
            raise CapExceeded(f"{self} has {size_text(self.factors)} elements, above the cap {cap}")
        first, *rest = self.factors
        for tail in itertools.product(*(f.elements() for f in reversed(rest))):
            tail = tail[::-1]
            for head in first.elements():
                yield ProductElem(self, (head, *tail))

    def cached_elements(self, cap: int = PRODUCT_CHECK_CAP):
        if self._elem_list is None or len(self._elem_list) > cap:
            if self.size > cap:
                raise CapExceeded(
                    f"{self} has {size_text(self.factors)} elements, above the cap {cap}")
            self._elem_list = tuple(self.elements(cap))
        return self._elem_list

    def radix(self):
        """(label, field, weight) for every prime in element order, the
        factors' own radices shifted past the earlier factors:
        element_index(x) == sum(x.index_at(label) * weight).  Built once
        per ring."""
        if self._radix is None:
            out = []
            offset = 1
            for i, f in enumerate(self.factors):
                out.extend(((i, j), field, offset * weight) for j, field, weight in f.radix())
                offset *= f.size
            self._radix = tuple(out)
        return self._radix

    def element_index(self, x: "ProductElem") -> int:
        return sum(x.index_at(label) * weight for label, _, weight in self.radix())

    def idempotent_profiles(self):
        """Masks of all idempotents; 2^total_atoms of them."""
        if self.total_atoms > 20:
            raise CapExceeded(f"{self} has 2^{self.total_atoms} idempotents")
        widths = [f.bool_ring.atom_count for f in self.factors]
        total = sum(widths)
        for m in range(1 << total):
            profile = []
            t = m
            for w in widths:
                profile.append(t & ((1 << w) - 1))
                t >>= w
            yield tuple(profile)

    def random_element(self, rng: random.Random) -> "ProductElem":
        return ProductElem(self, tuple(f.random_element(rng) for f in self.factors))

    def convex(self, coeffs, values) -> "ProductElem":
        """Sum a_i * x_i for a complete orthogonal idempotent family (a_i),
        factor by factor through StepRing.convex."""
        coeffs = [self.coerce(c) for c in coeffs]
        values = [self.coerce(v) for v in values]
        return ProductElem(self, tuple(
            f.convex([c.parts[i] for c in coeffs], [v.parts[i] for v in values])
            for i, f in enumerate(self.factors)))

    def missing_residues(self, gens):
        """(factor, atom, value) for every field value no generator takes at
        that prime."""
        return [(i, *entry) for i, f in enumerate(self.factors)
                for entry in f.missing_residues([g.parts[i] for g in gens])]


class ProductElem:
    __slots__ = ("ring", "parts", "_hash")

    def __init__(self, ring, parts):
        self.ring = ring
        self.parts = parts
        self._hash = None       # computed on first use

    def _coerce(self, other):
        if isinstance(other, ProductElem):
            if other.ring is not self.ring:
                raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ProductElem(self.ring, tuple(a + b for a, b in zip(self.parts, o.parts)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ProductElem(self.ring, tuple(a - b for a, b in zip(self.parts, o.parts)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ProductElem(self.ring, tuple(a * b for a, b in zip(self.parts, o.parts)))

    __rmul__ = __mul__

    def __neg__(self):
        return ProductElem(self.ring, tuple(-a for a in self.parts))

    def __pow__(self, e):
        return ProductElem(self.ring, tuple(a ** e for a in self.parts))

    def support(self) -> "ProductElem":
        return ProductElem(self.ring, tuple(a.support() for a in self.parts))

    def support_profile(self):
        return tuple(a.support_mask_int() for a in self.parts)

    def quasi_inverse(self) -> "ProductElem":
        return ProductElem(self.ring, tuple(a.quasi_inverse() for a in self.parts))

    def is_idempotent(self) -> bool:
        return all(a.is_idempotent() for a in self.parts)

    def value_at(self, label) -> FieldElem:
        return self.parts[label[0]].value_at(label[1])

    def index_at(self, label) -> int:
        return self.parts[label[0]].index_at(label[1])

    def __bool__(self):
        return any(self.parts)

    def __eq__(self, other):
        if isinstance(other, ProductElem):
            return self.parts == other.parts and self.ring is other.ring
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.parts)
        return h

    def sort_key(self):
        return tuple(p.sort_key() for p in self.parts)

    def __str__(self):
        return "(" + " | ".join(str(p) for p in self.parts) + ")"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the constructive extraction on products


def extract_combination(x: ProductElem, gens) -> ConvexCombination:
    """Write x = sum a_i x_i over the given family, constructively: the
    coefficient masks of `stepfun.extraction_masks`, factor by factor."""
    ring = x.ring
    gens = [ring.coerce(g) for g in gens]
    columns = [extraction_masks(part, [g.parts[i] for g in gens], whole=x, factor=i)
               for i, part in enumerate(x.parts)]
    coeffs = tuple(ring.from_profile(profile) for profile in zip(*columns))
    return ConvexCombination(coeffs, tuple(gens))


# ---------------------------------------------------------------------------
# presentations and the generated subring


class SubringPresentation(Record):
    """Names the convex span (over all ambient idempotents) of the subring
    generated by `gens` together with 0, 1, -1."""

    __slots__ = ()

    def __init__(self, ambient: ProductRing, gens):
        _set(self, "_key", (ambient, tuple(ambient.coerce(g) for g in gens)))


def full_presentation(ring: ProductRing) -> SubringPresentation:
    """Presentation whose convex span is the whole product ring: 0, 1 and
    every factor-supported field scalar."""
    gens = []
    for i, f in enumerate(ring.factors):
        for k in f.field.elements():
            gens.append(ring.scalar_at(i, k))
    return SubringPresentation(ring, tuple(gens))


def generated_subring(pres: SubringPresentation, cap: int = SUBRING_CAP):
    """The subring generated by gens together with 0, 1 and -1.

    Two phases.  First the multiplicative monoid M: gens plus {1, -1},
    closed under multiplication by multiplying every new element by each of
    those seeds.  Then the additive span H of M, one cyclic subgroup at a
    time: each m in M outside H grows H to H + <m>, the union of the cosets
    H + j*m for j below the order of m modulo H.  In a finite ring the
    additive span of a multiplicatively closed set containing 1 is the
    generated subring.

    Returns the elements sorted by the canonical `sort_key`.  Raises
    CapExceeded once the subring exceeds `cap` elements: in the monoid phase
    before M takes a member past `cap`, and in the span phase before the
    cosets that would take H past `cap` are built.
    """
    ring = pres.ambient
    seeds = tuple({ring.one, -ring.one, *pres.gens})
    monoid = set(seeds)
    frontier = seeds
    while frontier:
        new = []
        for a in frontier:
            for s in seeds:
                c = a * s
                if c not in monoid:
                    if len(monoid) >= cap:
                        raise subring_cap_exceeded(cap)
                    monoid.add(c)
                    new.append(c)
        frontier = new
    span = [ring.zero]
    known = {ring.zero}
    for m in monoid:
        if m in known:
            continue
        shifts = [m]
        while shifts[-1] + m not in known:
            shifts.append(shifts[-1] + m)
        if len(span) * (len(shifts) + 1) > cap:
            raise subring_cap_exceeded(cap)
        cosets = [h + s for s in shifts for h in span]
        span.extend(cosets)
        known.update(cosets)
    span.sort(key=lambda e: e.sort_key())
    return tuple(span)


def subring_cap_exceeded(cap):
    return CapExceeded(f"generated subring exceeds {cap} elements; not finitely "
                       f"covered or the cap is too small")


# ---------------------------------------------------------------------------
# finite reduced decomposition (Chinese remainder along primitive idempotents)


class FieldClass(Record):
    """Isomorphism class of a finite field."""

    __slots__ = ()

    def __init__(self, p: int, n: int):
        _set(self, "_key", (p, n))

    @property
    def order(self):
        return self.p ** self.n

    def __str__(self):
        return f"GF({self.order})"


def decompose_finite_reduced(elements, *, assume_closed: bool = False):
    """Split a finite reduced subring into fields along primitive idempotents.

    Returns (epsilon, FieldClass) pairs: a complete orthogonal family of
    primitive idempotents with each T*epsilon a finite field.  Raises if the
    set is not closed under + and * or if some slice is not a field.
    """
    elems = tuple(elements)
    if not elems:
        raise ValueError("empty element set")
    ring = elems[0].ring
    index = set(elems)
    one = ring.one
    if one not in index:
        raise ValueError("subring must contain 1")
    if not assume_closed:
        for a in elems:
            for b in elems:
                if a + b not in index or a * b not in index:
                    raise ValueError("element set is not closed under + and *")
    # primitive idempotents: refine 1 along every idempotent of T (T lies in
    # the ambient, where x = x^2 exactly when every value is 0 or 1)
    blocks = [one]
    for e in (t for t in elems if t.is_idempotent()):
        nxt = []
        comp = one - e
        for b in blocks:
            for piece in (b * e, b * comp):
                if piece:
                    nxt.append(piece)
        blocks = nxt
    blocks.sort(key=lambda x: x.sort_key())
    out = []
    total = one - one
    card = 1
    for eps in blocks:
        if eps not in index:
            raise VerificationError("primitive idempotent escaped the subring")
        slice_elems = {t * eps for t in elems}
        n_slice = len(slice_elems)
        pn = prime_power(n_slice)
        if pn is None:
            raise ValueError("input not reduced: a slice has non-prime-power order")
        p, n = pn
        if eps * p:
            raise ValueError("input not reduced: slice characteristic mismatch")
        # a finite ring with identity eps is a field iff a^(|slice|-1) = eps
        # for every nonzero a
        for a in slice_elems:
            if a and a ** (n_slice - 1) != eps:
                raise ValueError("input not reduced: a slice has a non-invertible nonzero element")
        out.append((eps, FieldClass(p, n)))
        total = total + eps
        card *= n_slice
    if total != one:
        raise VerificationError("primitive idempotents do not sum to 1")
    for i, (e1, _) in enumerate(out):
        for e2, _ in out[i + 1:]:
            if e1 * e2:
                raise VerificationError("primitive idempotents are not orthogonal")
    if card != len(index):
        raise VerificationError("field orders do not multiply to the subring size")
    return tuple(out)


# ---------------------------------------------------------------------------
# the canonical signature


class RingSignature(Record):
    """field class -> total atom count, the complete isomorphism invariant:
    `entries` holds ((p, n), atoms) pairs sorted by (p, n)."""

    __slots__ = ()

    def __init__(self, entries: tuple):
        _set(self, "_key", (entries,))

    @classmethod
    def from_dict(cls, d):
        items = []
        for key, atoms in d.items():
            if isinstance(key, FieldClass):
                key = (key.p, key.n)
            if atoms <= 0:
                raise ValueError("atom totals must be positive")
            items.append(((key[0], key[1]), atoms))
        items.sort()
        if len({k for k, _ in items}) != len(items):
            raise ValueError("duplicate field classes in signature")
        return cls(tuple(items))

    def as_dict(self):
        return dict(self.entries)

    def total_atoms(self):
        return sum(a for _, a in self.entries)

    def __str__(self):
        inner = ", ".join(f"GF({p ** n}):{atoms}" for (p, n), atoms in self.entries)
        return "sig{" + inner + "}"

    __repr__ = __str__


def ring_from_signature(sig: RingSignature) -> ProductRing:
    factors = []
    for (p, n), atoms in sig.entries:
        factors.append(StepRing(finite_field(p, n), BooleanRing(atoms)))
    return ProductRing(factors)


class WitnessBlock(Record):
    """`atom_masks` holds one atom mask per ambient factor."""

    __slots__ = ()

    def __init__(self, epsilon: ProductElem, field: FieldClass, atom_masks: tuple,
                 atom_total: int):
        _set(self, "_key", (epsilon, field, atom_masks, atom_total))


class StructureWitness(Record):
    __slots__ = ()

    def __init__(self, subring_size: int, blocks: tuple):     # of WitnessBlock
        _set(self, "_key", (subring_size, blocks))


def structure_decompose(pres: SubringPresentation, cap: int = SUBRING_CAP):
    """Signature plus decomposition witness for a presented ring.

    Pipeline: saturate the generated subring, split it along primitive
    idempotents into fields, count ambient atoms under each idempotent, and
    merge equal fields by adding atom counts.  Cross-checked against the
    independent per-atom residue-field count.
    """
    T = generated_subring(pres, cap)
    parts = decompose_finite_reduced(T, assume_closed=True)
    blocks = []
    merged: dict = {}
    for eps, fc in parts:
        profile = eps.support_profile()
        atoms = sum(m.bit_count() for m in profile)
        blocks.append(WitnessBlock(eps, fc, profile, atoms))
        merged[(fc.p, fc.n)] = merged.get((fc.p, fc.n), 0) + atoms
    sig = RingSignature.from_dict(merged)
    oracle = residue_field_signature(pres)
    if oracle != sig:
        raise VerificationError(
            f"decomposition signature {sig} disagrees with the residue-field count {oracle}")
    return sig, StructureWitness(len(T), tuple(blocks))


def residue_field_signature(pres: SubringPresentation) -> RingSignature:
    """Independent signature: at each prime, the residue field is the subfield
    generated by the residues of the generators (with 0 and 1)."""
    ring = pres.ambient
    counts: dict = {}
    for i, f in enumerate(ring.factors):
        p = f.field.p
        for atom in range(f.bool_ring.atom_count):
            d = 1
            for g in pres.gens:
                d = math.lcm(d, g.parts[i].value_at(atom).residue_degree())
            counts[(p, d)] = counts.get((p, d), 0) + 1
    return RingSignature.from_dict(counts)


def iso_test(p1: SubringPresentation, p2: SubringPresentation, cap: int = SUBRING_CAP) -> bool:
    """Presented rings are isomorphic iff their signatures are equal."""
    s1, _ = structure_decompose(p1, cap)
    s2, _ = structure_decompose(p2, cap)
    return s1 == s2


# ---------------------------------------------------------------------------
# characteristic decomposition


class CharBlock(Record):
    __slots__ = ()

    def __init__(self, prime: int, idempotent: ProductElem, subring: ProductRing,
                 factor_indices: tuple):
        _set(self, "_key", (prime, idempotent, subring, factor_indices))


def ring_char(ring_or_pres) -> int:
    if isinstance(ring_or_pres, SubringPresentation):
        return ring_or_pres.ambient.char
    return ring_or_pres.char


def char_decompose(ring: ProductRing):
    """One block per prime dividing the characteristic: the idempotent
    1 - support(q*1) and the sub-product of the characteristic-q factors."""
    primes = sorted({f.field.p for f in ring.factors})
    blocks = []
    for q in primes:
        support = ring.scalar(q).support()
        idem = ring.one - support
        indices = tuple(i for i, f in enumerate(ring.factors) if f.field.p == q)
        sub = ProductRing(tuple(ring.factors[i] for i in indices))
        blocks.append(CharBlock(q, idem, sub, indices))
    total = ring.zero
    for b in blocks:
        total = total + b.idempotent
    if total != ring.one:
        raise VerificationError("characteristic blocks do not sum to 1")
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            if b1.idempotent * b2.idempotent:
                raise VerificationError("characteristic blocks are not orthogonal")
    return tuple(blocks)
