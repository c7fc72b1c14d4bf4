"""Parametric builders for the library's landmark constructions.

Three families live here, each with a verifier that reports what was
actually checked:

* a finite realization of arbitrary residue-field assignments: given a field
  per atom (uniform characteristic), build the product ring whose quotient
  at each prime is the assigned field;

* tower rings: step functions into a tower of fields F_1 < F_2 < ... where
  the value at atom j must lie in F_{j+2} (equivalently, the coefficient of
  every value outside F_i is supported on atoms >= i-1).  Quotients stay
  finite at every truncation while their maximum grows without bound in the
  truncation size: bounded quotient order is strictly stronger than finite
  quotient order;

* the order-4 field obstruction: the map t -> t(t+1)(t+g) on GF(4) kills
  0, 1, g and sends g+1 to 1, and no polynomial with coefficients in {0, 1}
  induces it.  On any finite truncation of the sequence ring the
  corresponding map is still polynomial (witness found by interpolation);
  the obstruction needs infinitely many coordinates, which the demo reports
  as an observation, asserting nothing beyond the truncations it built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .boolean import BooleanRing
from .errors import CapExceeded, VerificationError
from .fields import FiniteField, FieldElem, field_embedding, finite_field, fpoly_eval
from .products import ProductRing, RingSignature
from .polymaps import MapTable, PolyMap, contractive_to_polynomial, is_contractive
from .stepfun import StepElem, StepRing, require_listable

TOWER_N_CAP = 6
SUBFIELD_MATERIALIZE_CAP = 1024


# ---------------------------------------------------------------------------
# residue-field assignments


@dataclass(frozen=True)
class FieldAssignment:
    """One finite field per atom; uniform characteristic."""

    bool_ring: BooleanRing
    fields: tuple

    def __post_init__(self):
        if len(self.fields) != self.bool_ring.atom_count:
            raise ValueError(
                f"expected {self.bool_ring.atom_count} fields, got {len(self.fields)}")
        chars = {f.p for f in self.fields}
        if len(chars) != 1:
            raise ValueError(f"mixed characteristics {sorted(chars)} in assignment")


@dataclass(frozen=True)
class VraciuReport:
    ring: ProductRing
    atom_map: tuple          # original atom -> (factor, atom) label
    signature: RingSignature
    atom_count_ok: bool
    quotients_ok: bool

    @property
    def ok(self):
        return self.atom_count_ok and self.quotients_ok


def vraciu_build(assignment: FieldAssignment) -> VraciuReport:
    """Product ring realizing the assignment: quotient at atom j is fields[j].

    Atoms are grouped by assigned field (one factor per distinct field); the
    report records where each original atom landed and re-verifies the
    quotients by evaluating scalars at every prime (CapExceeded above ENUM_CAP).
    """
    groups: dict = {}
    for j, f in enumerate(assignment.fields):
        groups.setdefault((f.p, f.n), []).append(j)
    keys = sorted(groups)
    factors = []
    atom_map = [None] * assignment.bool_ring.atom_count
    for fi, key in enumerate(keys):
        atoms = groups[key]
        factors.append(StepRing(finite_field(*key), BooleanRing(len(atoms))))
        for pos, j in enumerate(atoms):
            atom_map[j] = (fi, pos)
    ring = ProductRing(factors)
    atom_count_ok = ring.total_atoms == assignment.bool_ring.atom_count
    quotients_ok = True
    for j, label in enumerate(atom_map):
        expected = assignment.fields[j]
        require_listable(expected)
        got = ring.quotient_field(label)
        if got is not expected:
            quotients_ok = False
            continue
        for k in expected.elements():
            if ring.scalar_at(label[0], k).value_at(label) != k:
                quotients_ok = False
                break
    sig = RingSignature.from_dict({key: len(groups[key]) for key in keys})
    return VraciuReport(ring, tuple(atom_map), sig, atom_count_ok, quotients_ok)


# ---------------------------------------------------------------------------
# tower rings


class TowerRing:
    """Step functions into the top of a field tower, constrained per atom.

    Atom j (0-based) may only carry values from the tower field with list
    index j+1; seen through the ideal formulation, the support of the values
    outside fields[i] must be contained in atoms {i, ..., N-1} for every i.
    Membership checks both formulations and insists they agree.
    """

    def __init__(self, q: int, n_atoms: int, fields, universe: FiniteField):
        self.q = q
        self.n_atoms = n_atoms
        self.fields = tuple(fields)      # fields[i] has order q^(2^i)
        self.universe = universe
        self.bool_ring = BooleanRing(n_atoms)
        self.ring = StepRing(universe, self.bool_ring)
        self._subfield_sets = {}

    def __str__(self):
        sizes = ", ".join(str(f.q) for f in self.fields)
        return f"tower(q={self.q}, atoms={self.n_atoms}; field orders {sizes})"

    def value_level(self, v: FieldElem) -> int:
        """Least list index i with v in fields[i]."""
        d = v.residue_degree()
        i = 0
        while (1 << i) < d:
            i += 1
        return i

    def in_subfield(self, v: FieldElem, i: int) -> bool:
        return v ** (self.q ** (1 << i)) == v

    def is_member(self, u: StepElem) -> bool:
        if u.ring != self.ring:
            raise ValueError("element of a different tower universe")
        by_ideal = self._member_by_ideals(u)
        by_level = self._member_by_levels(u)
        if by_ideal != by_level:
            raise VerificationError(
                f"ideal and per-atom membership disagree on {u}")
        return by_ideal

    def _member_by_ideals(self, u: StepElem) -> bool:
        full = self.bool_ring.full_mask
        for i in range(len(self.fields)):
            # coefficient of values outside fields[i] must lie in the ideal of
            # subsets of atoms {i, ..., N-1}
            outside = 0
            for mask, v in u.blocks:
                if not self.in_subfield(self.universe.from_index(v), i):
                    outside |= mask
            allowed = full & ~((1 << i) - 1) if i <= self.n_atoms else 0
            if outside & ~allowed:
                return False
        return True

    def _member_by_levels(self, u: StepElem) -> bool:
        for mask, v in u.blocks:
            level = self.value_level(self.universe.from_index(v))
            m = mask
            while m:
                atom = (m & -m).bit_length() - 1
                if level > atom + 1:
                    return False
                m &= m - 1
        return True

    def subfield_elements(self, i: int):
        """Universe images of fields[i], when small enough to materialize."""
        cached = self._subfield_sets.get(i)
        if cached is not None:
            return cached
        sub = self.fields[i]
        if sub.q > SUBFIELD_MATERIALIZE_CAP:
            return None
        if sub is self.universe:
            elems = tuple(self.universe.elements())
        else:
            emb = field_embedding(sub, self.universe)
            elems = tuple(sorted((emb(x) for x in sub.elements()), key=lambda e: e.index))
        self._subfield_sets[i] = elems
        return elems

    def random_subfield_value(self, i: int, rng: random.Random) -> FieldElem:
        elems = self.subfield_elements(i)
        if elems is not None:
            return rng.choice(elems)
        # exponent trick for huge subfields: y^((Q-1)/(q_i-1)) has order
        # dividing q_i - 1, so it lies in fields[i]
        sub_order = self.fields[i].q
        while True:
            y = self.universe.random_element(rng)
            if y:
                return y ** ((self.universe.q - 1) // (sub_order - 1))
            if rng.random() < 0.1:
                return self.universe.zero

    def random_member(self, rng: random.Random) -> StepElem:
        values = [self.random_subfield_value(j + 1, rng) for j in range(self.n_atoms)]
        return self.ring.from_values(values)

    def members(self):
        """Every member, atom values ranging over their subfields; only for
        towers whose member count is materializable."""
        count = self.member_count()
        if count > 1 << 16:
            raise CapExceeded(f"tower has {count} members")
        pools = []
        for j in range(self.n_atoms):
            pool = self.subfield_elements(j + 1)
            if pool is None:
                raise CapExceeded("subfield too large to materialize")
            pools.append(pool)
        for values in itertools.product(*pools):
            yield self.ring.from_values(values)

    def member_count(self):
        count = 1
        for j in range(self.n_atoms):
            count *= self.fields[j + 1].q
        return count

    def quotient_sizes(self):
        return tuple(self.fields[j + 1].q for j in range(self.n_atoms))


def tower_build(q: int, n_atoms: int) -> TowerRing:
    """Tower with doubling degrees: fields of order q, q^2, q^4, ..., q^(2^N)."""
    if q not in (2, 3):
        raise ValueError(f"tower characteristic must be 2 or 3, got {q}")
    if n_atoms < 1:
        raise ValueError(f"tower size must be at least 1, got {n_atoms}")
    if n_atoms > TOWER_N_CAP:
        raise CapExceeded(f"tower size must be between 1 and {TOWER_N_CAP}, got {n_atoms}")
    degrees = [1 << i for i in range(n_atoms + 1)]
    fields = [finite_field(q, d, degree_cap=max(d, 16)) for d in degrees]
    return TowerRing(q, n_atoms, fields, fields[-1])


@dataclass(frozen=True)
class TowerReport:
    tower: TowerRing
    closure_ok: bool
    closure_exhaustive: bool
    closure_checked: int
    quotient_sizes: tuple
    quotients_ok: bool
    max_quotient: int
    membership_agree_checked: int

    @property
    def ok(self):
        return self.closure_ok and self.quotients_ok


def tower_verify(tr: TowerRing, *, rng: random.Random | None = None,
                 member_samples: int = 2000) -> TowerReport:
    """Check subring closure, the per-atom quotient fields, and agreement of
    the two membership formulations (exercised inside is_member)."""
    rng = rng or random.Random(0)
    count = tr.member_count()
    closure_ok = True
    checked = 0
    exhaustive = count * count <= 5000
    if exhaustive:
        members = list(tr.members())
        pairs = itertools.product(members, members)
    else:
        pairs = ((tr.random_member(rng), tr.random_member(rng))
                 for _ in range(400))
    for x, y in pairs:
        if not (tr.is_member(x + y) and tr.is_member(x * y) and tr.is_member(-x)):
            closure_ok = False
            break
        checked += 1
    closure_ok = closure_ok and tr.is_member(tr.ring.zero) and tr.is_member(tr.ring.one)

    sizes = tr.quotient_sizes()
    quotients_ok = True
    for j in range(tr.n_atoms):
        pool = tr.subfield_elements(j + 1)
        if pool is not None:
            candidates = pool
        else:
            candidates = [tr.random_subfield_value(j + 1, rng) for _ in range(64)]
        for v in candidates:
            values = [tr.universe.zero] * tr.n_atoms
            values[j] = v
            if not tr.is_member(tr.ring.from_values(values)):
                quotients_ok = False
                break
        # a value of the next level up must be rejected at this atom
        if j + 2 < len(tr.fields):
            probe = None
            upper = tr.subfield_elements(j + 2)
            if upper is not None:
                for v in upper:
                    if not tr.in_subfield(v, j + 1):
                        probe = v
                        break
            else:
                for _ in range(64):
                    v = tr.random_subfield_value(j + 2, rng)
                    if not tr.in_subfield(v, j + 1):
                        probe = v
                        break
            if probe is not None:
                values = [tr.universe.zero] * tr.n_atoms
                values[j] = probe
                if tr.is_member(tr.ring.from_values(values)):
                    quotients_ok = False

    agree_checked = 0
    for _ in range(member_samples):
        u = tr.ring.random_element(rng)
        tr.is_member(u)  # raises if the two formulations disagree
        agree_checked += 1
    return TowerReport(tr, closure_ok, exhaustive, checked, sizes, quotients_ok,
                       max(sizes), agree_checked)


# ---------------------------------------------------------------------------
# the order-4 obstruction kernel


@dataclass(frozen=True)
class KernelReport:
    relation_ok: bool            # t(t+1)(t^2+t+1) = 0 on all of GF(4)
    h_values: tuple              # h at 0, 1, g, g+1
    h_table_ok: bool             # pattern (0, 0, 0, 1)
    candidates: tuple            # (coefficient bits, mismatch count) per candidate
    all_rejected: bool

    @property
    def ok(self):
        return self.relation_ok and self.h_table_ok and self.all_rejected


def gf4_kernel_check() -> KernelReport:
    """The GF(4) computations behind the bounded-but-not-polynomial example."""
    K = finite_field(2, 2)
    g = K.generator
    one = K.one
    elems = [K.zero, one, g, g + one]

    relation_ok = all(t * (t + one) * (t * t + t + one) == K.zero for t in elems)

    def h(t):
        return t * (t + one) * (t + g)

    h_values = tuple(h(t) for t in elems)
    h_table_ok = h_values == (K.zero, K.zero, K.zero, one)

    candidates = []
    all_rejected = True
    for bits in itertools.product((0, 1), repeat=4):
        coeffs = [K.from_int(b) for b in bits]
        mismatches = sum(fpoly_eval(coeffs, t) != h(t) for t in elems)
        candidates.append((bits, mismatches))
        if mismatches == 0:
            all_rejected = False
    return KernelReport(relation_ok, h_values, h_table_ok, tuple(candidates), all_rejected)


# ---------------------------------------------------------------------------
# finite truncations of the bounded sequence ring


@dataclass(frozen=True)
class SequenceReport:
    ring: ProductRing
    quotient_sizes: tuple
    quotient_bound_ok: bool      # every quotient has at most 4 elements
    preserves_ring: bool         # f lands in the ring (order-2 part vanishes)
    contractive: bool
    witness: PolyMap | None      # interpolated polynomial for the truncation
    witness_matches: bool
    note: str = dc_field(default=(
        "finite truncation: the map is polynomial here; the obstruction in "
        "gf4_kernel_check only bites with infinitely many coordinates"))

    @property
    def ok(self):
        return (self.quotient_bound_ok and self.preserves_ring
                and self.contractive and self.witness_matches)


def gf4_sequence_demo(n_coords: int = 3, k_free: int = 1) -> SequenceReport:
    """Truncate the bounded sequence ring to n_coords coordinates with k_free
    of them carrying the full order-4 field, and analyse f(x) = x(x+1)(x+c)
    with c the order-4 generator on the free part.
    """
    if not 0 <= k_free < n_coords:
        raise ValueError(f"need 0 <= k < N, got k={k_free}, N={n_coords}")
    if n_coords > 6:
        raise CapExceeded("truncation size capped at 6")
    K4 = finite_field(2, 2)
    K2 = finite_field(2, 1)
    factors = []
    if k_free:
        factors.append(StepRing(K4, BooleanRing(k_free)))
    factors.append(StepRing(K2, BooleanRing(n_coords - k_free)))
    ring = ProductRing(factors)

    # c = the order-4 generator on the free factor, anything on the rest:
    # x(x+1) vanishes on the order-2 part, so that slot never matters
    c_parts = []
    if k_free:
        c_parts.append(ring.factors[0].scalar(K4.generator))
    c_parts.append(ring.factors[-1].zero)
    c = ring.element(c_parts)
    one = ring.one
    f_poly = PolyMap(ring, [ring.zero, c, one + c, one])  # X(X+1)(X+c) expanded
    # expansion check: X(X+1)(X+c) = X^3 + (1+c)X^2 + cX over char 2
    f = MapTable.from_function(ring, lambda x: x * (x + one) * (x + c))
    if any(f_poly.evaluate(x) != y for x, y in f.items()):
        raise VerificationError("expanded cubic disagrees with the product form")

    sizes = tuple(ring.quotient_field(lbl).q for lbl in ring.prime_labels())
    bound_ok = all(s <= 4 for s in sizes)
    preserves = all(not y.parts[-1] for _, y in f.items()) if n_coords > k_free else True
    contractive, _ = is_contractive(f)
    witness = contractive_to_polynomial(f) if contractive else None
    matches = witness is not None and all(witness.evaluate(x) == y for x, y in f.items())
    return SequenceReport(ring, sizes, bound_ok, preserves, contractive, witness, matches)
