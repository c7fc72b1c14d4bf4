"""Each record class against its former dataclass definition, kept below
verbatim (apart from the module comments) as the reference: the same fields,
positional and keyword construction, the default, equality, hash, repr,
properties, refusal of assignment, and the checks and coercion in
construction."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field as dc_field, fields

import pytest

from finreg import gallery, polymaps, products, stepfun
from finreg.boolean import BooleanRing
from finreg.fields import GF
from finreg.textio import parse_ring


# formerly finreg.products
@dataclass(frozen=True)
class SubringPresentation:
    """Names the convex span (over all ambient idempotents) of the subring
    generated by `gens` together with 0, 1, -1."""

    ambient: ProductRing
    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.ambient.coerce(g) for g in self.gens))


# formerly finreg.products
@dataclass(frozen=True)
class FieldClass:
    """Isomorphism class of a finite field."""

    p: int
    n: int

    @property
    def order(self):
        return self.p ** self.n

    def __str__(self):
        return f"GF({self.order})"


# formerly finreg.products
@dataclass(frozen=True)
class RingSignature:
    """field class -> total atom count, the complete isomorphism invariant."""

    entries: tuple  # ((p, n), atoms) sorted by (p, n)

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


# formerly finreg.products
@dataclass(frozen=True)
class WitnessBlock:
    epsilon: ProductElem
    field: FieldClass
    atom_masks: tuple  # per ambient factor
    atom_total: int


# formerly finreg.products
@dataclass(frozen=True)
class StructureWitness:
    subring_size: int
    blocks: tuple


# formerly finreg.products
@dataclass(frozen=True)
class CharBlock:
    prime: int
    idempotent: ProductElem
    subring: ProductRing
    factor_indices: tuple


# formerly finreg.stepfun
@dataclass(frozen=True)
class ConvexCombination:
    """Coefficients (a complete orthogonal idempotent family) and values."""

    coeffs: tuple
    values: tuple

    def evaluate(self, ring):
        return ring.convex(self.coeffs, self.values)


# formerly finreg.stepfun
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


# formerly finreg.polymaps
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


# formerly finreg.polymaps
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


# formerly finreg.gallery
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


# formerly finreg.gallery
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


# formerly finreg.gallery
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


# formerly finreg.gallery
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


# formerly finreg.gallery
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


RING = parse_ring("GF(3)^[B(atoms=2)] x GF(4)^[B(atoms=1)]")
X, Y = RING.cached_elements()[5], RING.cached_elements()[7]
BOOL2 = BooleanRing(2)

# class -> two argument tuples that differ, every field hashable
CASES = {
    products.SubringPresentation: ((RING, (X, 1)), (RING, (Y,))),
    products.FieldClass: ((2, 3), (3, 2)),
    products.RingSignature: (((((2, 1), 3),),), ((((2, 1), 3), ((3, 2), 1)),)),
    products.WitnessBlock: ((X, "GF(3)", (3, 0), 2), (Y, "GF(4)", (0, 1), 1)),
    products.StructureWitness: ((12, ("b1", "b2")), (12, ("b1",))),
    products.CharBlock: ((3, X, RING, (0,)), (2, Y, RING, (1,))),
    stepfun.ConvexCombination: (((X, Y), (1, 2)), ((Y, X), (1, 2))),
    stepfun.CoverReport: ((True, (), True, True, 81), (False, ((0, 1, 2),), True, False, 256)),
    polymaps.IterationCertificate: ((6, 2, 4, None, None, None, True),
                                    (6, 2, 4, (X,), ("M1",), 4, True)),
    polymaps.BoundReport: ((2, 4, (2, 3), (), ()), (2, 4, (2, 4, 5), (5,), (4,))),
    gallery.FieldAssignment: ((BOOL2, (GF(4), GF(2))), (BOOL2, (GF(2), GF(2)))),
    gallery.VraciuReport: ((RING, ((0, 0), (0, 1)), "sig", True, True),
                           (RING, ((0, 0), (1, 0)), "sig", True, False)),
    gallery.TowerReport: (("tower", True, True, 64, (2, 4), True, 4, 100),
                          ("tower", True, False, 64, (2, 4), True, 4, 100)),
    gallery.KernelReport: ((True, (0, 0, 0, 1), True, ((0, 0, 0, 0), 1), True),
                           (True, (0, 0, 0, 1), True, ((0, 0, 0, 0), 0), False)),
    gallery.SequenceReport: ((RING, (3, 4), True, True, True, None, True),
                             (RING, (3, 4), True, True, False, None, True, "other note")),
}
REFERENCE = {cls: globals()[cls.__name__] for cls in CASES}


def test_every_record_class_is_covered():
    assert len(CASES) == 15
    for cls, ref in REFERENCE.items():
        assert cls._fields == tuple(f.name for f in fields(ref))


def public_views(ref):
    """Names of the properties and argument-free methods a reference class
    defines beyond the dataclass machinery."""
    return [name for name, attr in vars(ref).items()
            if isinstance(attr, property)
            or name in ("as_dict", "total_atoms", "__bool__", "__str__")]


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass(cls):
    ref = REFERENCE[cls]
    first, second = (cls(*args) for args in CASES[cls])
    assert first != second and hash(first) != hash(second)
    for args in CASES[cls]:
        new, old = cls(*args), ref(*args)
        by_name = cls(**{f: getattr(old, f) for f in cls._fields})
        assert repr(new) == repr(old) and str(new) == str(old)
        assert hash(new) == hash(old) == hash(by_name)
        assert new == by_name and not new != by_name
        assert new != old and new != args and (new == 5) is False
        assert [getattr(new, f) for f in cls._fields] == [getattr(old, f) for f in cls._fields]
        for name in public_views(ref):
            view_new, view_old = getattr(new, name), getattr(old, name)
            if callable(view_old):
                view_new, view_old = view_new(), view_old()
            assert view_new == view_old, name
        assert bool(new) == bool(old)
        for f in (*cls._fields, "_key", "extra"):
            with pytest.raises(AttributeError):
                setattr(new, f, 0)
            with pytest.raises(AttributeError):
                delattr(new, f)
        assert new == cls(*args)


def test_records_of_different_classes_are_unequal():
    for classes in ((products.FieldClass, products.StructureWitness, stepfun.ConvexCombination),
                    (FieldClass, StructureWitness, ConvexCombination)):
        records = [cls(2, 3) for cls in classes]
        assert [a == b for a in records for b in records] == [a is b for a in records
                                                              for b in records]


def test_sequence_report_note_default():
    args = CASES[gallery.SequenceReport][0]
    new, old = gallery.SequenceReport(*args), SequenceReport(*args)
    assert new.note == old.note and new.note.startswith("finite truncation")
    assert gallery.SequenceReport(*args, note=old.note) == new
    assert gallery.SequenceReport(*args, note="x").note == "x"


def outcome(build):
    """What build() returns, or the type and text of what it raises."""
    try:
        return "value", build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bool_ring, fields_", [
    (BOOL2, (GF(4), GF(2))),
    (BOOL2, (GF(4),)),
    (BOOL2, (GF(4), GF(2), GF(2))),
    (BOOL2, (GF(4), GF(3))),
    (BooleanRing(3), (GF(5), GF(2), GF(3))),
])
def test_field_assignment_checks_match(bool_ring, fields_):
    new = outcome(lambda: gallery.FieldAssignment(bool_ring, fields_))
    old = outcome(lambda: FieldAssignment(bool_ring, fields_))
    assert new[0] == old[0] and str(new[1]) == str(old[1])


@pytest.mark.parametrize("gens", [[X, 1, 2, [(1, 0, 0), (0,)]], (), (Y,), ("x",), [3.5]])
def test_subring_presentation_coerces_its_generators(gens):
    new = outcome(lambda: products.SubringPresentation(RING, gens))
    old = outcome(lambda: SubringPresentation(RING, gens))
    if old[0] != "value":
        assert new == old
        return
    new, old = new[1], old[1]
    assert type(new.gens) is tuple and new.gens == old.gens
    assert all(g.ring is RING for g in new.gens)
    assert new == products.SubringPresentation(RING, old.gens)


@pytest.mark.parametrize("entries", [
    [((3, 1), 2, False), ((2, 2), 1, False)],
    [((2, 1), 4, True), ((3, 1), 1, False)],
    [((2, 1), 0, False)],
    [((2, 1), 1, False), ((2, 1), 2, True)],     # one class keyed twice
])
def test_signature_from_dict_matches(entries):
    def build(sig, field_class):
        return lambda: sig.from_dict({field_class(*key) if as_class else key: atoms
                                      for key, atoms, as_class in entries}).entries

    new = outcome(build(products.RingSignature, products.FieldClass))
    assert new == outcome(build(RingSignature, FieldClass))


def test_records_copy_and_pickle_by_value():
    for rec in (products.FieldClass(2, 3), products.RingSignature((((2, 1), 3),)),
                stepfun.CoverReport(True, (), True, True, 9)):
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert twin == rec and type(twin) is type(rec) and repr(twin) == repr(rec)
