"""Workload `maps`: analysis of seeded self-maps of rings with at most 81 elements.

One operation analyses one map table.  Every pass runs the same list of ring
shapes, drawn once over three ring-order strata, so that seeds differ only
where the maps do; the seed and the pass index choose the polynomials, the
perturbations and the order of the operations:

* `topoly`: the table of a random polynomial goes through
  contractive_to_polynomial, then iteration_orbit with the scalar generators;
* `increment` and `frobenius`: the same pipeline on x -> x + 1 and x -> x^p,
  whose orbit sizes are known (the characteristic, the lcm of the degrees);
* `perturbed`: a polynomial table with one value changed, on a ring with at
  least two atoms, goes through is_contractive, which must return a witness;
* `conv`: commutes_with_conv on rings with at most two atoms, on polynomial
  and on perturbed tables.
"""

from __future__ import annotations

import random
from functools import reduce
from math import gcd

from finreg import fields, polymaps

import rings
from harness import Digest, Op

SETUP_FIELDS = rings.FIELD_SPECS
MAX_RING = 81
CONV_MAX_RING = 25             # commutes_with_conv costs grow with |R|^2 * idempotents
STRATA = ((1, 16), (17, 40), (41, 81))
# kind -> operations per stratum.  Medium-ring topoly operations hold the
# median and large-ring ones the 90th percentile, so that both quantiles fall
# inside a large group of like operations.
PER_PASS = {"topoly": (6, 24, 14), "perturbed": (6, 6, 4), "increment": (1, 1, 0),
            "frobenius": (1, 1, 0)}
CONV_PER_PASS = 4              # polynomial tables, and as many perturbed ones

SHAPES = rings.shapes(MAX_RING, max_atoms=6)


def _stratum(lo, hi, pred=lambda s: True):
    return [s for s in SHAPES if lo <= rings.shape_size(s) <= hi and pred(s)]


def _atoms(shape):
    return sum(m for _, m in shape)


def _one_char(shape):
    return len({fields.GF(q).p for q, _ in shape}) == 1


POOLS = {
    "topoly": [_stratum(lo, hi) for lo, hi in STRATA],
    "increment": [_stratum(lo, hi) for lo, hi in STRATA],
    "frobenius": [_stratum(lo, hi, _one_char) for lo, hi in STRATA],
    "perturbed": [_stratum(lo, hi, lambda s: _atoms(s) >= 2) for lo, hi in STRATA],
}
CONV_SHAPES = [s for s in SHAPES if _atoms(s) <= 2 and rings.shape_size(s) <= CONV_MAX_RING]
CONV_BAD_SHAPES = [s for s in CONV_SHAPES if _atoms(s) == 2]


def _slots():
    rng = random.Random("maps-slots")
    slots = [(kind, rng.choice(pool)) for kind, counts in PER_PASS.items()
             for pool, count in zip(POOLS[kind], counts) for _ in range(count)]
    for _ in range(CONV_PER_PASS):
        slots.append(("conv", rng.choice(CONV_SHAPES)))
        slots.append(("conv-perturbed", rng.choice(CONV_BAD_SHAPES)))
    return slots


SLOTS = _slots()                # (kind, ring shape), the same in every pass


def scalar_gens(ring):
    return [ring.scalar_at(i, k) for i, f in enumerate(ring.factors) for k in f.field.elements()]


def perturb(table, rng):
    """The table with one value moved by a nonzero element."""
    ring = table.ring
    elems = ring.cached_elements()
    x = rng.choice(elems)
    d = ring.zero
    while not d:
        d = ring.random_element(rng)
    mapping = dict(table.mapping)
    mapping[x] = mapping[x] + d
    return polymaps.MapTable(ring, mapping)


def violates(table, x, y):
    """x, y witness non-contractivity: they agree at a prime where f does not."""
    vx, vy = rings.atom_values(x), rings.atom_values(y)
    fx, fy = rings.atom_values(table(x)), rings.atom_values(table(y))
    return any(a == b and c != d for a, b, c, d in zip(vx, vy, fx, fy))


class Workload:
    name = "maps"

    def __init__(self, seed):
        self.seed = seed
        self.digest = Digest()
        self.ring_sizes = []

    def make_pass(self, index):
        rng = random.Random(f"maps:{self.seed}:{index}")
        ops = []
        for kind, shape in SLOTS:
            ring = rings.make_ring(shape)
            if kind.startswith("conv"):
                ops.append(self._conv_op(ring, rng, kind == "conv-perturbed"))
            else:
                ops.append(self._op(kind, ring, rng))
        rng.shuffle(ops)
        for op in ops:
            self.digest.add(op.kind, *op.key)
        return ops

    def _op(self, kind, ring, rng):
        one = ring.one
        if kind == "increment":
            poly = polymaps.PolyMap(ring, [one, one])
            expected = ring.char
        elif kind == "frobenius":
            p = ring.factors[0].field.p
            poly = polymaps.PolyMap(ring, [ring.zero] * p + [one])
            expected = reduce(lambda a, b: a * b // gcd(a, b), (f.field.n for f in ring.factors))
        else:
            poly = polymaps.random_polymap(ring, rng)
            expected = None
        table = poly.induced_table()
        self.ring_sizes.append(ring.size)
        if kind == "perturbed":
            return self._perturbed_op(perturb(table, rng))
        func = rings.table_indices(table)
        if expected is None:
            expected = rings.orbit_size(func)
        gens = scalar_gens(ring)

        def run():
            return polymaps.contractive_to_polynomial(table), polymaps.iteration_orbit(table, gens=gens)

        def check(out):
            found, cert = out
            if any(found.evaluate(x) != y for x, y in table.mapping.items()):
                return "interpolated polynomial does not reproduce the table"
            if not cert.methods_agree:
                return "orbit methods disagree"
            if cert.orbit_size != expected:
                return f"orbit size {cert.orbit_size} != {expected}"
            return None

        return Op(kind, (str(ring), func), run, check)

    def _perturbed_op(self, table):
        def run():
            return polymaps.is_contractive(table)

        def check(out):
            ok, witness = out
            if ok or witness is None:
                return "perturbed table reported contractive"
            return None if violates(table, *witness) else "witness pair does not violate contractivity"

        return Op("perturbed", (str(table.ring), rings.table_indices(table)), run, check)

    def _conv_op(self, ring, rng, bad):
        self.ring_sizes.append(ring.size)
        table = polymaps.random_polymap(ring, rng).induced_table()
        if bad:
            table = perturb(table, rng)

        def run():
            return polymaps.commutes_with_conv(table)

        def check(out):
            ok, _ = out
            return None if ok != bad else f"commutes_with_conv gave {ok} on a {'perturbed' if bad else 'polynomial'} table"

        return Op("conv-perturbed" if bad else "conv", (str(ring), rings.table_indices(table)), run, check)

    def composition(self):
        sizes = self.ring_sizes
        return {"ring_size_hist": {f"{lo}-{hi}": sum(lo <= s <= hi for s in sizes) for lo, hi in STRATA},
                "ring_size_mean": sum(sizes) / max(1, len(sizes))}
