"""Ring shapes for generated inputs, and small independent oracles.

A shape is a tuple of (q, atoms) factors.  The oracles work on flattened
per-atom value vectors and use only field arithmetic, so they check the
saturation, CRT and orbit layers without going through them.
"""

from __future__ import annotations

import itertools
from math import gcd

from finreg import fields, products
from finreg.boolean import BooleanRing
from finreg.stepfun import StepRing

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)
FIELD_SPECS = tuple((fields.GF(q).p, fields.GF(q).n) for q in FIELD_ORDERS)


def make_ring(shape):
    return products.ProductRing(tuple(StepRing(fields.GF(q), BooleanRing(m)) for q, m in shape))


def ring_text(shape):
    return " x ".join(f"GF({q})^[B(atoms={m})]" for q, m in shape)


def shapes(max_size, max_factors=3, max_atoms=3, orders=FIELD_ORDERS):
    """Every shape with at most `max_size` elements, in a fixed order."""
    singles = [(q, m) for q in orders for m in range(1, max_atoms + 1) if q ** m <= max_size]
    out = []
    for k in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(singles, k):
            size = 1
            for q, m in combo:
                size *= q ** m
            if size <= max_size:
                out.append(combo)
    return out


def shape_size(shape):
    size = 1
    for q, m in shape:
        size *= q ** m
    return size


def atom_values(x):
    """The value of a product element at every prime, factor by factor."""
    return tuple(part.value_at(j) for part in x.parts for j in range(part.ring.bool_ring.atom_count))


def _mul(a, b):
    return tuple(x * y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def subring_size(ring, gens):
    """Order of the subring generated by gens, 0, 1 and -1: the additive span
    of the multiplicative monoid generated by gens, 1 and -1."""
    one = atom_values(ring.one)
    seeds = {one, tuple(-x for x in one), *(atom_values(g) for g in gens)}
    monoid = set(seeds)
    frontier = list(monoid)
    while frontier:
        nxt = []
        for a in frontier:
            for s in seeds:
                c = _mul(a, s)
                if c not in monoid:
                    monoid.add(c)
                    nxt.append(c)
        frontier = nxt
    span = {atom_values(ring.zero)}
    for m in sorted(monoid, key=lambda v: tuple(x.index for x in v)):
        if m in span:
            continue
        grown = set(span)
        step = m
        while step not in span:          # H + <m> is the union of H + k*m
            grown.update(_add(h, step) for h in span)
            step = _add(step, m)
        span = grown
    return len(span)


def residue_degree(x):
    """Degree over GF(p) of the subfield generated by x."""
    p = x.field.p
    d, y = 1, x ** p
    while y != x:
        d += 1
        y = y ** p
    return d


def signature_of(ring, gens):
    """Expected signature as sorted ((p, n), atoms) pairs: at every prime the
    residue field is generated by the generators' values there."""
    counts = {}
    per_gen = [atom_values(g) for g in gens]
    labels = [fac.field.p for fac in ring.factors for _ in range(fac.bool_ring.atom_count)]
    for pos, p in enumerate(labels):
        d = 1
        for vals in per_gen:
            r = residue_degree(vals[pos])
            d = d * r // gcd(d, r)
        counts[(p, d)] = counts.get((p, d), 0) + 1
    return tuple(sorted(counts.items()))


def table_indices(table):
    """A map table as a tuple of element indices in canonical element order."""
    elems = table.ring.cached_elements(len(table.mapping))
    where = {x: i for i, x in enumerate(elems)}
    return tuple(where[table.mapping[x]] for x in elems)


def orbit_size(func):
    """|{f, f^2, f^3, ...}| for f given as an index tuple."""
    seen = set()
    cur = func
    while cur not in seen:
        seen.add(cur)
        cur = tuple(func[v] for v in cur)
    return len(seen)
