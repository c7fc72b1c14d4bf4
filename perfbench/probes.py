"""Micro-kernel probes for the per-layer metrics, run only in traced runs.

Each kernel is timed over a fixed list of seeded random operand pairs; the
reported figure is the median over REPEATS passes of the time per operation,
Python loop overhead included.  Field construction is timed on fresh
FiniteField objects, bypassing the finite_field memo.
"""

from __future__ import annotations

import operator
import random
import time
from statistics import median

from finreg import fields
from finreg.boolean import BooleanRing
from finreg.stepfun import StepRing

import rings

REPEATS = 5
PAIRS = 2000
CONSTRUCT_REPEATS = 3
THREE_FACTOR = ((2, 4), (3, 3), (5, 2))


def _per_op_ns(fn, pairs):
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        runs.append((time.perf_counter_ns() - start) / len(pairs))
    return median(runs)


def _pairs(draw, rng, n=PAIRS):
    return [(draw(rng), draw(rng)) for _ in range(n)]


def _inverse_ns(p, n, count):
    """Inverses of distinct nonzero elements in a fresh field (empty memo)."""
    runs = []
    for r in range(REPEATS):
        field = fields.FiniteField(p, n)
        elems = [field.from_index(1 + (r * count + i) % (field.q - 1)) for i in range(count)]
        start = time.perf_counter_ns()
        for x in elems:
            x.inverse()
        runs.append((time.perf_counter_ns() - start) / count)
    return median(runs)


def _construct_ms(p, n):
    runs = []
    for _ in range(CONSTRUCT_REPEATS):
        start = time.perf_counter_ns()
        fields.FiniteField(p, n)
        runs.append((time.perf_counter_ns() - start) / 1e6)
    return median(runs)


def kernels(seed):
    """(metrics {name: (value, unit)}, sizes {name: description})."""
    rng = random.Random(f"probes:{seed}")
    out, sizes = {}, {}

    def field_kernel(name, q, op):
        field = fields.GF(q)
        pairs = _pairs(field.random_element, rng)
        out[name] = (_per_op_ns(op, pairs), "ns")
        sizes[name] = f"GF({q}), {PAIRS} pairs x {REPEATS}"

    field_kernel("fields.add_ns.gf4", 4, operator.add)
    field_kernel("fields.mul_ns.gf4", 4, operator.mul)
    field_kernel("fields.mul_ns.gf256", 256, operator.mul)
    field_kernel("fields.mul_ns.gf4096", 4096, operator.mul)
    field_kernel("fields.mul_ns.gf65536", 65536, operator.mul)
    out["fields.inv_ns.gf4096"] = (_inverse_ns(2, 12, PAIRS), "ns")
    sizes["fields.inv_ns.gf4096"] = f"fresh GF(4096), {PAIRS} distinct elements x {REPEATS}"
    for name, (p, n) in (("gf256", (2, 8)), ("gf243", (3, 5)), ("gf65536", (2, 16))):
        out[f"fields.construct_ms.{name}"] = (_construct_ms(p, n), "ms")
        sizes[f"fields.construct_ms.{name}"] = f"FiniteField({p}, {n}) x {CONSTRUCT_REPEATS}"

    step = StepRing(fields.GF(4), BooleanRing(4))
    pairs = _pairs(step.random_element, rng)
    out["stepfun.add_us.gf4_b4"] = (_per_op_ns(operator.add, pairs) / 1e3, "us")
    out["stepfun.mul_us.gf4_b4"] = (_per_op_ns(operator.mul, pairs) / 1e3, "us")
    sizes["stepfun.*.gf4_b4"] = f"GF(4)^[B(atoms=4)] random elements, {PAIRS} pairs x {REPEATS}"

    ring = rings.make_ring(THREE_FACTOR)
    pairs = _pairs(ring.random_element, rng)
    out["products.add_us.3factor"] = (_per_op_ns(operator.add, pairs) / 1e3, "us")
    out["products.mul_us.3factor"] = (_per_op_ns(operator.mul, pairs) / 1e3, "us")
    sizes["products.*.3factor"] = (f"{rings.ring_text(THREE_FACTOR)} random elements, "
                                   f"{PAIRS} pairs x {REPEATS}")
    return out, sizes
