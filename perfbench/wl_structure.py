"""Workload `structure`: structure_decompose and iso_test on presented rings.

One operation is one `structure_decompose` or one `iso_test`.  Every pass has
the same composition; the seed and the pass index choose the inputs:

* random presentations: 1-3 factors over GF(2..9) with 1-3 atoms each and
  1-2 random generators, stratified by the order of the generated subring
  (computed beforehand by an independent closure) so that every pass holds
  the same amount of saturation work;
* the full presentation of every signature with at most 4 atoms over GF(2),
  GF(3) and GF(4), generators shuffled (the acceptance criterion 3 shape);
* iso_test pairs drawn from the two kinds above, half with equal signatures.
"""

from __future__ import annotations

import itertools
import random

from finreg import products

import rings
from harness import Digest, Op

SETUP_FIELDS = rings.FIELD_SPECS
# (smallest, largest subring order, presentations per pass).  The 17-27
# bucket holds the median operation and the middle of the 41-64 bucket the
# 90th percentile, so that both quantiles fall inside a large group of like
# operations.
BUCKETS = ((1, 8, 16), (9, 16, 16), (17, 27, 100), (28, 40, 12), (41, 64, 50))
ISO_PAIRS = 32                 # half of them with equal signatures
ISO_SIDE_MAX = 16              # largest subring order drawn into an iso pair
MAX_RING = 128
SHAPES = rings.shapes(MAX_RING)


class Presented:
    """A presentation with what the oracles expect of it."""

    def __init__(self, kind, pres, signature, size):
        self.kind = kind
        self.pres = pres
        self.signature = signature        # sorted ((p, n), atoms) pairs
        self.size = size                  # subring order, None if not computed
        self.key = (str(pres.ambient),) + tuple(str(g) for g in pres.gens)


def full_signatures():
    """Every signature with 1 to 4 atoms over GF(2), GF(3), GF(4)."""
    out = []
    for a, b, c in itertools.product(range(5), repeat=3):
        if 1 <= a + b + c <= 4:
            entries = {k: v for k, v in (((2, 1), a), ((3, 1), b), ((2, 2), c)) if v}
            out.append(products.RingSignature.from_dict(entries))
    return out


FULL = full_signatures()


def random_presented(rng):
    """Draw random presentations until every bucket of the pass is full."""
    want = {b: b[2] for b in BUCKETS}
    out = []
    for _ in range(100_000):
        if not any(want.values()):
            return out
        shape = rng.choice(SHAPES)
        ring = rings.make_ring(shape)
        gens = tuple(ring.random_element(rng) for _ in range(rng.randint(1, 2)))
        size = rings.subring_size(ring, gens)
        for b in BUCKETS:
            if b[0] <= size <= b[1] and want[b]:
                want[b] -= 1
                out.append(Presented("random", products.SubringPresentation(ring, gens),
                                     rings.signature_of(ring, gens), size))
    raise RuntimeError("could not fill the subring-size buckets")


def full_presented(rng):
    out = []
    for sig in FULL:
        ring = products.ring_from_signature(sig)
        gens = list(products.full_presentation(ring).gens)
        rng.shuffle(gens)
        out.append(Presented("full", products.SubringPresentation(ring, tuple(gens)),
                             sig.entries, None))
    return out


def iso_pairs(rng, pool):
    by_sig = {}
    for p in pool:
        by_sig.setdefault(p.signature, []).append(p)
    pairs = []
    for i in range(ISO_PAIRS):
        a = rng.choice(pool)
        if i % 2 == 0:
            b = rng.choice(by_sig[a.signature])
        else:
            b = rng.choice(pool)
            while b.signature == a.signature:
                b = rng.choice(pool)
        pairs.append((a, b))
    return pairs


class Workload:
    name = "structure"

    def __init__(self, seed):
        self.seed = seed
        self.digest = Digest()
        self.subring_sizes = []
        self.decompositions = 0
        self.repeated = 0
        self.iso_sides = 0
        self.iso_repeated = 0

    def make_pass(self, index):
        rng = random.Random(f"structure:{self.seed}:{index}")
        randoms = random_presented(rng)
        fulls = full_presented(rng)
        pool = [p for p in randoms if p.size <= ISO_SIDE_MAX] + fulls
        ops = [self._decompose_op(p) for p in randoms + fulls]
        ops += [self._iso_op(a, b) for a, b in iso_pairs(rng, pool)]
        rng.shuffle(ops)
        seen = set()
        for op in ops:
            self.digest.add(op.kind, *op.key)
            sides = op.key if op.kind == "iso" else (op.key,)
            for side in sides:
                self.decompositions += 1
                self.repeated += side in seen
                if op.kind == "iso":
                    self.iso_sides += 1
                    self.iso_repeated += side in seen
                seen.add(side)
        return ops

    def _decompose_op(self, p):
        def run():
            return products.structure_decompose(p.pres)

        def check(out):
            sig, witness = out
            if sig.entries != p.signature:
                return f"signature {sig} != expected {p.signature}"
            if sig.total_atoms() != p.pres.ambient.total_atoms:
                return "signature atoms do not cover the ambient atoms"
            if p.size is not None and witness.subring_size != p.size:
                return f"subring order {witness.subring_size} != {p.size}"
            self.subring_sizes.append(witness.subring_size)
            return None

        return Op(p.kind, p.key, run, check)

    def _iso_op(self, a, b):
        expected = a.signature == b.signature

        def run():
            return products.iso_test(a.pres, b.pres)

        def check(out):
            return None if out == expected else f"iso_test gave {out}, signatures say {expected}"

        return Op("iso", (a.key, b.key), run, check)

    def composition(self):
        sizes = sorted(self.subring_sizes)
        hist = {}
        for lo, hi, _ in BUCKETS:
            hist[f"{lo}-{hi}"] = sum(lo <= s <= hi for s in sizes)
        return {
            "subring_size_hist": hist,
            "subring_size_max": sizes[-1] if sizes else 0,
            "subring_size_mean": sum(sizes) / len(sizes) if sizes else 0,
            "repeated_input_share": self.repeated / max(1, self.decompositions),
            "iso_repeat_share": self.iso_repeated / max(1, self.iso_sides),
        }
