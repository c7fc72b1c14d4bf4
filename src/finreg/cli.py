"""Command-line front end.

Exit codes: 0 the command succeeded and every checked property holds;
1 a checked property fails (a witness is printed); 2 malformed input;
3 a configured cap was exceeded; 4 an internal check failed (a bug: report
it).  Output is deterministic for identical inputs; all sampling flows from
--seed.

A process loads only the modules its command runs: the parser needs the
ring layers for its cap defaults, and each command imports the rest.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from .errors import CapExceeded, ParseError
from .boolean import ATOM_CAP, BooleanRing
from .products import (SUBRING_CAP, ProductRing, SubringPresentation, char_decompose,
                       check_residue_cover, full_presentation, structure_decompose,
                       subring_cap_exceeded)
from .stepfun import PRODUCT_CHECK_CAP, size_text

# the default of `map orbit --cap`, polymaps.ORBIT_CAP (a test keeps them equal);
# the parser does not import polymaps for it
ORBIT_CAP = 100_000


def _parse_gens(ring: ProductRing, text: str | None):
    if text is None:
        return None
    from . import textio as tio

    chunks = (chunk.strip() for chunk in tio.split_top_level(text, ","))
    return [tio.parse_element(ring, g) for g in chunks if g]


def _load_ring(args, text: str) -> ProductRing:
    from . import textio as tio

    ring = tio.parse_ring(text)
    for f in ring.factors:
        if f.bool_ring.atom_count > args.atom_cap:
            raise CapExceeded(
                f"factor {f} exceeds the atom cap {args.atom_cap}")
    return ring


def _load_map(args, path: str):
    from . import textio as tio

    ws = tio.Workspace.load(path)
    maps = ws.of_kind("map")
    if args.name:
        for name, ring, table in maps:
            if name == args.name:
                return name, ring, table
        raise ParseError(f"no map named {args.name!r} in {path}")
    if len(maps) != 1:
        raise ParseError(f"{path} holds {len(maps)} map bindings; use --name")
    return maps[0]


def _presentation(args, ring: ProductRing, gens_text: str | None) -> SubringPresentation:
    gens = _parse_gens(ring, gens_text)
    if gens is None:
        # every factor's scalars generate the product of the fields; refuse it
        # before building one generator per field element
        if math.prod(f.field.q for f in ring.factors) > args.subring_cap:
            raise subring_cap_exceeded(args.subring_cap)
        return full_presentation(ring)
    return SubringPresentation(ring, tuple(gens))


def _summary(lines):
    print("---SUMMARY---")
    for line in lines:
        print(line)


# -- ring commands -----------------------------------------------------------


def cmd_ring_new(args):
    ring = _load_ring(args, args.spec)
    print(f"ring {ring}")
    print(f"factors {len(ring.factors)}")
    print(f"atoms {ring.total_atoms}")
    size = size_text(ring.factors)
    print(f"size {size}")
    print(f"char {ring.char}")
    _summary([f"ring {ring}", f"size {size}", f"char {ring.char}"])
    return 0


def cmd_ring_decompose(args):
    ring = _load_ring(args, args.ring)
    pres = _presentation(args, ring, args.gens)
    sig, witness = structure_decompose(pres, cap=args.subring_cap)
    print(f"ring {ring}")
    print(f"generated subring size {witness.subring_size}")
    for blk in witness.blocks:
        masks = ", ".join(str(ring.factors[i].bool_ring.from_mask(m))
                          for i, m in enumerate(blk.atom_masks))
        print(f"block field={blk.field} atoms={blk.atom_total} support=({masks})")
    print(f"signature {sig}")
    _summary([f"signature {sig}", f"subring-size {witness.subring_size}",
              f"blocks {len(witness.blocks)}"])
    return 0


def cmd_ring_check(args):
    ring = _load_ring(args, args.ring)
    if args.what == "quotients":
        lines = []
        for label in ring.prime_labels():
            field = ring.quotient_field(label)
            print(f"prime (factor={label[0]}, atom={label[1]}) -> {field}")
            lines.append(f"quotient {label[0]}:{label[1]} {field}")
        _summary(lines)
        return 0
    if args.what == "char":
        print(f"char {ring.char}")
        blocks = char_decompose(ring)
        for b in blocks:
            print(f"block prime={b.prime} factors={list(b.factor_indices)} "
                  f"idempotent={b.idempotent}")
        _summary([f"char {ring.char}"] +
                 [f"block {b.prime} factors {len(b.factor_indices)}" for b in blocks])
        return 0
    # cfg: residue-cover witness check
    gens = _parse_gens(ring, args.gens)
    if gens is None:
        raise ParseError("ring check cfg needs --gens")
    rng = random.Random(args.seed)
    rep = check_residue_cover(ring, gens, product_cap=args.table_cap, rng=rng)
    mode = "exhaustive" if rep.product_exhaustive else "sampled"
    print(f"residue cover {'holds' if rep.ok else 'fails'}")
    print(f"vanishing product {'holds' if rep.product_ok else 'fails'} "
          f"({mode}, {rep.product_checked} elements)")
    for miss in rep.missing[:12]:
        print(f"missing factor={miss[0]} atom={miss[1]} value={miss[2]}")
    _summary([f"cover {'pass' if rep.ok else 'fail'}",
              f"product {'pass' if rep.product_ok else 'fail'} {mode}"])
    return 0 if rep.ok else 1


def cmd_ring_iso(args):
    r1 = _load_ring(args, args.ring1)
    r2 = _load_ring(args, args.ring2)
    p1 = _presentation(args, r1, args.gens1)
    p2 = _presentation(args, r2, args.gens2)
    s1, _ = structure_decompose(p1, cap=args.subring_cap)
    s2, _ = structure_decompose(p2, cap=args.subring_cap)
    same = s1 == s2
    print(f"left  {s1}")
    print(f"right {s2}")
    print("isomorphic" if same else "not isomorphic")
    _summary([f"left {s1}", f"right {s2}", f"iso {'yes' if same else 'no'}"])
    return 0 if same else 1


# -- map commands -------------------------------------------------------------


def cmd_map_check(args):
    from .polymaps import commutes_with_conv, is_contractive, is_polynomial

    name, ring, table = _load_map(args, args.map)
    if args.what == "contractive":
        ok, witness = is_contractive(table)
        print(f"map {name} is {'contractive' if ok else 'not contractive'}")
        if witness:
            print(f"witness x = {witness[0]}")
            print(f"witness y = {witness[1]}")
        _summary([f"contractive {'pass' if ok else 'fail'}"])
        return 0 if ok else 1
    if args.what == "conv":
        ok, witness = commutes_with_conv(table)
        print(f"map {name} {'commutes' if ok else 'does not commute'} with convex combinations")
        if witness:
            coeffs, values = witness
            print(f"witness coefficients = {[str(c) for c in coeffs]}")
            print(f"witness values = {[str(v) for v in values]}")
        _summary([f"conv {'pass' if ok else 'fail'}"])
        return 0 if ok else 1
    ok, poly = is_polynomial(table)
    if ok:
        print(f"map {name} is polynomial")
        print(f"witness {poly}")
    else:
        _, witness = is_contractive(table)
        print(f"map {name} is not polynomial (not contractive)")
        if witness:
            print(f"witness x = {witness[0]}")
            print(f"witness y = {witness[1]}")
    _summary([f"polynomial {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


def cmd_map_topoly(args):
    from .polymaps import contractive_to_polynomial, is_contractive

    name, ring, table = _load_map(args, args.map)
    ok, witness = is_contractive(table)
    if not ok:
        print(f"map {name} is not contractive; no polynomial exists")
        print(f"witness x = {witness[0]}")
        print(f"witness y = {witness[1]}")
        _summary(["topoly fail"])
        return 1
    poly = contractive_to_polynomial(table)
    print(f"map {name} on {ring}")
    print(str(poly))
    _summary([f"degree {poly.degree}"])
    return 0


def cmd_map_orbit(args):
    from .polymaps import iteration_orbit

    name, ring, table = _load_map(args, args.map)
    gens = _parse_gens(ring, args.gens)
    cert = iteration_orbit(table, gens=gens, cap=args.cap)
    print(f"map {name}: orbit size {cert.orbit_size} (tail {cert.tail}, period {cert.period})")
    if cert.boolean_subring_size is not None:
        print(f"coefficient matrices over a Boolean subring of size {cert.boolean_subring_size}")
        print(f"methods agree: {cert.methods_agree}")
    _summary([f"orbit {cert.orbit_size}", f"tail {cert.tail}", f"period {cert.period}",
              f"agree {'yes' if cert.methods_agree else 'no'}"])
    return 0


# -- demos ---------------------------------------------------------------------


def cmd_demo_vraciu(args):
    from . import textio as tio
    from .gallery import FieldAssignment, vraciu_build

    fields = [tio.parse_field(t.strip()) for t in args.fields.split(",") if t.strip()]
    fa = FieldAssignment(BooleanRing(len(fields)), tuple(fields))
    rep = vraciu_build(fa)
    print(f"realized ring {rep.ring}")
    for j, label in enumerate(rep.atom_map):
        print(f"atom {j} -> factor {label[0]}, atom {label[1]}: quotient {rep.ring.quotient_field(label)}")
    print(f"signature {rep.signature}")
    print(f"atom count matches: {rep.atom_count_ok}; quotients match: {rep.quotients_ok}")
    _summary([f"signature {rep.signature}",
              f"atoms {'pass' if rep.atom_count_ok else 'fail'}",
              f"quotients {'pass' if rep.quotients_ok else 'fail'}"])
    return 0 if rep.ok else 1


def cmd_demo_tower(args):
    from .gallery import tower_build, tower_verify

    tr = tower_build(args.q, args.n)
    rng = random.Random(args.seed)
    rep = tower_verify(tr, rng=rng, member_samples=args.samples)
    print(tr)
    print(f"quotient sizes {list(rep.quotient_sizes)} (max {rep.max_quotient})")
    mode = "exhaustive" if rep.closure_exhaustive else "sampled"
    print(f"closure under +,*,- : {'holds' if rep.closure_ok else 'fails'} "
          f"({mode}, {rep.closure_checked} pairs)")
    print(f"quotient fields verified: {rep.quotients_ok}")
    print(f"membership formulations agreed on {rep.membership_agree_checked} samples")
    _summary([f"quotients {'-'.join(str(s) for s in rep.quotient_sizes)}",
              f"closure {'pass' if rep.closure_ok else 'fail'} {mode}",
              f"max-quotient {rep.max_quotient}"])
    return 0 if rep.ok else 1


def cmd_demo_gf4_kernel(args):
    from .gallery import gf4_kernel_check

    rep = gf4_kernel_check()
    print(f"t(t+1)(t^2+t+1) = 0 on all of GF(4): {rep.relation_ok}")
    hv = ", ".join(str(v) for v in rep.h_values)
    print(f"h(t) = t(t+1)(t+g) values on (0, 1, g, g+1): ({hv})")
    rejected = sum(1 for _, m in rep.candidates if m >= 1)
    print(f"{rejected}/16 polynomials with coefficients in {{0,1}} fail to induce h:")
    for bits, mism in rep.candidates:
        print(f"  coeffs {bits}: {mism} mismatches")
    _summary([f"relation {'pass' if rep.relation_ok else 'fail'}",
              f"h-table {'pass' if rep.h_table_ok else 'fail'}",
              f"rejected {rejected}/16"])
    return 0 if rep.ok else 1


def cmd_demo_gf4_sequence(args):
    from .gallery import gf4_sequence_demo

    rep = gf4_sequence_demo(args.n, args.k)
    print(f"truncated sequence ring {rep.ring}")
    print(f"quotient sizes {list(rep.quotient_sizes)} (all <= 4: {rep.quotient_bound_ok})")
    print(f"f(x) = x(x+1)(x+c) stays in the ring: {rep.preserves_ring}")
    print(f"f is contractive: {rep.contractive}")
    if rep.witness is not None:
        print(f"polynomial witness (degree {rep.witness.degree}) matches the table: "
              f"{rep.witness_matches}")
    print(f"note: {rep.note}")
    _summary([f"bound {'pass' if rep.quotient_bound_ok else 'fail'}",
              f"contractive {'pass' if rep.contractive else 'fail'}",
              f"witness {'pass' if rep.witness_matches else 'fail'}"])
    return 0 if rep.ok else 1


def cmd_selftest(args):
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed)
    return 0 if ok else 1


# -- wiring ----------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="finreg",
                                  description="exact algebra of regular rings with finite quotient fields")
    top.add_argument("--seed", type=int, default=20240801, help="seed for all sampling")
    top.add_argument("--table-cap", type=int, default=PRODUCT_CHECK_CAP, dest="table_cap",
                     help="largest ring on which `ring check cfg` checks the vanishing "
                          "product exhaustively; larger rings are sampled")
    top.add_argument("--atom-cap", type=int, default=ATOM_CAP, dest="atom_cap",
                     help="largest Boolean atom universe accepted")
    top.add_argument("--subring-cap", type=int, default=SUBRING_CAP, dest="subring_cap",
                     help="largest generated subring saturated")
    sub = top.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="construct and analyse rings").add_subparsers(
        dest="ring_cmd", required=True)
    p = ring.add_parser("new", help="parse and summarize a ring")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_ring_new)
    p = ring.add_parser("decompose", help="canonical decomposition of a presented ring")
    p.add_argument("ring")
    p.add_argument("--gens", default=None, help="generators, comma separated")
    p.set_defaults(fn=cmd_ring_decompose)
    p = ring.add_parser("check", help="check a ring property")
    p.add_argument("ring")
    p.add_argument("what", choices=("cfg", "char", "quotients"))
    p.add_argument("--gens", default=None)
    p.set_defaults(fn=cmd_ring_check)
    p = ring.add_parser("iso", help="decide isomorphism of two presented rings")
    p.add_argument("ring1")
    p.add_argument("ring2")
    p.add_argument("--gens1", default=None)
    p.add_argument("--gens2", default=None)
    p.set_defaults(fn=cmd_ring_iso)

    mp = sub.add_parser("map", help="analyse self-maps").add_subparsers(
        dest="map_cmd", required=True)
    p = mp.add_parser("check", help="check a map property")
    p.add_argument("map", help="workspace file holding the map binding")
    p.add_argument("what", choices=("contractive", "conv", "polynomial"))
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_map_check)
    p = mp.add_parser("topoly", help="interpolate a contractive map into a polynomial")
    p.add_argument("map")
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_map_topoly)
    p = mp.add_parser("orbit", help="orbit size of the iterates")
    p.add_argument("map")
    p.add_argument("--gens", default=None)
    p.add_argument("--cap", type=int, default=ORBIT_CAP)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_map_orbit)

    demo = sub.add_parser("demo", help="landmark constructions").add_subparsers(
        dest="demo_cmd", required=True)
    p = demo.add_parser("vraciu", help="realize a residue-field assignment")
    p.add_argument("--fields", required=True, help="comma-separated fields, one per atom")
    p.set_defaults(fn=cmd_demo_vraciu)
    p = demo.add_parser("tower", help="tower ring with finite, unbounded quotients")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(fn=cmd_demo_tower)
    p = demo.add_parser("gf4-kernel", help="the order-4 field obstruction")
    p.set_defaults(fn=cmd_demo_gf4_kernel)
    p = demo.add_parser("gf4-sequence", help="finite truncations of the bounded sequence ring")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_demo_gf4_sequence)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a VerificationError or any other defect
        detail = " ".join(str(exc).split())
        command = " ".join(sys.argv[1:] if argv is None else argv)
        print(f"internal check failed, report as bug: {type(exc).__name__}: {detail} "
              f"(command: finreg {command})", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
