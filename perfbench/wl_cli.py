"""Workload `cli`: fresh `python -m finreg.cli` processes, as a user runs them.

One operation is one process.  A cycle runs a fixed mix of command classes
(the counts below); the seed chooses, for every slot, one variant from the
class's pool and the order of the cycle.  Variants, and the workspace files
that map commands read, are generated from fixed per-variant seeds, so every
variant has one recorded outcome in `cli_golden.json`: the expected exit code
and the SHA-256 of the expected standard output.  Malformed inputs expect
exit 2.  Re-record after an intended output change with

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from finreg import polymaps, textio

import rings
from harness import HERE, ROOT, WORK, Digest, Op, run_child
from wl_maps import perturb, scalar_gens

GOLDEN = HERE / "cli_golden.json"
WS_DIR = WORK / "ws"
KNOWN_DEFECTS = {
    "malformed/5": "duplicate map key: textio.parse_map_lines raises NameError, exit 1",
}


def _ring(rng, max_size, max_factors=2):
    return rng.choice(rings.shapes(max_size, max_factors=max_factors))


def _elem_text(ring, rng):
    return str(ring.random_element(rng))


def _map_ws(shape, rng, perturbed=False, name="f"):
    ring = rings.make_ring(shape)
    table = polymaps.random_polymap(ring, rng).induced_table()
    if perturbed:
        table = perturb(table, rng)
    ws = textio.Workspace()
    ws.bind(name, "map", table, ring)
    return ws.dumps()


def ring_new(rng, v):
    return ["ring", "new", rings.ring_text(_ring(rng, 256))], None


def ring_char(rng, v):
    return ["ring", "check", rings.ring_text(_ring(rng, 256, 3)), "char"], None


def ring_quotients(rng, v):
    return ["ring", "check", rings.ring_text(_ring(rng, 256, 3)), "quotients"], None


def ring_cfg(rng, v):
    shape = _ring(rng, 81)
    ring = rings.make_ring(shape)
    if v % 2:
        gens = ",".join(_elem_text(ring, rng) for _ in range(rng.randint(1, 3)))
    else:                                   # the field scalars cover every residue
        gens = ",".join(str(g) for g in scalar_gens(ring))
    return ["ring", "check", rings.ring_text(shape), "cfg", "--gens", gens], None


def ring_decompose(rng, v, max_size=32):
    shape = _ring(rng, max_size, 3)
    argv = ["ring", "decompose", rings.ring_text(shape)]
    if v % 2:
        ring = rings.make_ring(shape)
        argv += ["--gens", ",".join(_elem_text(ring, rng) for _ in range(rng.randint(1, 2)))]
    return argv, None


def ring_decompose_mid(rng, v):
    return ring_decompose(rng, 1, max_size=128)


def ring_iso(rng, v):
    a = _ring(rng, 64, 3)
    b = tuple(reversed(a)) if v % 2 else _ring(rng, 64, 3)
    return ["ring", "iso", rings.ring_text(a), rings.ring_text(b)], None


def map_check(what):
    def build(rng, v):
        perturbed = v % 2 == 1
        min_atoms = 2 if perturbed or what == "conv" else 1
        shape = rng.choice([s for s in rings.shapes(16 if what != "conv" else 9, max_atoms=4)
                            if min_atoms <= sum(m for _, m in s) <= (2 if what == "conv" else 8)])
        ws = _map_ws(shape, rng, perturbed=perturbed)
        return ["map", "check", "{ws}", what], ws
    return build


def map_topoly(rng, v, max_size=16, min_size=1):
    shape = rng.choice([s for s in rings.shapes(max_size, max_atoms=4)
                        if rings.shape_size(s) >= min_size])
    return ["map", "topoly", "{ws}"], _map_ws(shape, rng)


def map_topoly_large(rng, v):
    return map_topoly(rng, v, max_size=81, min_size=49)


def map_orbit(rng, v):
    shape = rng.choice(rings.shapes(16, max_atoms=4))
    gens = ",".join(str(g) for g in scalar_gens(rings.make_ring(shape)))
    return ["map", "orbit", "{ws}", "--gens", gens], _map_ws(shape, rng)


def vraciu(rng, v):
    orders = rng.choice(((2, 4, 8, 16), (3, 9, 27), (5, 25), (7, 49)))   # one characteristic
    fields = [f"GF({rng.choice(orders)})" for _ in range(rng.randint(1, 4))]
    return ["demo", "vraciu", "--fields", ",".join(fields)], None


def vraciu_large(rng, v):
    big, small = (("GF(256)", (2, 4, 16)), ("GF(243)", (3, 9)))[v % 2]
    return ["demo", "vraciu", "--fields", f"{big},GF({rng.choice(small)})"], None


def gf4_kernel(rng, v):
    return ["demo", "gf4-kernel"], None


def gf4_sequence(rng, v):
    n, k = ((2, 1), (3, 1), (3, 2), (4, 1))[v]
    return ["demo", "gf4-sequence", "--n", str(n), "--k", str(k)], None


def large_field(rng, v):
    return [("ring", "new", "GF(4096)^[B(atoms=1)]"),
            ("ring", "check", "GF(4096)^[B(atoms=2)]", "quotients"),
            ("ring", "check", "GF(4096)^[B(atoms=1)]", "char"),
            ("ring", "new", "GF(65536)^[B(atoms=1)]")][v], None


def gf256(rng, v):
    return [("ring", "new", "GF(256)^[B(atoms=1)]"),
            ("ring", "check", "GF(256)^[B(atoms=1)]", "quotients"),
            ("ring", "check", "GF(256)^[B(atoms=2)]", "char")][v], None


def gf243(rng, v):
    return [("ring", "new", "GF(243)^[B(atoms=1)]"),
            ("ring", "check", "GF(243)^[B(atoms=2)]", "quotients")][v], None


def tower3(rng, v):
    return ["--seed", str(v + 1), "demo", "tower", "--q", "2", "--n", "3"], None


def tower4(rng, v):
    return ["--seed", str(v + 1), "demo", "tower", "--q", "2", "--n", "4", "--samples", "10"], None


def selftest(rng, v):
    return ["selftest"], None


def malformed(rng, v):
    good = _map_ws(((2, 2),), random.Random("cli:malformed-ws"))
    lines = good.splitlines()
    if v == 0:
        return ["ring", "new", "GF(6)^[B(atoms=1)]"], None
    if v == 1:
        return ["ring", "new", "GF(4)^[B(atoms=x)]"], None
    if v == 2:
        return ["ring", "check", "GF(3)^[B(atoms=2)]", "cfg", "--gens", "({[0]->5})"], None
    if v == 3:
        return ["map", "topoly", "{ws}"], "\n".join(lines[:-1]) + "\n"       # unterminated block
    if v == 4:
        return ["map", "check", os.path.join("perfbench", ".work", "ws", "absent.ws"),
                "contractive"], None
    dup = lines[:2] + [lines[1]] + lines[2:]                                  # duplicate map key
    return ["map", "topoly", "{ws}"], "\n".join(dup) + "\n"


# class -> (builder, variants in the pool, operations per cycle, latency class)
CLASSES = {
    "ring-new": (ring_new, 12, 10, "light"),
    "ring-char": (ring_char, 8, 5, "light"),
    "ring-quotients": (ring_quotients, 8, 5, "light"),
    "ring-cfg": (ring_cfg, 10, 6, "light"),
    "ring-decompose": (ring_decompose, 10, 8, "light"),
    "ring-iso": (ring_iso, 10, 6, "light"),
    "map-contractive": (map_check("contractive"), 8, 6, "light"),
    "map-conv": (map_check("conv"), 6, 3, "light"),
    "map-polynomial": (map_check("polynomial"), 8, 4, "light"),
    "map-topoly": (map_topoly, 8, 5, "light"),
    "map-orbit": (map_orbit, 8, 5, "light"),
    "demo-vraciu": (vraciu, 8, 4, "light"),
    "demo-gf4-kernel": (gf4_kernel, 1, 2, "light"),
    "demo-gf4-sequence": (gf4_sequence, 4, 3, "light"),
    "large-field": (large_field, 4, 4, "light"),
    "malformed": (malformed, 6, 6, "light"),
    "gf256": (gf256, 3, 4, "medium"),
    "gf243": (gf243, 2, 7, "medium"),      # like-costed commands around the 90th percentile
    "ring-decompose-mid": (ring_decompose_mid, 6, 3, "medium"),
    "map-topoly-large": (map_topoly_large, 4, 2, "medium"),
    "demo-vraciu-large": (vraciu_large, 4, 2, "medium"),
    "demo-tower-3": (tower3, 4, 2, "medium"),
    "demo-tower-4": (tower4, 2, 1, "heavy"),
    "selftest": (selftest, 1, 1, "heavy"),
}


def catalog():
    """variant id -> (argv with '{ws}' placeholders, workspace text or None)."""
    out = {}
    for cls, (build, pool, _, _) in CLASSES.items():
        for v in range(pool):
            argv, ws = build(random.Random(f"cli:{cls}:{v}"), v)
            out[f"{cls}/{v}"] = (list(argv), ws)
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def write_workspaces(cat):
    """Write every workspace file; returns variant id -> argv with real paths."""
    WS_DIR.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for vid, (argv, ws) in cat.items():
        path = os.path.relpath(WS_DIR / (vid.replace("/", "-") + ".ws"), ROOT)
        if ws is not None:
            with open(ROOT / path, "w", encoding="utf-8") as fh:
                fh.write(ws)
        argvs[vid] = [path if a == "{ws}" else a for a in argv]
    return argvs


def cycle(seed, index):
    """The variant ids of one cycle, in the order they run."""
    rng = random.Random(f"cli:{seed}:{index}")
    slots = []
    for cls, (_, pool, count, _) in CLASSES.items():
        if cls == "malformed":
            slots += [f"{cls}/{v}" for v in range(count)]     # every malformed case, every cycle
        else:
            slots += [f"{cls}/{rng.randrange(pool)}" for _ in range(count)]
    rng.shuffle(slots)
    return slots


class Workload:
    name = "cli"

    def __init__(self, seed, tracer=None):
        """`tracer` makes every process a traced child whose spans are merged into it."""
        self.seed = seed
        self.tracer = tracer
        self.digest = Digest()
        cat = catalog()
        self.argvs = write_workspaces(cat)
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        for vid, (_, ws) in cat.items():
            if ws is not None and _sha(ws.encode()) != self.golden[vid].get("workspace_sha256"):
                raise RuntimeError(f"generated workspace for {vid} differs from the recorded one")
        self.spawn_ns = []

    def make_pass(self, index):
        ops = []
        for vid in cycle(self.seed, index):
            ops.append(self._op(vid))
            self.digest.add(vid, *self.argvs[vid])
        return ops

    def _op(self, vid):
        argv = self.argvs[vid]
        expected = self.golden[vid]

        def run():
            if self.tracer is None:
                rc, out, _ = run_child(["-m", "finreg.cli", *argv])
                return rc, out
            return self._traced(argv)

        def check(out):
            rc, stdout = out
            if rc != expected["exit"]:
                return f"exit {rc}, expected {expected['exit']}"
            if _sha(stdout) != expected["stdout_sha256"]:
                return "stdout differs from the recorded digest"
            return None

        return Op(vid.split("/")[0], vid, run, check)

    def _traced(self, argv):
        spans_path = WORK / "child-spans.json"
        rc, out, wall = run_child([str(HERE / "tracechild.py"), str(spans_path), "cli", *argv])
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(spans_path)
        self.tracer.merge(child)
        main_ns = sum(s[2] - s[1] for s in child if s[0] == "cli.main")
        self.spawn_ns.append(wall - main_ns)
        return rc, out

    def composition(self):
        return {"known_defects": KNOWN_DEFECTS,
                "latency_classes": {c: v[3] for c, v in CLASSES.items()}}


def record():
    """Run every variant once and write cli_golden.json."""
    cat = catalog()
    argvs = write_workspaces(cat)
    golden = {}
    for vid, (_, ws) in cat.items():
        rc, out, _ = run_child(["-m", "finreg.cli", *argvs[vid]])
        cls = vid.split("/")[0]
        expected = 2 if cls == "malformed" else rc
        if cls != "malformed" and rc not in (0, 1):
            raise SystemExit(f"{vid}: exit {rc} from {argvs[vid]}")
        if cls == "malformed" and rc != 2 and vid not in KNOWN_DEFECTS:
            raise SystemExit(f"{vid}: malformed input gave exit {rc}")
        golden[vid] = {"exit": expected, "stdout_sha256": _sha(out)}
        if ws is not None:
            golden[vid]["workspace_sha256"] = _sha(ws.encode())
        print(f"{vid:<28} exit {rc} (expected {expected})", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")

