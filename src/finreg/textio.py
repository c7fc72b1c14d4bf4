"""Line-oriented textual grammar for every value the library trades in.

The printers live on the classes (__str__); this module holds the matching
parsers and the workspace (named bindings, one per line except map tables,
which carry their ring and a braced block of `x -> f(x)` lines).  Parsing is
strict about structure but tolerant about block order, and every diagnostic
carries the offending position.

    field          GF(4)            (also accepted: GF(2^2))
    boolean ring   B(atoms=3)
    ring           GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]
    atom set       []  [all]  [0,2,5]
    step element   {[1]->0; [0]->g}
    product elem   ({[all]->1} | {[0]->g; [1]->0})
    signature      sig{GF(2):3, GF(4):1}
    polynomial     poly[({[all]->0}); ({[all]->1})]
    map binding    map f @ GF(2)^[B(atoms=1)] = { ... lines ... }
"""

from __future__ import annotations

import re

from .boolean import BooleanRing, BoolElem
from .errors import ParseError
from .fields import GF, FiniteField
from .products import ProductElem, ProductRing, RingSignature
from .stepfun import StepElem, StepRing

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {v: k for k, v in _OPEN.items()}


def split_top_level(text: str, sep: str):
    """Split on a separator that is not nested inside (), [] or {}."""
    parts = []
    depth = 0
    start = 0
    i = 0
    n = len(text)
    w = len(sep)
    while i < n:
        c = text[i]
        if c in _OPEN:
            depth += 1
        elif c in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced {c!r}", text, i)
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += w
            start = i
            continue
        i += 1
    if depth != 0:
        raise ParseError("unbalanced brackets", text, n - 1)
    parts.append(text[start:])
    return parts


_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)$")
_FACTOR_RE = re.compile(r"^(GF\(\d+(?:\^\d+)?\))\^\[B\(atoms=(\d+)\)\]$")


def parse_field(text: str) -> FiniteField:
    s = text.strip()
    m = _FIELD_RE.match(s)
    if not m:
        raise ParseError(f"bad field {text!r}", text, 0)
    base = int(m.group(1))
    if m.group(2) is not None:
        from .fields import finite_field
        from .zmodpoly import is_prime

        if not is_prime(base):
            raise ParseError(f"{base} is not prime in {text!r}", text, 3)
        return finite_field(base, int(m.group(2)))
    try:
        return GF(base)
    except ValueError as exc:
        raise ParseError(str(exc), text, 3) from None


def parse_ring(text: str) -> ProductRing:
    factors = []
    for pos, chunk in enumerate(split_top_level(text.strip(), " x ")):
        m = _FACTOR_RE.match(chunk.strip())
        if not m:
            raise ParseError(f"bad ring factor {chunk!r}", text, 0)
        factors.append(StepRing(parse_field(m.group(1)), BooleanRing(int(m.group(2)))))
    return ProductRing(factors)


def parse_bool_elem(ring: BooleanRing, text: str) -> BoolElem:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"bad atom set {text!r}", text, 0)
    inner = s[1:-1].strip()
    if inner == "all":
        return ring.one
    if inner == "":
        return ring.zero
    atoms = []
    for piece in inner.split(","):
        piece = piece.strip()
        if not piece.isdigit():
            raise ParseError(f"bad atom index {piece!r}", text, s.find(piece))
        atoms.append(int(piece))
    if atoms != sorted(set(atoms)):
        raise ParseError("atom list must be strictly increasing", text, 1)
    if atoms and atoms[-1] >= ring.atom_count:
        raise ParseError(f"atom {atoms[-1]} out of range for {ring}", text, 1)
    return ring.subset(atoms)


def parse_step_elem(ring: StepRing, text: str) -> StepElem:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError(f"bad step element {text!r}", text, 0)
    pairs = []
    for chunk in split_top_level(s[1:-1], ";"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty block", text, 1)
        left, arrow, right = chunk.partition("->")
        if not arrow:
            raise ParseError(f"block {chunk!r} is missing '->'", text, s.find(chunk))
        part = parse_bool_elem(ring.bool_ring, left.strip())
        value = ring.field.parse_element(right.strip())
        pairs.append((part, value))
    values = [v.index for _, v in pairs]
    if len(set(values)) != len(values):
        raise ParseError("blocks must carry pairwise distinct values", text, 1)
    try:
        return ring.from_blocks(pairs)
    except ValueError as exc:
        raise ParseError(str(exc), text, 1) from None


def parse_product_elem(ring: ProductRing, text: str) -> ProductElem:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"bad product element {text!r}", text, 0)
    chunks = split_top_level(s[1:-1], " | ")
    if len(chunks) != len(ring.factors):
        raise ParseError(
            f"expected {len(ring.factors)} parts, got {len(chunks)}", text, 0)
    parts = [parse_step_elem(f, c.strip()) for f, c in zip(ring.factors, chunks)]
    return ring.element(parts)


def parse_element(ring: ProductRing, text: str) -> ProductElem:
    """Product-element syntax, a bare step element (single factor), a bare
    field element (single factor, scalar) or a plain integer (diagonal)."""
    s = text.strip()
    if s.startswith("("):
        return parse_product_elem(ring, s)
    if s.startswith("{"):
        if len(ring.factors) != 1:
            raise ParseError("bare step element needs a single-factor ring", text, 0)
        return ring.coerce(parse_step_elem(ring.factors[0], s))
    if re.fullmatch(r"-?\d+", s):
        return ring.scalar(int(s))
    if len(ring.factors) == 1:
        return ring.coerce(ring.factors[0].scalar(ring.factors[0].field.parse_element(s)))
    raise ParseError(f"cannot parse element {text!r} for {ring}", text, 0)


_SIG_RE = re.compile(r"^sig\{(.*)\}$")
_SIG_ENTRY_RE = re.compile(r"^GF\((\d+)\):(\d+)$")


def parse_signature(text: str) -> RingSignature:
    from .zmodpoly import prime_power

    m = _SIG_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad signature {text!r}", text, 0)
    entries = {}
    body = m.group(1).strip()
    if not body:
        raise ParseError("empty signature", text, 4)
    for chunk in body.split(","):
        e = _SIG_ENTRY_RE.match(chunk.strip())
        if not e:
            raise ParseError(f"bad signature entry {chunk!r}", text, text.find(chunk))
        pn = prime_power(int(e.group(1)))
        if pn is None:
            raise ParseError(f"{e.group(1)} is not a prime power", text, text.find(chunk))
        if pn in entries:
            raise ParseError(f"duplicate field GF({e.group(1)})", text, text.find(chunk))
        entries[pn] = int(e.group(2))
    return RingSignature.from_dict(entries)


def parse_polymap(ring: ProductRing, text: str) -> PolyMap:
    from .polymaps import PolyMap

    s = text.strip()
    if not (s.startswith("poly[") and s.endswith("]")):
        raise ParseError(f"bad polynomial {text!r}", text, 0)
    body = s[5:-1].strip()
    if not body:
        return PolyMap(ring, [])
    coeffs = [parse_element(ring, c.strip()) for c in split_top_level(body, ";")]
    return PolyMap(ring, coeffs)


def parse_map_lines(ring: ProductRing, lines) -> MapTable:
    from .polymaps import MapTable

    mapping = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        chunks = split_top_level(line, " -> ")
        if len(chunks) != 2:
            raise ParseError(f"map line {line!r} must be 'x -> f(x)'", line, 0)
        x = parse_element(ring, chunks[0].strip())
        y = parse_element(ring, chunks[1].strip())
        if x in mapping:
            raise ParseError(f"duplicate map entry for {chunks[0].strip()!r}", line, 0)
        mapping[x] = y
    return MapTable(ring, mapping)


# ---------------------------------------------------------------------------
# workspace


class Workspace:
    """Named bindings of rings, elements, maps, polynomials and signatures.

    The file grammar, one binding at a time:

        ring  NAME = GF(2)^[B(atoms=2)]
        elem  NAME @ RING = (...)
        poly  NAME @ RING = poly[...]
        sig   NAME = sig{...}
        map   NAME @ RING = {
        ELEM -> ELEM
        }
    """

    def __init__(self):
        self.bindings: dict = {}

    def bind(self, name: str, kind: str, value, ring=None):
        if name in self.bindings:
            raise ValueError(f"name {name!r} already bound")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"bad binding name {name!r}")
        self.bindings[name] = (kind, ring, value)

    def __getitem__(self, name):
        return self.bindings[name]

    def __contains__(self, name):
        return name in self.bindings

    def of_kind(self, kind):
        return [(n, r, v) for n, (k, r, v) in self.bindings.items() if k == kind]

    def dumps(self) -> str:
        out = []
        for name, (kind, ring, value) in self.bindings.items():
            if kind == "ring":
                out.append(f"ring {name} = {value}")
            elif kind == "sig":
                out.append(f"sig {name} = {value}")
            elif kind == "elem":
                out.append(f"elem {name} @ {ring} = {value}")
            elif kind == "poly":
                out.append(f"poly {name} @ {ring} = {value}")
            elif kind == "map":
                out.append(f"map {name} @ {ring} = {{")
                out.append(str(value))
                out.append("}")
            else:
                raise ValueError(f"unknown binding kind {kind!r}")
        return "\n".join(out) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Workspace":
        ws = cls()
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i].strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            head, sep, rhs = line.partition(" = ")
            if not sep:
                raise ParseError(f"bad workspace line {line!r} (missing ' = ')", line, 0)
            m = re.match(r"^(ring|elem|poly|sig|map)\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:@\s*(.*))?$", head)
            if not m:
                raise ParseError(f"bad workspace line {line!r}", line, 0)
            kind, name, ring_text = m.groups()
            rhs = rhs.strip()
            if kind == "ring":
                ws.bind(name, "ring", parse_ring(rhs))
            elif kind == "sig":
                ws.bind(name, "sig", parse_signature(rhs))
            elif kind in ("elem", "poly"):
                if not ring_text:
                    raise ParseError(f"{kind} binding needs '@ RING'", line, 0)
                ring = parse_ring(ring_text)
                value = parse_polymap(ring, rhs) if kind == "poly" else parse_element(ring, rhs)
                ws.bind(name, kind, value, ring)
            else:  # map
                if not ring_text:
                    raise ParseError("map binding needs '@ RING'", line, 0)
                if rhs.strip() != "{":
                    raise ParseError("map binding must open a '{' block", line, 0)
                ring = parse_ring(ring_text)
                block = []
                while i < len(lines) and lines[i].strip() != "}":
                    block.append(lines[i])
                    i += 1
                if i == len(lines):
                    raise ParseError("unterminated map block", line, 0)
                i += 1
                ws.bind(name, "map", parse_map_lines(ring, block), ring)
        return ws

    @classmethod
    def load(cls, path) -> "Workspace":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())
