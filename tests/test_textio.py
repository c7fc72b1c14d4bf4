import random

import pytest

from finreg.errors import ParseError
from finreg.fields import GF
from finreg.polymaps import MapTable, random_polymap
from finreg.products import full_presentation, structure_decompose
from finreg import textio as tio


def test_split_top_level():
    assert tio.split_top_level("a; b; c", ";") == ["a", " b", " c"]
    assert tio.split_top_level("{x;y}; z", ";") == ["{x;y}", " z"]
    assert tio.split_top_level("(a | b) | c", " | ") == ["(a | b)", "c"]
    with pytest.raises(ParseError):
        tio.split_top_level("{a; b", ";")


def test_parse_field_forms():
    assert tio.parse_field("GF(4)").n == 2
    assert tio.parse_field("GF(2^2)") == tio.parse_field("GF(4)")
    assert tio.parse_field("GF(7)").p == 7
    with pytest.raises(ParseError):
        tio.parse_field("GF(6)")
    with pytest.raises(ParseError):
        tio.parse_field("GF(4^2)")  # base must be prime in caret form


def test_parse_ring_roundtrip():
    for text in ("GF(2)^[B(atoms=3)]",
                 "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]",
                 "GF(9)^[B(atoms=1)] x GF(3)^[B(atoms=4)]"):
        ring = tio.parse_ring(text)
        assert str(ring) == text
        assert tio.parse_ring(str(ring)) == ring
    with pytest.raises(ParseError):
        tio.parse_ring("GF(2)^[B(atoms=0)]" .replace("0", "x"))


def test_element_roundtrip_fuzz():
    rng = random.Random(31)
    rings = [tio.parse_ring(s) for s in (
        "GF(2)^[B(atoms=4)]", "GF(3)^[B(atoms=2)]",
        "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]",
        "GF(25)^[B(atoms=2)]")]
    for _ in range(2000):
        ring = rng.choice(rings)
        x = ring.random_element(rng)
        assert tio.parse_element(ring, str(x)) == x


def test_parse_element_conveniences():
    ring = tio.parse_ring("GF(4)^[B(atoms=2)]")
    assert tio.parse_element(ring, "0") == ring.zero
    assert tio.parse_element(ring, "g") == ring.coerce(ring.factors[0].scalar(GF(4).generator))
    assert tio.parse_element(ring, "{[all]->g}") == tio.parse_element(ring, "g")
    two = tio.parse_ring("GF(2)^[B(atoms=1)] x GF(2)^[B(atoms=1)]")
    assert tio.parse_element(two, "1") == two.one
    with pytest.raises(ParseError):
        tio.parse_element(two, "{[all]->1}")  # bare step elem needs one factor


def test_parse_step_elem_strictness():
    ring = tio.parse_ring("GF(3)^[B(atoms=2)]").factors[0]
    with pytest.raises(ParseError):
        tio.parse_step_elem(ring, "{[0]->1}")  # not a partition
    with pytest.raises(ParseError):
        tio.parse_step_elem(ring, "{[0]->1; [1]->1}")  # duplicate values
    with pytest.raises(ParseError):
        tio.parse_step_elem(ring, "{[1,0]->1; []->0}")  # unsorted atoms


def test_polymap_and_signature_roundtrip():
    rng = random.Random(41)
    ring = tio.parse_ring("GF(4)^[B(atoms=1)] x GF(3)^[B(atoms=2)]")
    for _ in range(50):
        p = random_polymap(ring, rng)
        assert tio.parse_polymap(ring, str(p)) == p
    assert str(tio.parse_polymap(ring, "poly[]")) == "poly[]"
    sig, _ = structure_decompose(full_presentation(ring))
    assert tio.parse_signature(str(sig)) == sig
    with pytest.raises(ParseError):
        tio.parse_signature("sig{GF(6):1}")


def test_map_lines_roundtrip():
    ring = tio.parse_ring("GF(2)^[B(atoms=2)]")
    table = MapTable.from_function(ring, lambda x: x * x)
    text = str(table)
    again = tio.parse_map_lines(ring, text.splitlines())
    assert again == table
    with pytest.raises(ParseError):
        tio.parse_map_lines(ring, ["nonsense"])


def test_map_lines_duplicate_key():
    ring = tio.parse_ring("GF(2)^[B(atoms=2)]")
    lines = str(MapTable.from_function(ring, lambda x: x)).splitlines()
    with pytest.raises(ParseError, match="duplicate map entry"):
        tio.parse_map_lines(ring, lines + lines[:1])


def test_workspace_roundtrip():
    rng = random.Random(51)
    ring = tio.parse_ring("GF(4)^[B(atoms=1)] x GF(2)^[B(atoms=1)]")
    small = tio.parse_ring("GF(3)^[B(atoms=1)]")
    ws = tio.Workspace()
    ws.bind("amb", "ring", ring)
    ws.bind("x", "elem", ring.random_element(rng), ring)
    ws.bind("p", "poly", random_polymap(ring, rng), ring)
    ws.bind("sq", "map", MapTable.from_function(small, lambda v: v * v), small)
    sig, _ = structure_decompose(full_presentation(ring))
    ws.bind("s", "sig", sig)
    text = ws.dumps()
    ws2 = tio.Workspace.loads(text)
    assert ws2.dumps() == text
    for name in ("amb", "x", "p", "sq", "s"):
        assert ws2[name] == ws[name]


def test_workspace_errors():
    with pytest.raises(ParseError):
        tio.Workspace.loads("elem x = {[all]->1}\n")  # missing ring
    with pytest.raises(ParseError):
        tio.Workspace.loads("map f @ GF(2)^[B(atoms=1)] = {\n0 -> 1\n")  # unterminated
    ws = tio.Workspace()
    ws.bind("a", "ring", tio.parse_ring("GF(2)^[B(atoms=1)]"))
    with pytest.raises(ValueError):
        ws.bind("a", "ring", tio.parse_ring("GF(2)^[B(atoms=1)]"))
