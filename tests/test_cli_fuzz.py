"""Seeded fuzzing of the CLI exit-code contract.

Valid ring texts, element texts, map workspace files, `demo` option values
and signature texts are mutated by truncation, duplicated or swapped lines,
spliced random bytes and replaced numbers, and every mutant runs in-process
through `cli.main`.  The contract on any input: the exit code is 0, 1, 2 or
3, stderr carries no traceback, and a second run prints the same stdout.
Ring texts whose field order, prime or degree is a long run of digits check
that primality stays bounded and that no command enumerates such a field:
it is built, rejected (exit 2) or refused at a cap (exit 3).
"""

import random
import re

import pytest

from finreg import textio as tio
from finreg.cli import main
from finreg.errors import CapExceeded
from finreg.polymaps import MapTable, random_polymap
from finreg.products import ring_from_signature
from finreg.zmodpoly import is_prime

SEED = 20261018
CASES = 200
LONG_DIGIT_CASES = 80
DEMO_CASES = 60
SIGNATURE_CASES = 120
# the caps that keep `ring decompose` and `ring check cfg` from enumerating a field
REFUSALS = ("generated subring exceeds 256 elements", "cannot list the values of GF(")
# small caps keep every mutant fast: a grown ring exits 3 instead of enumerating
CAPS = ["--atom-cap", "8", "--table-cap", "256", "--subring-cap", "256"]

RING_TEXTS = [
    "GF(2)^[B(atoms=3)]",
    "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]",
    "GF(3)^[B(atoms=1)] x GF(9)^[B(atoms=1)]",
    "GF(2^2)^[B(atoms=2)]",
]
ELEM_RING = "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]"
ELEM_TEXTS = [
    "({[0]->1; [1]->g} | {[all]->0}),1",
    "({[all]->g+1} | {[0]->1}),0,1",
    "({[]->0; [all]->1} | {[all]->1})",
]
SPLICE_CHARS = "()[]{}|;,->=^x@ 0123456789gGFBatoms\n\t\\\"'#"


def _map_workspace(ring_text, seed, perturb):
    ring = tio.parse_ring(ring_text)
    rng = random.Random(seed)
    mapping = dict(random_polymap(ring, rng).induced_table().mapping)
    if perturb:
        x = rng.choice(ring.cached_elements())
        mapping[x] = ring.random_element(rng)
    ws = tio.Workspace()
    ws.bind("r", "ring", ring)
    ws.bind("f", "map", MapTable(ring, mapping), ring)
    ws.bind("e", "elem", ring.random_element(rng), ring)
    ws.bind("p", "poly", random_polymap(ring, rng), ring)
    ws.bind("s", "sig", tio.parse_signature("sig{GF(2):2, GF(3):1}"))
    return ws.dumps()


WORKSPACES = [_map_workspace("GF(2)^[B(atoms=2)]", 1, False),
              _map_workspace("GF(3)^[B(atoms=1)] x GF(2)^[B(atoms=2)]", 2, True),
              _map_workspace("GF(4)^[B(atoms=1)]", 3, False)]


def mutate(text: str, rng: random.Random) -> str:
    """One random mutation; a one-line text is treated as a list of words."""
    sep = "\n" if "\n" in text else " "
    pieces = text.split(sep)
    kind = rng.choice(("truncate", "duplicate", "swap", "splice"))
    if kind == "truncate" and text:
        return text[:rng.randrange(len(text))]
    if kind == "duplicate":
        i = rng.randrange(len(pieces))
        pieces.insert(rng.randrange(len(pieces) + 1), pieces[i])
        return sep.join(pieces)
    if kind == "swap" and len(pieces) > 1:
        i, j = rng.sample(range(len(pieces)), 2)
        pieces[i], pieces[j] = pieces[j], pieces[i]
        return sep.join(pieces)
    pos = rng.randrange(len(text) + 1)
    junk = "".join(rng.choice(SPLICE_CHARS) if rng.random() < 0.7 else chr(rng.randrange(256))
                   for _ in range(rng.randint(1, 6)))
    return text[:pos] + junk + text[pos + rng.randint(0, 3):]


def long_digit_field(rng: random.Random) -> str:
    """A GF(...) whose order, prime or degree is a run of 12 to 40 digits."""
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                              for _ in range(rng.randint(11, 39)))
    return rng.choice((f"GF({digits})", f"GF({digits}^{rng.randint(1, 3)})",
                       f"GF({rng.choice((2, 3, 5, 7))}^{digits})",
                       f"GF({rng.choice(('1000000000000037', '100000000000000000000000000319'))})"))


def make_case(k: int, tmp_path):
    """The argv of fuzz case k, with any workspace written under tmp_path."""
    rng = random.Random(f"{SEED}:{k}")
    family = k % 3
    if family == 0:
        ring = mutate(rng.choice(RING_TEXTS), rng)
        tail = rng.choice((["new", ring], ["check", ring, "quotients"],
                           ["check", ring, "char"], ["decompose", ring]))
        return CAPS + ["ring", *tail]
    if family == 1:
        gens = mutate(rng.choice(ELEM_TEXTS), rng)
        return CAPS + ["ring", *rng.choice((["check", ELEM_RING, "cfg", "--gens", gens],
                                            ["decompose", ELEM_RING, "--gens", gens]))]
    text = rng.choice(WORKSPACES)
    for _ in range(rng.randint(1, 2)):
        text = mutate(text, rng)
    path = tmp_path / f"case{k}.ws"
    path.write_bytes(text.encode("latin-1"))   # spliced bytes above 0x7f are raw
    tail = rng.choice((["check", str(path), "contractive"], ["check", str(path), "conv"],
                       ["check", str(path), "polynomial"], ["topoly", str(path)],
                       ["orbit", str(path), "--gens", "0,1"], ["orbit", str(path)]))
    return CAPS + ["map", *tail]


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:        # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_malformed_input_keeps_the_exit_code_contract(capsys, tmp_path):
    codes = set()
    for k in range(CASES):
        argv = make_case(k, tmp_path)
        code, out, err = run(capsys, argv)
        assert code in (0, 1, 2, 3), (k, argv, err)
        assert "Traceback" not in err, (k, argv, err)
        assert run(capsys, argv)[:2] == (code, out), (k, argv)
        codes.add(code)
    assert {0, 2} <= codes


def test_long_digit_field_orders_keep_the_exit_code_contract(capsys):
    codes = set()
    refusals = set()
    for k in range(LONG_DIGIT_CASES):
        rng = random.Random(f"{SEED}:digits:{k}")
        ring = f"{long_digit_field(rng)}^[B(atoms={rng.randint(1, 3)})]"
        if rng.random() < 0.5:
            ring = rng.choice(RING_TEXTS) + " x " + ring
        argv = CAPS + ["ring", *rng.choice((["new", ring], ["check", ring, "quotients"],
                                             ["check", ring, "char"], ["decompose", ring],
                                             ["check", ring, "cfg", "--gens", "0,1"]))]
        code, out, err = run(capsys, argv)
        assert code in (0, 2, 3), (k, argv, err)
        assert "Traceback" not in err, (k, argv, err)
        assert run(capsys, argv)[:2] == (code, out), (k, argv)
        codes.add(code)
        refusals.add(next((r for r in REFUSALS if r in err), None))
    assert codes == {0, 2, 3}
    # decompose and cfg reach the caps on the field order, not an enumeration
    assert set(REFUSALS) <= refusals


# `demo` command lines whose option values the mutants replace
DEMO_ARGVS = [
    ["demo", "tower", "--q", "2", "--n", "3"],
    ["demo", "tower", "--q", "3", "--n", "2"],
    ["demo", "gf4-sequence", "--n", "3", "--k", "1"],
    ["demo", "vraciu", "--fields", "GF(2),GF(4),GF(8)"],
    ["demo", "vraciu", "--fields", "GF(3),GF(9),GF(3^2)"],
]
SMALL_FIELDS = ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(8)", "GF(9)", "GF(2^4)", "GF(3^3)",
                "GF(25)", "GF(49)", "GF(6)", "GF(1)", "GF(0)", "GF(2^0)")


# a --fields value naming only prime fields of 12 or more digits
HUGE_FIELDS = re.compile(r"GF\(\d{12,}\)(,GF\(\d{12,}\))*")


def long_prime_fields(rng: random.Random) -> str:
    """One to three copies of GF(p), p a prime of 12 to 24 digits."""
    p = rng.randrange(10 ** 11, 10 ** rng.randint(12, 24))
    while not is_prime(p):
        p += 1
    return ",".join([f"GF({p})"] * rng.randint(1, 3))


def demo_option_mutant(argv, i, rng):
    """A replacement for the option value argv[i]: a small integer, a long
    digit run or a text mutant; for --fields a list of small fields, a list
    of long-digit prime fields or a text mutant.  `demo vraciu` refuses a
    field of more than 2^20 elements (exit 3) before listing its elements.
    Valid `demo tower` sizes 4 to 6 run from seconds to minutes, so `--n` is
    given no such value."""
    value = argv[i]
    kind = rng.randrange(3)
    if argv[i - 1] == "--fields":
        if kind == 1:
            return long_prime_fields(rng)
        if kind == 2:
            return mutate(value, rng)
        return ",".join(rng.choice(SMALL_FIELDS) for _ in range(rng.randint(0, 4)))
    if kind == 0:
        tower_size = argv[1] == "tower" and argv[i - 1] == "--n"
        return str(rng.choice([v for v in range(-3, 10) if not (tower_size and 4 <= v <= 6)]))
    if kind == 1:
        return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                                for _ in range(rng.randint(1, 30)))
    return mutate(value, rng)


def test_demo_options_keep_the_exit_code_contract(capsys):
    codes = set()
    huge = 0
    for k in range(DEMO_CASES):
        rng = random.Random(f"{SEED}:demo:{k}")
        argv = list(rng.choice(DEMO_ARGVS))
        for i in rng.sample(range(3, len(argv), 2), rng.randint(1, len(argv) // 2 - 1)):
            argv[i] = demo_option_mutant(argv, i, rng)
        code, out, err = run(capsys, CAPS + argv)
        assert code in (0, 1, 2, 3), (k, argv, err)
        assert "Traceback" not in err, (k, argv, err)
        assert run(capsys, CAPS + argv)[:2] == (code, out), (k, argv)
        if argv[1] == "vraciu" and HUGE_FIELDS.fullmatch(argv[3]):
            assert code == 3 and "cannot list the values of GF(" in err, (k, argv, err)
            huge += 1
        codes.add(code)
    assert {0, 2, 3} <= codes
    assert huge >= 3


SIGNATURE_TEXTS = ["sig{GF(2):2, GF(3):1}", "sig{GF(4):1, GF(2):3}", "sig{GF(9):2}",
                   "sig{GF(5):1, GF(25):1, GF(7):1}"]


def test_signature_text_keeps_the_exit_code_contract(capsys):
    """Signature text outside a workspace: parse it (a rejection is what the
    CLI reports with exit 2 or 3), round-trip it, and decompose the ring it
    names, whose signature it must be."""
    codes = set()
    for k in range(SIGNATURE_CASES):
        rng = random.Random(f"{SEED}:sig:{k}")
        text = rng.choice(SIGNATURE_TEXTS)
        if k % 2:
            text = mutate(text, rng)
        else:   # one field order or atom count replaced
            number = rng.choice(list(re.finditer(r"\d+", text)))
            digits = rng.choice((rng.randint(0, 12), rng.randint(13, 10 ** 6),
                                 rng.randint(10 ** 11, 10 ** 40)))
            text = text[:number.start()] + str(digits) + text[number.end():]
        try:
            sig = tio.parse_signature(text)
            ring = ring_from_signature(sig)
        except ValueError:          # ParseError included: exit 2 in the CLI
            codes.add(2)
            continue
        except CapExceeded:
            codes.add(3)
            continue
        assert tio.parse_signature(str(sig)) == sig, (k, text)
        argv = CAPS + ["ring", "decompose", str(ring)]
        code, out, err = run(capsys, argv)
        assert code in (0, 3), (k, text, err)
        assert "Traceback" not in err, (k, text, err)
        assert run(capsys, argv)[:2] == (code, out), (k, text)
        if code == 0:
            assert f"signature {sig}\n" in out, (k, text)
        codes.add(code)
    assert codes == {0, 2, 3}
