import hashlib
import random
import time

import pytest

from finreg.cli import main
from finreg.polymaps import MapTable, random_polymap
from finreg import textio as tio


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def swap_file(tmp_path):
    ring = tio.parse_ring("GF(2)^[B(atoms=2)]")
    S = ring.factors[0]
    table = MapTable.from_function(ring, lambda x: ring.element(
        [S.from_values([x.parts[0].value_at(1), x.parts[0].value_at(0)])]))
    ws = tio.Workspace()
    ws.bind("swap", "map", table, ring)
    path = tmp_path / "swap.ws"
    ws.save(path)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    ring = tio.parse_ring("GF(4)^[B(atoms=1)]")
    table = MapTable.from_function(ring, lambda x: x * x)
    ws = tio.Workspace()
    ws.bind("sq", "map", table, ring)
    path = tmp_path / "sq.ws"
    ws.save(path)
    return str(path)


@pytest.fixture
def perturbed_file(tmp_path):
    # a cubic polynomial map with one entry shifted by 1; the first violating
    # pair is (element 1, element 16)
    ring = tio.parse_ring("GF(3)^[B(atoms=2)] x GF(2)^[B(atoms=1)]")
    rng = random.Random(40)
    mapping = dict(random_polymap(ring, rng).induced_table().mapping)
    x = rng.choice(ring.cached_elements())
    mapping[x] = mapping[x] + ring.one
    ws = tio.Workspace()
    ws.bind("f", "map", MapTable(ring, mapping), ring)
    path = tmp_path / "perturbed.ws"
    ws.save(path)
    return str(path)


def test_ring_new_and_quotients(capsys):
    code, out, _ = run(capsys, "ring", "new", "GF(2)^[B(atoms=3)]")
    assert code == 0 and "size 8" in out and "---SUMMARY---" in out
    code, out, _ = run(capsys, "ring", "check", "GF(2)^[B(atoms=3)]", "quotients")
    assert code == 0 and out.count("GF(2)") >= 3


def test_ring_decompose_and_gens(capsys):
    code, out, _ = run(capsys, "ring", "decompose", "GF(3)^[B(atoms=2)]")
    assert code == 0 and "sig{GF(3):2}" in out
    code, out, _ = run(capsys, "ring", "decompose", "GF(4)^[B(atoms=2)]",
                       "--gens", "{[all]->1}")
    assert code == 0 and "sig{GF(2):2}" in out  # only the prime field is generated


def test_ring_check_cfg_exit_codes(capsys):
    code, out, _ = run(capsys, "ring", "check", "GF(3)^[B(atoms=2)]", "cfg",
                       "--gens", "0,1,2")
    assert code == 0 and "cover holds" in out
    code, out, _ = run(capsys, "ring", "check", "GF(4)^[B(atoms=1)]", "cfg",
                       "--gens", "0,1")
    assert code == 1 and "missing" in out


def test_ring_iso(capsys):
    code, out, _ = run(capsys, "ring", "iso", "GF(2)^[B(atoms=2)]",
                       "GF(2)^[B(atoms=1)] x GF(2)^[B(atoms=1)]")
    assert code == 0 and "isomorphic" in out
    code, out, _ = run(capsys, "ring", "iso", "GF(2)^[B(atoms=2)]", "GF(4)^[B(atoms=2)]")
    assert code == 1 and "not isomorphic" in out


def test_map_check_contractive_witness(capsys, swap_file):
    code, out, _ = run(capsys, "map", "check", swap_file, "contractive")
    assert code == 1
    assert "not contractive" in out and "witness x" in out


def test_map_check_polynomial_and_topoly(capsys, square_file):
    code, out, _ = run(capsys, "map", "check", square_file, "polynomial")
    assert code == 0 and "poly[" in out
    code, out, _ = run(capsys, "map", "topoly", square_file)
    assert code == 0 and "degree 2" in out


def test_map_conv_check(capsys, swap_file, square_file):
    code, out, _ = run(capsys, "map", "check", swap_file, "conv")
    assert code == 1
    code, out, _ = run(capsys, "map", "check", square_file, "conv")
    assert code == 0


def test_map_orbit(capsys, square_file):
    code, out, _ = run(capsys, "map", "orbit", square_file, "--gens", "0,1,g,g+1")
    assert code == 0 and "orbit size 2" in out and "methods agree: True" in out


def test_demo_commands(capsys):
    code, out, _ = run(capsys, "demo", "vraciu", "--fields", "GF(2),GF(2),GF(4)")
    assert code == 0 and "sig{GF(2):2, GF(4):1}" in out
    code, out, _ = run(capsys, "demo", "gf4-kernel")
    assert code == 0 and "rejected 16/16" in out
    code, out, _ = run(capsys, "demo", "tower", "--q", "2", "--n", "2", "--samples", "200")
    assert code == 0 and "quotients 4-16" in out
    code, out, _ = run(capsys, "demo", "gf4-sequence", "--n", "3", "--k", "1")
    assert code == 0 and "bound pass" in out


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "ring", "new", "GF(6)^[B(atoms=1)]")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "ring", "check", "GF(2)^[B(atoms=1)]", "cfg")
    assert code == 2  # cfg without --gens


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(capsys, "ring", "new", "GF(2)^[B(atoms=2000000)]")
    assert code == 3 and "cap exceeded" in err
    code, _, err = run(capsys, "--atom-cap", "4", "ring", "new", "GF(2)^[B(atoms=8)]")
    assert code == 3


def test_huge_ring_size_keeps_the_exit_code_contract(capsys, tmp_path):
    # 2^20000 has more decimal digits than the default int-to-str limit (4300)
    code, out, err = run(capsys, "ring", "new", "GF(2)^[B(atoms=20000)]")
    assert code == 0 and err == ""
    assert out.count("size 2^20000\n") == 2
    code, out, err = run(capsys, "ring", "new", "GF(4)^[B(atoms=20000)] x GF(3)^[B(atoms=2)]")
    assert code == 0 and "size 2^40000 * 3^2\n" in out
    path = tmp_path / "huge.ws"
    path.write_text("map f @ GF(2)^[B(atoms=20000)] = {\n({[all]->0}) -> ({[all]->0})\n}\n")
    code, out, err = run(capsys, "map", "topoly", str(path))
    assert code == 3 and out == "" and "Traceback" not in err
    assert "cap exceeded: GF(2)^[B(atoms=20000)] has 2^20000 elements" in err


def test_exit_codes_for_tower_size(capsys):
    code, out, err = run(capsys, "demo", "tower", "--q", "2", "--n", "0")
    assert code == 2 and out == "" and "input error" in err and "Traceback" not in err
    code, out, err = run(capsys, "demo", "tower", "--q", "2", "--n", "7")
    assert code == 3 and out == "" and "cap exceeded" in err and "Traceback" not in err


def test_exit_code_duplicate_map_key(capsys, square_file):
    with open(square_file) as fh:
        lines = fh.read().splitlines()
    with open(square_file, "w") as fh:
        fh.write("\n".join(lines[:2] + lines[1:]) + "\n")  # repeat the first entry
    code, out, err = run(capsys, "map", "topoly", square_file)
    assert code == 2 and out == ""
    assert "duplicate map entry" in err and "Traceback" not in err


def test_exit_code_internal_check_failed(capsys, monkeypatch):
    from finreg import products

    # a residue-field count that disagrees with the decomposition
    monkeypatch.setattr(products, "residue_field_signature",
                        lambda pres: products.RingSignature.from_dict({(5, 1): 1}))
    code, out, err = run(capsys, "ring", "decompose", "GF(3)^[B(atoms=2)]")
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "internal check failed" in err and "VerificationError" in err
    assert "disagrees with the residue-field count" in err

    def boom(pres, cap):
        raise KeyError("lost")

    monkeypatch.setattr(products, "generated_subring", boom)
    code, out, err = run(capsys, "ring", "decompose", "GF(3)^[B(atoms=2)]")
    assert code == 4 and out == "" and "KeyError" in err and "Traceback" not in err


def test_deterministic_output(capsys):
    first = run(capsys, "ring", "decompose", "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]")
    second = run(capsys, "ring", "decompose", "GF(4)^[B(atoms=2)] x GF(2)^[B(atoms=1)]")
    assert first == second
    t1 = run(capsys, "--seed", "7", "demo", "tower", "--q", "2", "--n", "3",
             "--samples", "50")
    t2 = run(capsys, "--seed", "7", "demo", "tower", "--q", "2", "--n", "3",
             "--samples", "50")
    assert t1 == t2


# SHA-256 of the stdout of fixed commands: any byte that changes breaks the CLI contract
PINNED_OUTPUT = [
    (("demo", "tower", "--q", "2", "--n", "3"),
     "e39542ae16cf13d241a8ffab4b854610b53237ae376903b1f097027441bc4888"),
    (("demo", "tower", "--q", "3", "--n", "2"),
     "c76ef42a939ce15467d20dfc9daf1485e7ea14b3fae66dc22750e7c7f217b913"),
    (("ring", "check", "GF(256)^[B(atoms=2)]", "char"),
     "b53fea06e78b73bb405e65ffa4ae3b69bf9b2a3a375bbb5804a48813292ef8b1"),
    (("demo", "vraciu", "--fields", "GF(243),GF(9)"),
     "40be87e12e2b7dd6a108060f086488e7ef65fd34bafa004800cb2cca681e2bc0"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT, ids=[" ".join(a) for a, _ in PINNED_OUTPUT])
def test_output_is_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of the map commands that print the first violating pair
PINNED_WITNESS_OUTPUT = [
    (("map", "check", "{ws}", "contractive"),
     "2eff7a062c2b438a0cb2619323a7c485bf5c310408848df41af8fc8d31d0aec7"),
    (("map", "check", "{ws}", "polynomial"),
     "10717914c31783a41d559ffef701187733f99d1cc048dae03e47eb74700958b3"),
    (("map", "topoly", "{ws}"),
     "0b7f4ede23a74013c056aaf16445ccf0425ab7df4336bd0c6ce34ffb8cbfdbd2"),
]


@pytest.mark.parametrize("argv,digest", PINNED_WITNESS_OUTPUT,
                         ids=[" ".join(a) for a, _ in PINNED_WITNESS_OUTPUT])
def test_witness_output_is_byte_identical(capsys, perturbed_file, argv, digest):
    code, out, err = run(capsys, *(perturbed_file if a == "{ws}" else a for a in argv))
    assert code == 1 and err == ""
    assert "witness x = ({[1]->0; [0]->1} | {[all]->0})\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_conv_witness_output_is_byte_identical(capsys, perturbed_file):
    # the two-block family and the pair printed are the first failing ones
    code, out, err = run(capsys, "map", "check", perturbed_file, "conv")
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e4d46a8517587cd855c70d0b2afe7fd86a45a214ae88d946338a06a05fffc85d"


# stdout SHA-256 of failing cover checks: generators that miss 2 at the GF(3)
# prime, so the exhaustive walk stops at element 32 ("33 elements")
COVER_RING = "GF(4)^[B(atoms=2)] x GF(3)^[B(atoms=1)]"
COVER_GENS = "0,1,({[0]->g; [1]->g+1} | {[all]->0}),({[0]->g+1; [1]->g} | {[all]->0})"
PINNED_COVER_OUTPUT = [
    ((), "exhaustive, 33 elements", "fe76c46935825e89e654ef745c7aa70ab99258462973508d15c377c01c147602"),
    (("--table-cap", "16"), "sampled, 4 elements",
     "dec9316fef7304ce43f77894f74bf4f4dd7abf396daf295bfec44f0ce466adc6"),
]


@pytest.mark.parametrize("caps,checked,digest", PINNED_COVER_OUTPUT,
                         ids=["exhaustive", "sampled"])
def test_cover_check_output_is_byte_identical(capsys, caps, checked, digest):
    code, out, err = run(capsys, *caps, "ring", "check", COVER_RING, "cfg", "--gens", COVER_GENS)
    assert code == 1 and err == ""
    assert f"vanishing product fails ({checked})" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,cap_text", [
    (("ring", "decompose", "GF(1000000000000037)^[B(atoms=1)]"), "generated subring exceeds 1000000"),
    (("ring", "iso", "GF(2)^[B(atoms=1)]", "GF(1000000000000037)^[B(atoms=1)]"),
     "generated subring exceeds 1000000"),
    (("ring", "check", "GF(4)^[B(atoms=1)] x GF(1000000000000037)^[B(atoms=1)]", "cfg",
      "--gens", "0,1"), "cannot list the values of GF(1000000000000037)"),
], ids=["decompose", "iso", "cfg"])
def test_huge_fields_are_refused_before_enumeration(capsys, argv, cap_text):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == "" and cap_text in err


def test_full_presentation_cap_is_the_subring_order(capsys):
    # the scalars generate GF(4) x GF(3), 12 elements: the cap holds at 12
    ring = "GF(4)^[B(atoms=2)] x GF(3)^[B(atoms=1)]"
    code, out, _ = run(capsys, "--subring-cap", "12", "ring", "decompose", ring)
    assert code == 0 and "generated subring size 12" in out
    code, out, err = run(capsys, "--subring-cap", "11", "ring", "decompose", ring)
    assert code == 3 and out == "" and "generated subring exceeds 11 elements" in err


def test_sixteen_digit_prime_field_is_fast_and_byte_identical(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ring", "new", "GF(1000000000000037)^[B(atoms=1)]")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d6412045a01740d4fa282339b551272fd3832c6a352d1b052f77ca944285ba80"


@pytest.mark.parametrize("spec", ["GF(100000000000000000000000000319)^[B(atoms=1)]",
                                  "GF(100000000000000000000000000319^2)^[B(atoms=1)]"])
def test_undecided_primality_is_a_cap(capsys, spec):
    code, out, err = run(capsys, "ring", "new", spec)
    assert code == 3 and out == ""
    assert "not decided" in err and "Traceback" not in err


HELP_DIGESTS = [      # SHA-256 of `--help` stdout at 80 columns, recorded before lazy imports
    ("", "0bc768bcb5456ef66ce69f19cc37d34e5e74685d1bf44a774afe7b8971451e5b"),
    ("ring", "08dd2db2d2f442c59d398cdac5ff799ae7fbbf77bfab7c593974dd9eed65aff2"),
    ("ring new", "7fc29a5c083f7664d9e44847b8ae18d72b2e8e95d9c622fd75b71bfb78462b65"),
    ("ring decompose", "370996ce3832388a1eb380f2fe36c92cd5133f34f322d90640af30a45154f850"),
    ("ring check", "04fb2d0832487fa95396fd785be4a891974b5ac23a0760edfde0174012fab9d4"),
    ("ring iso", "710725a4b1161dcd7bea913a9122188c7cddbce23120697e1282a8e260e1cd0f"),
    ("map", "bccc88e192aafbf25d010524bd7507d7c0f3d9e95331b99741e8199e982ea881"),
    ("map check", "0cd4bf6401102682cd0e90a4aad8f72b5c08d81414f4ebd252d9ef027a9c472b"),
    ("map topoly", "ffec1b81eacb6f75420077eb93802f3dbf846ff06c145978fc24cd9fe46e8b63"),
    ("map orbit", "7027ba2cfc067232c89f418c1b5e2c2884c5ffb1faed7b781438931fbcb913f8"),
    ("demo", "bfc184bccb9e5053ba2f5191956a39726c4e5c647128cc36031307f2d268443d"),
    ("demo vraciu", "f613d1d051af80f30403ab8f85fcaed5300d10d0d0aa48e55fe978eabbd9ae0b"),
    ("demo tower", "001d22961c956cc6e5a94f1b34d2d4f6a677999dfe9a0394782e0ba0bbc55868"),
    ("demo gf4-kernel", "e515099313cb831dd4e1dd932b6c98fe04644c7b1e9d2e92739f767608ddbe79"),
    ("demo gf4-sequence", "0a0566d21c480642fc64b72a008547ea0a940654711202a49182f6df8a01c4fb"),
    ("selftest", "d87fa9e8530e77f0ae74b7ba823e2d6acc454cb575a127cad9a36483deae78a9"),
]


@pytest.mark.parametrize("command, digest", HELP_DIGESTS, ids=[c or "finreg" for c, _ in HELP_DIGESTS])
def test_help_text_is_byte_identical(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps help at the terminal width
    with pytest.raises(SystemExit) as done:
        main([*command.split(), "--help"])
    assert done.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_map_orbit_cap_default_is_the_orbit_cap():
    from finreg import polymaps
    from finreg.cli import build_parser

    args = build_parser().parse_args(["map", "orbit", "f.ws"])
    assert args.cap == polymaps.ORBIT_CAP == 100_000


def test_installed_entry_point():
    import os
    import subprocess
    import sys

    import finreg
    # the child imports finreg from where this process found it (src/ in a checkout)
    home = os.path.dirname(os.path.dirname(finreg.__file__))
    path = os.pathsep.join(filter(None, (home, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "finreg.cli", "demo", "gf4-kernel"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "rejected 16/16" in proc.stdout
