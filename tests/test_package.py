"""The package's public names, and the modules each entry point loads.

`import finreg` loads no submodule; a name is imported on first access.
A CLI process loads only the modules its command runs, checked in a fresh
interpreter per case by the `finreg.*` entries of `sys.modules`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finreg
from finreg import textio as tio
from finreg.polymaps import MapTable

SRC = Path(__file__).resolve().parents[1] / "src"

# the names the package exported when it imported every module eagerly, in
# order, with the module each came from
EXPORTS_BY_MODULE = (
    ("boolean", ["BooleanRing", "BoolElem", "PrimeIdeal", "is_partition_of_unity"]),
    ("errors", ["CapExceeded", "ParseError", "VerificationError"]),
    ("fields", ["GF", "FieldElem", "FiniteField", "FieldEmbedding", "embed",
                "field_embedding", "finite_field", "lagrange_interpolate"]),
    ("gallery", ["FieldAssignment", "KernelReport", "SequenceReport", "TowerReport",
                 "TowerRing", "VraciuReport", "gf4_kernel_check", "gf4_sequence_demo",
                 "tower_build", "tower_verify", "vraciu_build"]),
    ("polymaps", ["BoundReport", "IterationCertificate", "MapTable", "PolyMap",
                  "commutes_with_conv", "contractive_maps", "contractive_to_polynomial",
                  "is_contractive", "is_polynomial", "iteration_orbit",
                  "polynomial_witness_bruteforce", "quotient_order_bound", "random_polymap",
                  "support_exponent"]),
    ("products", ["CharBlock", "FieldClass", "ProductElem", "ProductRing", "RingSignature",
                  "StructureWitness", "SubringPresentation", "char_decompose",
                  "decompose_finite_reduced", "full_presentation", "generated_subring",
                  "iso_test", "residue_field_signature", "ring_char", "ring_from_signature",
                  "structure_decompose"]),
    ("stepfun", ["ConvexCombination", "CoverReport", "StepElem", "StepRing"]),
    ("products", ["check_residue_cover", "extract_combination"]),
    ("textio", ["Workspace"]),
)
EXPORTS = [name for _, names in EXPORTS_BY_MODULE for name in names]
# the submodules `import finreg` used to bind as attributes
SUBMODULES = ["boolean", "errors", "fields", "gallery", "polymaps", "products", "stepfun",
              "textio", "zmodpoly"]


def test_exports_are_unchanged():
    assert finreg.__all__ == EXPORTS
    listed = set(dir(finreg))
    for module, names in EXPORTS_BY_MODULE:
        mod = importlib.import_module(f"finreg.{module}")
        for name in names:
            assert getattr(finreg, name) is getattr(mod, name), name
            assert name in listed, name


def test_star_import_and_submodules():
    namespace = {}
    exec("from finreg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)
    for name in SUBMODULES:
        assert getattr(finreg, name) is importlib.import_module(f"finreg.{name}")
    assert finreg.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        finreg.no_such_name
    assert not hasattr(finreg, "dataclass")
    with pytest.raises(ImportError):
        exec("from finreg import no_such_name", {})


LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
with contextlib.redirect_stdout(io.StringIO()):
    if argv is None:
        import finreg
    elif argv == "all":
        import finreg.cli, finreg.selftest
        from finreg import *
    else:
        import finreg.cli
        code = finreg.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("finreg.") or m == "dataclasses")]))
"""


def loaded_modules(argv):
    """Exit code and the finreg submodules (and `dataclasses`, if present)
    that a fresh interpreter loaded running `finreg.cli.main(argv)`; with
    argv None it runs only `import finreg`, with "all" it imports every
    module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, mods = json.loads(proc.stdout)
    return code, {m.removeprefix("finreg.") for m in mods}


RING_LAYERS = {"boolean", "cli", "errors", "fields", "products", "record", "stepfun",
               "textio", "zmodpoly"}


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    ring = tio.parse_ring("GF(3)^[B(atoms=2)]")
    ws = tio.Workspace()
    ws.bind("sq", "map", MapTable.from_function(ring, lambda x: x * x), ring)
    path = tmp_path_factory.mktemp("maps") / "sq.ws"
    ws.save(path)
    return str(path)


def test_import_finreg_loads_no_submodule():
    assert loaded_modules(None) == (None, set())


@pytest.mark.parametrize("argv", [
    ["ring", "new", "GF(4)^[B(atoms=2)]"],
    ["ring", "check", "GF(3)^[B(atoms=2)] x GF(2)^[B(atoms=1)]", "char"],
    ["ring", "check", "GF(3)^[B(atoms=2)]", "quotients"],
    ["ring", "check", "GF(3)^[B(atoms=2)]", "cfg", "--gens", "0,1,2"],
    ["ring", "decompose", "GF(4)^[B(atoms=2)]", "--gens", "{[0]->1; [1]->g}"],
    ["ring", "iso", "GF(2)^[B(atoms=2)]", "GF(2)^[B(atoms=2)]"],
    ["ring", "new", "GF(4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_ring_commands_load_only_the_ring_layers(argv):
    code, mods = loaded_modules(argv)
    assert code == (2 if argv[-1] == "GF(4" else 0)
    assert mods <= RING_LAYERS


@pytest.mark.parametrize("what", [["check", "contractive"], ["check", "conv"],
                                  ["check", "polynomial"], ["topoly"], ["orbit"]])
def test_map_commands_load_no_demo_or_selftest(map_file, what):
    argv = ["map", what[0], map_file, *what[1:]]
    code, mods = loaded_modules(argv)
    assert code == 0
    assert mods <= RING_LAYERS | {"polymaps"} and "polymaps" in mods


@pytest.mark.parametrize("argv", [
    ["demo", "gf4-kernel"],
    ["demo", "gf4-sequence", "--n", "2"],
    ["demo", "vraciu", "--fields", "GF(4),GF(2)"],
    ["demo", "tower", "--q", "2", "--n", "2"],
])
def test_demo_commands_load_no_selftest_or_dataclasses(argv):
    code, mods = loaded_modules(argv)
    assert code == 0
    assert "gallery" in mods and "selftest" not in mods and "dataclasses" not in mods


def test_no_module_loads_dataclasses():
    _, mods = loaded_modules("all")
    assert mods == set(SUBMODULES) | {"cli", "record", "selftest"}
