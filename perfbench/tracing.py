"""Spans around calls into finreg's public functions, recorded from outside.

`Tracer.install()` replaces selected module functions and methods of the
finreg package with wrappers that record one span per call: name, start and
end (perf_counter_ns), the index of the enclosing span, the current
operation id, and a count (the length of the result, for the functions in
COUNTED; else 0).  Spans stay in memory; `Tracer.dump` writes them once, at the
end of a run.  Nothing under src/ is modified: the wrappers live only in the
tracing process and `uninstall()` restores the originals.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path, span name)
TARGETS = (
    ("fields", "FiniteField.__init__", "fields.construct"),
    ("fields", "lagrange_interpolate", "fields.lagrange_interpolate"),
    ("products", "generated_subring", "products.generated_subring"),
    ("products", "decompose_finite_reduced", "products.decompose_finite_reduced"),
    ("products", "residue_field_signature", "products.residue_field_signature"),
    ("products", "structure_decompose", "products.structure_decompose"),
    ("products", "iso_test", "products.iso_test"),
    ("products", "check_residue_cover", "products.check_residue_cover"),
    ("products", "extract_combination", "products.extract_combination"),
    ("products", "ProductRing.cached_elements", "products.cached_elements"),
    ("polymaps", "is_contractive", "polymaps.is_contractive"),
    ("polymaps", "contractive_to_polynomial", "polymaps.contractive_to_polynomial"),
    ("polymaps", "PolyMap.induced_table", "polymaps.induced_table"),
    ("polymaps", "iteration_orbit", "polymaps.iteration_orbit"),
    ("polymaps", "commutes_with_conv", "polymaps.commutes_with_conv"),
    ("gallery", "tower_build", "gallery.tower_build"),
    ("gallery", "tower_verify", "gallery.tower_verify"),
    ("gallery", "vraciu_build", "gallery.vraciu_build"),
    ("textio", "parse_ring", "textio.parse_ring"),
    ("textio", "parse_element", "textio.parse_element"),
    ("textio", "Workspace.load", "textio.workspace_load"),
    ("selftest", "run_selftest", "selftest.run"),
    ("cli", "main", "cli.main"),
)
COUNTED = {"products.generated_subring"}


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start_ns, end_ns, parent index, op id, count]
        self.op = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counted = name in COUNTED

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if counted:
                span[5] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, name, start, end):
        """Record a span measured by the caller (no parent)."""
        self.spans.append([name, start, end, -1, self.op, 0])

    def merge(self, child):
        """Append another process's spans under the current op id."""
        base = len(self.spans)
        for name, start, end, parent, _, count in child:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.op, count])

    def install(self, targets=TARGETS):
        mods = {m: importlib.import_module(f"finreg.{m}") for m in {t[0] for t in targets}}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "finreg" or key.startswith("finreg.")]
        for mod_name, path, span in targets:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod_name], owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            orig = getattr(mods[mod_name], attr)
            new = self.wrap(span, orig)
            for mod in loaded:  # rebind every `from .x import f` copy as well
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Duration minus the part of it covered by direct child spans, in ns."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def summarize(spans, keep=lambda span: True):
    """name -> {"calls", "ns", "self_ns", "count"} over the spans kept."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        if not keep(span):
            continue
        name, start, end, _, _, count = span
        acc = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "count": 0})
        acc["calls"] += 1
        acc["ns"] += end - start
        acc["self_ns"] += own
        acc["count"] += count
    return out
