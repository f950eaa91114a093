"""The benchmark tracer's layer map names live, distinct library objects.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of ``LAYERS`` by
name, so a deleted name breaks traced runs, and two names bound to one
object (an ``=`` alias) get wrapped twice, counting each call twice.
"""
from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def resolve(mod_name: str, attr: str) -> object:
    """The object the tracer wraps: a module attribute, or for
    "Class.method" the function in the class's own namespace."""
    owner = importlib.import_module(f"torusideals.{mod_name}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        return vars(getattr(owner, cls_name))[name]
    return getattr(owner, name)


def test_every_layer_target_resolves_to_its_own_object():
    seen: dict[int, str] = {}
    for layer, targets in load_layers().items():
        for mod_name, attr in targets:
            obj = resolve(mod_name, attr)
            assert callable(obj), (layer, mod_name, attr)
            label = f"{mod_name}.{attr}"
            assert id(obj) not in seen, f"{label} is {seen[id(obj)]}"
            seen[id(obj)] = label
    for name in ("zeta.hasse_weil_factors", "chebfam.tcheb_closed",
                 "chebfam.fpoly_closed", "zeta.check_functional_equation",
                 "zeta.zeta_consistency_with_cn"):
        assert name in seen.values()


def test_cli_import_loads_every_layer_module():
    """A lazy import in ``cli`` would fail ``Tracer.install`` (KeyError)."""
    mods = {f"torusideals.{m}" for ts in load_layers().values() for m, _ in ts}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import torusideals.cli; print(*set(sys.argv[2:]) - set(sys.modules))")
    src = Path(importlib.import_module("torusideals").__file__).parents[1]
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src), *mods],
                         capture_output=True, text=True, check=True).stdout
    assert "torusideals.verify" in mods and out.split() == []
