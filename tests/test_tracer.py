"""``perfbench/tracer.py``: every traced entry point exists in the package,
and uninstalling the tracer binds each one back to its original."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("tracer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    """Every module attribute of the package, and every traced class
    attribute, as ``{(owner, name): value}``."""
    out = {}
    for name, module in sys.modules.items():
        if name == "extracd" or name.startswith("extracd."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for mod_name, attr, *_ in tracer._TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"extracd.{mod_name}"], cls_name)
            out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_install_wraps_every_target_and_uninstall_restores(tracer):
    for layer in tracer.LAYERS + ("cli",):
        importlib.import_module(f"extracd.{layer}")
    before = bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        during = bindings(tracer)
        for mod_name, attr, *_ in tracer._TARGETS:
            key = (tuple(attr.split(".")) if "." in attr
                   else (f"extracd.{mod_name}", attr))
            assert during[key] is not before[key], (mod_name, attr)
    finally:
        t.uninstall()
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
