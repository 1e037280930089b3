"""Guard for the benchmark's traced run.  bench/tracing.py wraps civar
functions by module and name, so renaming or dropping one of them must fail
here and not only under `bench/run.py --trace 1`."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def bindings():
    """Every module attribute and class member of the loaded civar modules."""
    out = {}
    for m in tracing._civar_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    out[(m.__name__, key, attr)] = member
    return out


def test_tracer_wraps_every_target_and_restores_civar():
    for modname, _attr, _name, _hook in tracing.TARGETS:
        importlib.import_module(modname)
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(owner, key) for owner, key, _original in tracer.patched}
        for modname, attr, _name, _hook in tracing.TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            assert (owner, attr) in patched, f"{modname}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
