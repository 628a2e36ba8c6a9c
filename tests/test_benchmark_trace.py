"""The benchmark's traced layers still exist in the program.

``perfbench/tracer.py`` wraps the functions named in its ``SPANNED`` and
``COUNTED`` tables by module and attribute.  A refactor that renames or
drops one of them would first show as a broken ``--trace 1`` run; this
test makes it fail here instead.  The tracer is compiled from its source
text, so the test writes nothing under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    entries = [entry[:2] for entry in tracer.SPANNED + tracer.COUNTED]
    assert entries
    for module, attribute in entries:
        importlib.import_module(module)
        owner, name, func = tracer._resolve(module, attribute)
        assert callable(func), f"{module}.{attribute}"
        assert getattr(owner, name) is func
