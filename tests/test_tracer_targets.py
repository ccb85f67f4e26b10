"""Every name the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` patches a module attribute for a plain name and a
``Class.__dict__`` entry for a dotted one. A target that was renamed,
deleted or inherited instead of defined would only surface as an error
once a traced benchmark run installs the tracer; this test names it in
the test suite instead. The tracer module is loaded by path, so nothing
under ``perfbench/`` is imported as a package or changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module_name, path, _bucket in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}:{path}")
    assert missing == []
