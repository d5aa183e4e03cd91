"""Every callable the end-to-end benchmark traces still exists.

``benchmarks/e2e/layer_trace.py`` wraps the layers' callables from outside,
by ``module:qualname``.  Tier-1 collects only ``tests/``, so a rename of a
traced function would otherwise be found by the benchmark driver, not by the
test run.  The file is loaded by path: nothing here imports the benchmark as
a package, and nothing under ``benchmarks/e2e`` is edited for this test.
"""

import importlib
import importlib.util
from pathlib import Path

LAYER_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layer_trace.py"


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("e2e_layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_layer_trace().TARGETS


def test_there_are_targets_and_the_scan_path_is_among_them():
    paths = {path for _, path, _ in TARGETS}
    assert len(paths) == len(TARGETS) > 40
    assert {
        "repro.storage.encoding:decode_block",
        "repro.storage.container:read_container",
        "repro.storage.container:ContainerReader.read_rowset",
        "repro.storage.container:ContainerReader.read_rowset_blocks",
        "repro.storage.container:ContainerReader.matching_blocks",
        "repro.cache.disk_cache:FileCache.get",
        "repro.cache.disk_cache:FileCache.put",
        "repro.cluster.session:EonStorageProvider.scan",
    } <= paths


def _resolve(path: str):
    module_name, qualname = path.split(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # A method is rebound on the class that defines it, not inherited.
        return getattr(module, owner_name).__dict__[attr]
    return getattr(module, attr)


def test_every_target_resolves_to_a_callable_under_src_repro():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    broken = []
    for span, path, _count in TARGETS:
        try:
            target = _resolve(path)
            defined_in = Path(importlib.import_module(target.__module__).__file__)
            ok = callable(target) and defined_in.is_relative_to(src)
        except (ImportError, AttributeError, KeyError) as exc:
            ok, target = False, repr(exc)
        # A span is named for its layer: the ``src/repro/<module>`` directory.
        if not ok or span.split(".")[0] != path.split(".")[1]:
            broken.append((span, path, target))
    assert broken == []


def test_the_tracer_binds_every_target():
    """What the benchmark itself does first: one binding site or more per
    target (a function imported by name has one per importing module)."""
    tracer = _load_layer_trace().LayerTracer()
    bound = {original for _, _, original, _ in tracer._sites}
    assert len(bound) == len(TARGETS)
