"""Package hygiene: clean compilation and a consistent version string."""

import pathlib
import re
import warnings

import kchern

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kchern").glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match
    assert kchern.__version__ == match.group(1)


def test_benchmark_trace_targets_resolve():
    # The traced benchmark pass rebinds each WRAPPED name as a module
    # attribute, or as an entry of the class's own __dict__; a rename in
    # src/kchern must not silently break it.
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, qual in spans.WRAPPED:
        mod = importlib.import_module("kchern." + module)
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(mod, cls_name)), (module, qual)
        else:
            assert callable(getattr(mod, qual, None)), (module, qual)
