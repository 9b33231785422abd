"""The benchmark wraps package functions and methods by name, and silently
drops the metrics of any name it cannot find; every name it patches must
therefore still exist."""

import importlib.util
import pathlib

# importing the CLI imports every module the benchmark patches
import proxbound.cli  # noqa: F401

BENCH_TRACE = (pathlib.Path(__file__).resolve().parents[1]
               / "perfbench" / "bench_trace.py")


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_is_patched():
    bt = load_bench_trace()
    spans = {span for span, *_ in bt.FUNCTIONS + bt.METHODS}
    patches = bt.install(bt.Recorder())
    try:
        assert patches.patched == spans
    finally:
        patches.uninstall()
