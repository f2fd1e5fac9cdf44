"""Traced CLI requests: perfbench/tracing.py's hooks still read the library.

The benchmark's tracer wraps shiftlab's public functions from outside and
reads their results (the count kernels' tables, the Gibbs diagnostics, the
digit tree, the entropy result).  A change in src/ that breaks one of those
reads fails every traced run of the benchmark; this test catches it in the
suite, on one request of each kind the hooks read.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from shiftlab import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

ARGVS = [
    ["blocks", "--s", "{0,2,5}", "--n", "40"],
    ["check-bsm", "--sft", "aa,bc", "--alphabet", "abc", "--depth", "20"],
    ["check-balanced", "--s", "co{0}"],
    ["gibbs", "--s", "{0,2,5}", "--depth", "10"],
    ["entropy", "--s", "co{1}"],
    ["enumerate-one", "--lambda", "1.8", "--depth", "10"],
    ["bridge", "--digits", "1101"],
]
COUNTERS = ["blocks.count_bits_max", "props.gibbs_cells", "beta.leaves", "entropy.bisection_steps"]


def _load_tracing():
    """perfbench/tracing.py loaded by its path under a private name, in
    sys.modules only while its body runs."""
    spec = importlib.util.spec_from_file_location("_traced_requests_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_requests_fill_the_tracer_counters():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = []
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(ARGVS)
    metrics = tracer.metrics(COUNTERS)
    assert all(metrics[name] > 0 for name in COUNTERS), metrics
    assert "_traced_requests_tracing" not in sys.modules
