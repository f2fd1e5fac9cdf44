"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs one short pass of every workload at the smallest scale, untraced and
traced, and asserts that
  * the CLI's argument parser accepts every generated argv,
  * every report passes its check, except requests in the known failing slice,
  * every end-to-end and per-layer metric is reported,
  * the traced self times add up to the traced wall time within SELF_TIME_TOL.
Exits 1 with the reasons when any assertion fails.
"""

import sys

import run
import workloads

SEED = 7
SCALE = 1
SELF_TIME_TOL = 0.02


def main() -> int:
    cli = run.load_shiftlab()
    e2e_specs, layer_specs = run.metric_specs()
    problems = []
    for name in workloads.BUILDERS:
        requests = workloads.build(name, SEED, scale=SCALE)
        runner, e2e, _ = run.end_to_end(name, SEED, 0, cli, requests)
        layer_names = [n for n in layer_specs if n not in run.RUNNER_METRICS]
        traced_runner, layers, _ = run.traced(name, SEED, 0, cli, requests, layer_names)
        for r in (runner, traced_runner):
            problems += [f"{name}: argv refused: {argv}" for argv in r.rejected]
            problems += [f"{name}: {' '.join(a)[:120]}: {v}" for a, v in r.unexpected]
        problems += [f"{name}: no metric {m}" for m in e2e_specs if not e2e.get(m, 0) > 0]
        problems += [f"{name}: no metric {m}" for m in layer_specs if m not in layers]
        ratio = layers["traced_self_over_wall"]
        if abs(ratio - 1.0) > SELF_TIME_TOL:
            problems.append(f"{name}: traced self times sum to {ratio:.4f} of traced wall")
        known = sum(r.known_failure for r in requests)
        print(f"{name}: {len(requests)} requests ({known} in the known failing slice), "
              f"{runner.failed} of {runner.attempted} attempts failed, self/wall {ratio:.4f}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
