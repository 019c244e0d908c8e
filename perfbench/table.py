"""Per-layer baseline table and layer-binding self-test.

    python3 perfbench/table.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload this makes one untraced and one traced measurement (the
same as run.py with --trace 0 and --trace 1) and prints the end-to-end
metrics, then each traced layer's calls, total and self seconds and share of
the traced wall time, the tracing overhead (traced minus untraced wall_s),
the deterministic counters and the output checks.  It exits with status 1 if
a binding site named in tracer.EXPECTED_SITES was not rebound, or if a layer
metric breaks the zero/non-zero map in workloads.ZERO.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads
from tracer import EXPECTED_SITES, TARGETS


def binding_sites():
    """Rebind in this process and return the expected sites that were missed."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import evolvesurf.cli  # noqa: F401  (loads every module of the package)
    from tracer import Tracer

    sites = Tracer().install()
    return [s for s in EXPECTED_SITES if s not in sites]


def print_workload(plain, traced):
    wl = plain["workload"]
    e2e = run.summarize(plain)
    ok = [r for r in traced["records"] if r.get("ok")]
    wall = e2e["metrics"]["wall_s"]["value"]
    traced_wall = run.median([run.scaled_wall(r) for r in ok])
    raw_traced_wall = run.median([r["wall_s"] for r in ok])
    print(f"\n== {wl} (seed {plain['seed']}, `{plain['subcommand']}`) "
          f"{workloads.WHY[wl]}")
    print(f"params {plain['params']}")
    n_plain = len(plain["records"])
    print(f"fail_ratio {e2e['failed']}/{n_plain}   samples {n_plain} untraced, "
          f"{len(traced['records'])} traced   set-ups {len(plain['setups'])}")
    for name, unit in run.END_TO_END:
        print(f"  {name:14s} {e2e['metrics'][name]['value']:.6g} {unit}")
    print(f"  traced wall_s {traced_wall:.6g} s: tracing overhead {traced_wall - wall:+.4f} s "
          f"({(traced_wall - wall) / wall:+.1%});  raw {run.raw_times(plain)}")

    stats = {}
    for rec in ok:
        for name, triple in rec["layers"].items():
            stats.setdefault(name, []).append(triple)
    print(f"  {'layer':36s} {'calls':>7s} {'total s':>9s} {'self s':>9s} {'share':>7s}")
    names = [f"{m}.{f}" for m, f in TARGETS] + ["operator.lu_solve",
                                                "diagnostics.forcing_eval", "run"]
    for name in sorted(names, key=lambda n: -run.median([t[2] for t in stats.get(n, [])])):
        rows = stats.get(name, [])
        calls = run.median([t[0] for t in rows])
        total = run.median([t[1] for t in rows])
        self_s = run.median([t[2] for t in rows])
        label = "untraced_s (root self time)" if name == "run" else name
        print(f"  {label:36s} {calls:7.0f} {total:9.4f} {self_s:9.4f} "
              f"{self_s / raw_traced_wall if raw_traced_wall else 0:7.1%}")

    layer = run.summarize(traced)["metrics"]
    print("  counters: " + ", ".join(f"{n} {layer[n]['value']:g}" for n in workloads.COUNTERS
                                     if layer[n]["value"]))
    for name in ("check.repro_mismatches", "check.counter_mismatches"):
        print(f"  {name} {layer[name]['value']:g}")
    values = {n: m["value"] for n, m in layer.items()}
    violations = workloads.layer_map_violations(wl, values)
    for v in violations:
        print(f"  layer map violation: {v}")
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    missed = binding_sites()
    for site in missed:
        print(f"binding site not rebound: {site}")
    bad = bool(missed)
    for k, wl in enumerate(args.workload or workloads.WORKLOADS):
        plain = run.measure(wl, args.seed, args.seconds, False)
        traced = run.measure(wl, args.seed, args.seconds, True)
        if k == 0:
            print("env", run.environment(plain))
        bad |= bool(print_workload(plain, traced))
    print(f"\nself-test {'FAILED' if bad else 'passed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
