"""Benchmark of the evolvesurf CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's configuration for the seed, then measures the
subcommand it names, each sample in a fresh interpreter (a CLI user pays the
imports, sympy's cache and the symbolic derivations on every invocation):

* set-up: several set-up-only interpreters are started (the first, which
  fills the bytecode and file caches, is discarded); every sample's own
  set-up is measured as well.  ``setup_s`` is the median.
* samples: one process at a time, closed loop, BLAS pinned to one thread.
  Samples start while the next one is predicted to end within S seconds,
  and at least MIN_SAMPLES are taken.  Each sample runs ``cli.run_pipeline``
  plus ``cli.write_outputs`` and checks the outputs against the gates in
  workloads.py.

Host-speed scaling.  On a shared host the speed a process gets drifts by up
to 1.7x in phases of seconds to minutes, so raw times of runs made minutes
apart are not comparable (measured: 25-s runs of one workload spread by
15-25 % between their quartiles).  While a worker sets up and while it runs,
``worker.SpeedProbe`` times a fixed interpreted loop every 0.1 s, and
``setup_s`` and ``wall_s`` are the raw seconds x PROBE_S / (mean probe
duration): the time at the speed at which the loop takes PROBE_S.  This cut
the spread of wall times within a run from 16-17 % to 4-5 %.  The raw
medians are printed on the ``raw`` line and kept in
work/<workload>/result.json.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(median over samples); with ``--trace 1`` the samples are traced and it
reports the per-layer metrics, in raw seconds.  The lines before it record
the environment and the raw times.  A sample fails if it raises, if the
report lists failures or if a gate is missed; ``failed``/``attempted`` is
the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SPAWNS = 4          # measured set-up-only interpreters per run
MIN_SAMPLES = 3
RUN_LIMIT_S = 165.0       # a run never starts work past this budget
# typical SpeedProbe duration on an Intel Xeon (KVM guest, 2.1 GHz, 2 vCPUs)
PROBE_S = 0.0014

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"), ("result_err", "1"))


class WorkerError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(cfg_path, out_dir, subcommand, trace, go, timeout):
    """Start one worker; returns ([set-up seconds, set-up probes], record or None)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    log = open(out_dir.parent / "worker.log", "a")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path), str(out_dir), subcommand,
         "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
        env=_worker_env(), cwd=str(ROOT))
    try:
        ready = proc.stdout.readline()
        setup = [time.perf_counter() - t0]
        if not ready.startswith("ready "):
            proc.communicate(timeout=timeout)
            raise WorkerError(f"worker set-up failed (see {log.name})")
        setup.append(json.loads(ready[len("ready "):]))
        out, _ = proc.communicate("go\n" if go else "exit\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        log.close()
    if not go:
        return setup, None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode} (see {log.name})")
    return setup, json.loads(lines[-1])


def cpu_record():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "threads": PINNED_ENV}


def measure(workload, seed, seconds, trace):
    """Run one benchmark measurement; returns the dict described in the module doc."""
    subcommand = workloads.SUBCOMMAND[workload]
    wdir = WORK / workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)
    cfg_path = wdir / "run.cfg"
    cfg_path.write_text(workloads.config_text(workload, seed))
    out_dir = wdir / "out"
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    # the first interpreter fills the bytecode and file caches; not measured
    _spawn(cfg_path, out_dir, subcommand, trace, False, remaining())
    setups = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            setups.append(_spawn(cfg_path, out_dir, subcommand, trace, False, remaining())[0])

    records = []
    t_measure = time.perf_counter()
    durations = []
    while True:
        elapsed = time.perf_counter() - t_measure
        if len(records) >= MIN_SAMPLES:
            if elapsed + statistics.median(durations) > seconds:
                break
        if durations and remaining() < 1.5 * max(durations):
            break
        t0 = time.perf_counter()
        try:
            setup, rec = _spawn(cfg_path, out_dir, subcommand, trace, True, remaining())
            setups.append(setup)
        except WorkerError as exc:
            rec = {"ok": False, "error": str(exc)}
        durations.append(time.perf_counter() - t0)
        records.append(rec)
        if "wall_s" not in rec:
            break     # the worker itself failed; further samples would too
    return {"workload": workload, "seed": seed, "trace": trace, "subcommand": subcommand,
            "params": workloads.draw_params(workload, seed), "setups": setups,
            "records": records, "cpu": cpu_record()}


def median(values):
    return statistics.median(values) if values else 0.0


def reproducibility(records):
    """(runs whose outputs differ from the first run's, counters that differ)."""
    good = [r for r in records if "digest" in r]
    repro = sum(1 for r in good[1:] if r["digest"] != good[0]["digest"])
    counter_sets = [layer_values(r) for r in good]
    mismatched = sum(1 for name in workloads.COUNTERS
                     if len({c.get(name, 0) for c in counter_sets}) > 1)
    return repro, mismatched


def layer_values(rec):
    """Per-layer metric values of one traced sample record."""
    vals = dict(rec.get("counters", {}))
    vals.update(rec.get("trace_counters", {}))
    for name, (calls, total, self_s) in rec.get("layers", {}).items():
        if name == "run":
            vals["untraced_s"] = self_s
            continue
        vals[name + ".calls"] = calls
        vals[name + ".s"] = self_s
    if "wall_s" in rec:
        vals["traced_wall_s"] = scaled_wall(rec)
    return vals


def summarize(result):
    """The benchmark's result object (the last stdout line)."""
    records = result["records"]
    good = [r for r in records if r.get("ok")]
    failed = len(records) - len(good)
    if not result["trace"]:
        metrics = {
            "setup_s": median([scaled(*setup) for setup in result["setups"]]),
            "wall_s": median([scaled_wall(r) for r in good]),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in good]),
            "result_err": median([r["result_err"] for r in good]),
        }
        units = dict(END_TO_END)
    else:
        per_sample = [layer_values(r) for r in good]
        metrics = {name: median([v.get(name, 0) for v in per_sample])
                   for name in workloads.LAYER_NAMES if not name.startswith("check.")}
        repro, mismatched = reproducibility(records)
        metrics["check.repro_mismatches"] = repro
        metrics["check.counter_mismatches"] = mismatched
        metrics["check.layer_map_violations"] = len(
            workloads.layer_map_violations(result["workload"], metrics))
        units = {name: unit for name, unit, *_ in workloads.LAYERS}
    return {"correct": failed == 0 and bool(records), "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def scaled(seconds, probes):
    """Seconds at the host speed at which a probe takes PROBE_S."""
    return seconds * PROBE_S / statistics.fmean(probes) if probes else seconds


def scaled_wall(rec):
    return scaled(rec["wall_s"], rec["probe_s"])


def raw_times(result):
    """Unscaled median set-up, wall and probe seconds, and the sample counts."""
    good = [r for r in result["records"] if r.get("ok")]
    return {"setup_s": median([raw for raw, _ in result["setups"]]),
            "wall_s": median([r["wall_s"] for r in good]),
            "probe_s": median([statistics.fmean(r["probe_s"]) for r in good if r["probe_s"]]),
            "probes": sum(len(r["probe_s"]) for r in good),
            "samples": len(result["records"]), "setups": len(result["setups"])}


def environment(result):
    env = dict(result["cpu"])
    for rec in result["records"]:
        if "env" in rec:
            env.update(rec["env"])
            break
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evolvesurf" / "__init__.py").is_file():
        print("error: no evolvesurf sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(result)
    for rec in result["records"]:
        for msg in rec.get("failures", []) + ([rec["error"]] if "error" in rec else []):
            print(f"FAIL: {msg}", file=sys.stderr)
    (WORK / args.workload / "result.json").write_text(json.dumps(result, indent=1))
    print("env " + json.dumps(environment(result)))
    print("raw " + json.dumps(raw_times(result)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
