"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/worker.py CONFIG OUT_DIR SUBCOMMAND TRACE

The worker sets up as a CLI invocation does (import the package, parse the
config, build chart, diffusivity, grid and initial datum), prints ``ready``
with the speed-probe durations of its set-up, and waits for one line on
stdin.  On ``go`` it runs ``cli.run_pipeline`` and
``cli.write_outputs`` once, times them, checks the outputs against the gates
and prints one JSON record as its last stdout line; any other line makes it
exit without running.  A ``SpeedProbe`` measures the host speed during the
set-up and during the run (see run.py); with TRACE = 1 the layers are traced
too (see tracer.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

from workloads import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _scientific_outputs(manifest):
    """(sha256, byte count) of the output files without report.txt's time_* lines.

    The time_* lines are wall-clock readings, the only part of the outputs
    that is expected to change between runs of one configuration.
    """
    h = hashlib.sha256()
    size = 0
    for path in sorted(manifest):
        data = Path(path).read_bytes()
        if Path(path).name == "report.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"time_"))
        h.update(Path(path).name.encode() + b"\0" + hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


class SpeedProbe:
    """Times a fixed interpreted loop every PERIOD_S of wall time while active.

    The host's speed drifts while a run goes on; the mean probe duration is
    the speed this process got during the run.  A probe costs about 1 % of
    the run.  Signals that arrive during a long native call are handled when
    it returns.
    """

    PERIOD_S = 0.1
    LOOP = 20_000

    def __init__(self):
        self.durations = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _environment():
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    versions = {name: version(name) for name in ("numpy", "scipy", "sympy")}
    return {"python": sys.version.split()[0], **versions,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    cfg_path, out_dir, subcommand, trace = argv[1], argv[2], argv[3], argv[4] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    setup_probe = SpeedProbe()
    with setup_probe:
        import evolvesurf
        from evolvesurf import cli, config

        if not Path(evolvesurf.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"evolvesurf imported from {evolvesurf.__file__}, not this checkout")
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cfg = config.parse_config(Path(cfg_path).read_text())
        cfg.out_dir = out_dir
        grid = config.config_grid(cfg)
        config.config_chart(cfg)
        config.config_diffusion(cfg)
        config.config_initial_datum(cfg, grid)
    print("ready " + json.dumps(setup_probe.durations), flush=True)

    if sys.stdin.readline().strip() != "go":
        return 0

    record = {"ok": False}
    probe = SpeedProbe()
    root = tracer.span("run") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with probe, root:
            report, traj = cli.run_pipeline(cfg, subcommand)
            manifest = cli.write_outputs(report, traj, cfg.out_dir, cfg=cfg)
    except Exception:  # a failed run is a result, not a benchmark error
        record["error"] = traceback.format_exc()
    record["wall_s"] = time.perf_counter() - t0
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["probe_s"] = probe.durations

    if "error" not in record:
        err, failures = gate_outputs(subcommand, report, manifest)
        digest, size = _scientific_outputs(manifest)
        record.update(ok=not failures, failures=failures, result_err=err, digest=digest)
        counters = {"cli.output_bytes": size,
                    "cli.output_files": len(manifest),
                    "timestepper.picard_iterations":
                        report.picard_history.iterations if report.picard_history else 0}
        record["counters"] = counters
    if tracer is not None:
        record["layers"] = tracer.layer_stats()
        record["trace_counters"] = tracer.counters
    record["env"] = _environment()
    print(json.dumps(record), flush=True)
    return 0


def gate_outputs(subcommand, report, manifest):
    """The workload gates plus a check that every listed output file is there."""
    err, failures = gate(subcommand, report)
    for path in manifest:
        if not Path(path).is_file() or Path(path).stat().st_size == 0:
            failures.append(f"missing or empty output {path}")
    if not manifest or Path(manifest[0]).name != "report.txt":
        failures.append("report.txt not written")
    return err, failures


if __name__ == "__main__":
    sys.exit(main(sys.argv))
