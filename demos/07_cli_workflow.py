"""End-to-end CLI workflow: config file in, report and snapshot files out.

The same entry points back the installed ``evolve-surf`` console script; this
demo drives them programmatically and peeks at the emitted files.
"""

import tempfile
from pathlib import Path

from evolvesurf.cli import main

CONFIG = """\
[surface]
preset = graph_oscillation
T = 0.05
epsilon = 0.05
omega = 1.0

[grid]
n1 = 24
n2 = 24

[time]
dt = 2e-3
theta = 0.5

[solver]
probes = 4
seed = 42

[output]
snapshot_stride = 10
"""

workdir = Path(tempfile.mkdtemp(prefix="evolvesurf_demo_"))
cfg_path = workdir / "run.cfg"
cfg_path.write_text(CONFIG)
print(f"config written to {cfg_path}\n")

for sub in ("check", "solve", "verify"):
    out = workdir / sub
    print(f"$ evolve-surf {sub} --config {cfg_path.name} --out {out.name}")
    rc = main([sub, "--config", str(cfg_path), "--out", str(out)])
    print(f"(exit status {rc})\n")

print("=== report.txt from the solve run ===")
print((workdir / "solve" / "report.txt").read_text())

print("=== first lines of energy.csv ===")
print("\n".join((workdir / "solve" / "energy.csv").read_text().splitlines()[:5]))

print("\n=== header of the t=0 snapshot (legacy-VTK binary structured grid) ===")
# the ASCII header ends at the POINTS line; big-endian float64 points follow
snapshot = (workdir / "solve" / "snapshot_0000.vtk").read_bytes()
header = snapshot[:snapshot.index(b"\n", snapshot.index(b"\nPOINTS ") + 1)]
print(header.decode("ascii"))
print(f"\nall artifacts under {workdir}")
