"""A small randomized campaign with the audit log.

Maps are random polynomials rescaled so an l1 certificate guarantees
|f| <= 1 - margin on the closed ball; points are uniform in the ball.
Every check is written to a JSONL line, and the whole run is reproducible
from the seed. With fd_dirs > 0 each closed-form value is cross-checked
against a finite-difference probe of the definition.
"""

import json
import tempfile
from pathlib import Path

from holoball import FuzzConfig, fuzz_campaign

log = Path(tempfile.mkdtemp()) / "campaign.jsonl"
cfg = FuzzConfig(trials=20, points_per_trial=50, n=2, m=2, max_degree=3,
                 seed=12345, fd_dirs=64, pin_counterexample=True)

report = fuzz_campaign(cfg, log)

print(f"trials run      : {report.trials_run}")
print(f"points checked  : {report.points_checked}")
print(f"violations      : {len(report.violations)}")
print(f"worst slack     : {report.worst_slack:.6f}")
print(f"FD max dev      : {report.oracle_max_dev:.2e}")
print(f"FD anomalies    : {report.fd_anomalies}")
print(f"FD undecided    : {report.fd_undecided}")
print(f"runtime         : {report.runtime_ms:.0f} ms")

ce = report.counterexample
print(f"\npinned witness  : classical lhs {ce['classical_lhs']:.6f} vs rhs "
      f"{ce['rhs']:.6f} (violated: {ce['classical_violated']}), "
      f"modulus lhs {ce['modulus_lhs']:.1f} (holds: {ce['holds']})")

lines = log.read_text().splitlines()
print(f"\nlog: {len(lines)} records at {log}")
rec = json.loads(lines[1])
print("first random record:")
for key in ("trial", "lhs", "rhs", "slack", "branch", "fd_dev"):
    print(f"  {key:7} = {rec[key]}")
