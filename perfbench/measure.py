"""Shared plumbing for the benchmark: paths, child processes, statistics.

The benchmark runs from the root of a source checkout.  It never installs
the package: children get ``PYTHONPATH=src`` and a fixed hash seed, so a
repetition of the same code sees the same dict/set orders and repeats its
work counters exactly.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent

#: hard cap on any single child process (the whole run must end in 180 s)
CHILD_TIMEOUT_S = 150.0


def require_checkout() -> None:
    """Exit non-zero unless the current directory is a source checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} not found; run from the root of a "
            "source checkout",
            file=sys.stderr,
        )
        sys.exit(2)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDEVMODE", None)
    return env


def enable_src() -> None:
    """Make ``repro`` importable in this process (children use the env)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_child(argv: Sequence[str], *, stdin: Optional[str] = None,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a Python child; its last stdout line is a JSON document."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=str(ROOT),
        env=child_env(),
        input=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {' '.join(argv[:2])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def emit(doc: dict) -> None:
    """Print a child's result document as its last stdout line."""
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


# -- statistics -------------------------------------------------------------


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]); 0.0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- memory -----------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), MB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


# -- results ----------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:50],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tally":
        out = cls()
        out.attempted = int(data["attempted"])
        out.failed = int(data["failed"])
        out.problems = list(data.get("problems", ()))
        return out
