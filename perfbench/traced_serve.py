"""``repro serve`` with the per-layer instrumentation installed.

    python3 perfbench/traced_serve.py --out FILE -- <global flags> serve ...

Runs the daemon exactly as ``python -m repro`` would, in the same process
topology, and once SIGTERM has drained it writes the per-layer metrics to
``FILE`` and the spans next to it (``FILE`` with ``.spans.jsonl``).
"""

from __future__ import annotations

import json
import sys

from measure import enable_src


def main() -> int:
    split = sys.argv.index("--")
    out = sys.argv[sys.argv.index("--out") + 1]
    enable_src()
    from repro.cli import main as repro_main

    from layers import install, layer_metrics
    from spans import Patcher, SpanRecorder

    recorder = SpanRecorder()
    with Patcher() as patcher:
        install(recorder, patcher)
        code = repro_main(sys.argv[split + 1:])
    recorder.write(out.replace(".json", ".spans.jsonl"))
    with open(out, "w") as f:
        json.dump(layer_metrics(recorder), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
