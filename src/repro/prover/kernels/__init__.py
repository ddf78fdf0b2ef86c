"""The prover's e-graph substrate (docs/KERNELS.md).

:mod:`repro.prover.kernels.flat` is the congruence-closure/E-matching
kernel: struct-of-arrays storage where e-nodes are integer ids, optionally
compiled to a C extension via ``pip install repro[compiled]``.  The
compiled and pure-Python builds run the identical algorithm, so the build
never changes verdicts, contexts, logs, or search counters — only speed —
and is excluded from the proof-cache fingerprint and backend identity.
"""

from __future__ import annotations

from repro.prover.kernels import flat as _flat
from repro.prover.kernels.flat import (
    FlatEGraph,
    FlatProgram,
    compile_trigger,
    compiled_trigger,
    flat_ematch,
    select_triggers,
)


def flat_is_compiled() -> bool:
    """True when the kernel module is a compiled extension.

    mypyc and Cython both install the compiled module as a ``.so``/``.pyd``
    that shadows the pure-Python source; checking the loaded module's file
    suffix is therefore toolchain-agnostic."""
    fname = getattr(_flat, "__file__", "") or ""
    if fname.endswith((".so", ".pyd")):
        return True
    # mypyc keeps ``__file__`` pointing at the shim .py but marks the
    # module with a compiled flag.
    return bool(getattr(_flat, "__mypyc_attrs__", None))


def kernel_identity() -> str:
    """Human-readable kernel build for --version / --prover-stats."""
    return "flat/compiled" if flat_is_compiled() else "flat/pure-python"


__all__ = [
    "FlatEGraph",
    "FlatProgram",
    "compile_trigger",
    "compiled_trigger",
    "flat_ematch",
    "select_triggers",
    "flat_is_compiled",
    "kernel_identity",
]
