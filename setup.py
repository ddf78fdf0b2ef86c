"""Setuptools entry point.

Kept alongside pyproject.toml so that editable installs work on machines
without the ``wheel`` package (``python setup.py develop`` or
``pip install -e . --no-build-isolation``).

It also carries the **best-effort compiled-kernel build** for the flat
e-graph (docs/KERNELS.md).  ``pip install repro[compiled]`` pulls mypyc
(via mypy) and Cython; when either toolchain is importable the flat
kernel module is compiled to a C extension, and ``repro --version``
reports ``flat/compiled``.  Every failure mode — no toolchain, no C
compiler, a codegen or build error — falls back to the pure-Python
module without failing the installation: the two are byte-identical in
behavior (tests/test_goldens.py), so compilation is never load-bearing.

Set ``REPRO_NO_COMPILE=1`` to skip the attempt entirely.
"""

import os

from setuptools import setup
from setuptools.command.build_ext import build_ext

_FLAT_SRC = os.path.join("src", "repro", "prover", "kernels", "flat.py")
_FLAT_MOD = "repro.prover.kernels.flat"


def _ext_modules():
    """Extension list for the flat kernel, or [] when not attemptable."""
    if os.environ.get("REPRO_NO_COMPILE"):
        return []
    if not os.path.exists(_FLAT_SRC):
        return []
    # mypyc first: it compiles the annotated module as-is and installs an
    # import shim, so the dotted module path stays the same.
    try:
        from mypyc.build import mypycify

        return mypycify([_FLAT_SRC], opt_level="3")
    except Exception:
        pass
    # Cython fallback: compile the same source in pure-Python mode under
    # an explicit Extension so the module name is exact.
    try:
        from Cython.Build import cythonize
        from setuptools import Extension

        return cythonize(
            [Extension(_FLAT_MOD, [_FLAT_SRC])],
            language_level="3",
            quiet=True,
        )
    except Exception:
        pass
    return []


class _OptionalBuildExt(build_ext):
    """A build_ext whose failures degrade to the pure-Python kernel."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "repro: compiled kernel build failed "
            f"({type(exc).__name__}: {exc}); "
            "falling back to the pure-Python flat kernel"
        )


setup(
    ext_modules=_ext_modules(),
    cmdclass={"build_ext": _OptionalBuildExt},
)
