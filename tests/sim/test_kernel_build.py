"""The kernel is a compiled cffi extension (API mode).

``sim/ckern/kernel.c`` and its ABI header ``abi.h`` are the extension's
C; ``_ckern.build()`` is the one compile command (the kernel plus cffi's
generated wrappers); ``load_kernel()`` builds it once per content hash
and, warm, only imports it -- no cdef parsing, so ``pycparser`` stays out
of the process.  Without the Python headers the build fails, and the
reason says so.  A non-editable install ships both C files.
"""

import os
import pathlib
import re
import subprocess
import sys
import sysconfig

import pytest

import repro
from repro.sim import _ckern

kernel_only = pytest.mark.skipif(_ckern.load_kernel() is None, reason="C kernel unavailable")
SRC = pathlib.Path(repro.__file__).parents[1]
CHECK = ("import sys; from repro.sim import _ckern; k = _ckern.load_kernel(); "
         "assert k is not None, _ckern.unavailable_reason(); ")


def _run(code, pythonpath, ckern_dir, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_PURE_PYTHON"}
    env.update(PYTHONPATH=str(pythonpath), REPRO_CKERN_DIR=str(ckern_dir))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@kernel_only
def test_a_warm_load_imports_the_extension_without_the_cdef_parser():
    path = _ckern.kernel_path()
    assert path.exists()  # this process built or found it
    module, suffix = path.name.split(".", 1)
    assert module.startswith("ckern_") and "." + suffix == sysconfig.get_config_var("EXT_SUFFIX")
    out = _run(CHECK + "print(k.lib.__name__, 'pycparser' in sys.modules)", SRC, path.parent)
    assert out == [f"{module}.lib", "False"]


@kernel_only
def test_the_generated_c_is_warning_clean(tmp_path):
    """``-Wall -Wextra -Werror`` over the kernel *and* cffi's wrappers, at
    the sanitizer build's ``-O1``: a full compile, because some warnings
    (an unused static function) come after the syntax pass."""
    try:
        _ckern.build(tmp_path / "kernel.so", ["-O1", "-Wall", "-Wextra", "-Werror"])
    except subprocess.CalledProcessError as exc:
        pytest.fail(exc.stderr.decode(errors="replace"))


@kernel_only
def test_missing_python_headers_are_reported_not_silent(tmp_path, monkeypatch):
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setenv("REPRO_CKERN_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(empty)})
    monkeypatch.setattr(_ckern, "_KERNEL", None)
    monkeypatch.setattr(_ckern, "_KERNEL_TRIED", False)
    monkeypatch.setattr(_ckern, "_UNAVAILABLE", "")
    assert _ckern.load_kernel() is None
    why = _ckern.unavailable_reason()
    assert why.startswith("the C compiler failed")
    assert re.search(r"\b(Python|pyconfig)\.h: No such file", why), why
    assert not list((tmp_path / "cache").iterdir())  # no half-built file left


@kernel_only
def test_a_non_editable_build_ships_the_kernel_source(tmp_path):
    """Without ``kernel.c`` and ``abi.h`` in the built package the kernel
    would not load and every run would fall back to the pure engine
    without saying so; built, the package names the very extension this
    checkout's sources hash to."""
    if not (SRC.parent / "setup.py").exists():
        pytest.skip("the package is not imported from a checkout")
    build_base = tmp_path / "build"
    subprocess.run([sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path),
                    "build", "--build-base", str(build_base)],
                   cwd=SRC.parent, check=True, capture_output=True, timeout=120)
    path = _ckern.kernel_path()
    out = _run(CHECK + "print(_ckern.__file__, _ckern.kernel_path())",
               build_base / "lib", path.parent, cwd=tmp_path)
    assert out == [str(build_base / "lib" / "repro" / "sim" / "_ckern.py"), str(path)]
