"""The kernel is a compiled cffi extension (API mode).

``_ckern.api_source()`` is the one place the extension's C comes from
(the kernel plus cffi's generated wrappers); ``load_kernel()`` builds it
once per content hash and, warm, only imports it -- no cdef parsing, so
``pycparser`` stays out of the process.  Without the Python headers the
build fails, and the reason says so.
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
SRC = str(pathlib.Path(repro.__file__).parents[1])


@kernel_only
def test_a_warm_load_imports_the_extension_without_the_cdef_parser():
    path = _ckern.kernel_path()
    assert path.exists()  # this process built or found it
    module, suffix = path.name.split(".", 1)
    assert module.startswith("ckern_") and "." + suffix == sysconfig.get_config_var("EXT_SUFFIX")
    code = ("import sys; from repro.sim import _ckern; k = _ckern.load_kernel(); "
            "assert k is not None, _ckern.unavailable_reason(); "
            "print(k.lib.__name__, 'pycparser' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_PURE_PYTHON"}
    env.update(PYTHONPATH=SRC, REPRO_CKERN_DIR=str(path.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert out == [f"{module}.lib", "False"]


@kernel_only
def test_the_generated_c_is_warning_clean(tmp_path):
    """``-Wall -Wextra -Werror`` over the kernel *and* cffi's wrappers (the
    sanitizer build compiles the same text with the same flags)."""
    c_path = tmp_path / "kernel.c"
    c_path.write_text(_ckern.api_source())
    subprocess.run(
        [os.environ.get("CC", "cc"), "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
         f"-I{sysconfig.get_paths()['include']}", str(c_path)],
        check=True, capture_output=True, timeout=120,
    )


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
