"""Build and load the compiled event-loop kernel (cffi + cc), or say why not.

The discrete-event hot loop of :mod:`repro.sim.engine` -- heap, flow
stepping, leg timing, traffic accounting, ~1.2 microseconds per message
leg in CPython -- is written a second time in C, in ``ckern/kernel.c``
(its header comment says what runs there), operation for operation, so
the two engines are bit-identical (``tests/sim/test_engine.py``).
``ckern/abi.h`` declares, once, everything Python and C share: the
types, the codes (``R_*``, ``A_*``, ``MC_*``, ``TOPO_*``, ``FLOW_*``) and
the prototypes.  ``kernel.c`` includes it and the extension's cdef is its
text, so Python reads every code from the loaded module (``lib.R_RESUME``)
and never spells one as a number.

:func:`build` is the one compile command: the two files plus the
wrappers cffi generates, as an extension module in API mode (a call is a
direct C call through a generated wrapper, not a libffi marshalling).
:func:`load_kernel` builds it at first use and imports it.  The kernel
engages only when ``cffi`` is importable, a C compiler and the Python
headers are available, and ``REPRO_PURE_PYTHON`` is unset.  Any failure
along the way (no compiler, no Python headers, sandboxed tmpdir, import
error) falls back to the pure-Python engine -- nothing in the package
*requires* the kernel -- and :func:`unavailable_reason` keeps why.  The
extension is cached under ``$REPRO_CKERN_DIR`` (default: a per-user
directory in the system tempdir), named by a hash of the bytes of
``abi.h`` and ``kernel.c``, the interpreter and cffi's version, so it is
built once per revision; loading a built one imports it and parses no
cdef.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile
from typing import Sequence

__all__ = ["load_kernel", "unavailable_reason", "api_source", "build", "kernel_path"]

#: Where ``abi.h`` and ``kernel.c`` live (shipped as package data).
SOURCE_DIR = pathlib.Path(__file__).with_name("ckern")

_KERNEL = None
_KERNEL_TRIED = False
_UNAVAILABLE = ""


def _build_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CKERN_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(tempfile.gettempdir()) / f"repro-ckern-{os.getuid()}"


def _module_name() -> str:
    """The extension module's name: a content hash of what the built code
    depends on -- the two source files, the interpreter and cffi (whose
    runtime half, ``_cffi_backend``, carries cffi's version)."""
    import _cffi_backend

    key = hashlib.sha256()
    for name in ("abi.h", "kernel.c"):
        key.update((SOURCE_DIR / name).read_bytes() + b"\0")
    key.update(f"{sys.version}\0{_cffi_backend.__version__}".encode())
    return "ckern_" + key.hexdigest()[:16]


def kernel_path() -> pathlib.Path:
    """Where the extension of this source revision is cached: named by a
    content hash, so a build found there is imported as it is
    (``tools/kernel_sanitize.py`` plants an instrumented one)."""
    return _build_dir() / (_module_name() + sysconfig.get_config_var("EXT_SUFFIX"))


def api_source() -> str:
    """The C of the extension :func:`kernel_path` names: ``kernel.c``
    followed by the wrappers cffi generates for ``abi.h`` (API mode, so a
    call is a direct C call, not a libffi one)."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef((SOURCE_DIR / "abi.h").read_text())
    ffi.set_source(_module_name(), (SOURCE_DIR / "kernel.c").read_text(),
                   compiler_verbose=False)
    out = io.StringIO()
    ffi.emit_c_code(out)
    return out.getvalue()


def build(out: pathlib.Path, flags: Sequence[str]) -> None:
    """Compile :func:`api_source` into the extension ``out`` with the C
    compiler ``$CC`` (default ``cc``) and ``flags``; a failed compile
    raises :class:`subprocess.CalledProcessError` carrying its stderr."""
    c_path = out.with_name(out.name + ".c")
    c_path.write_text(api_source())
    try:
        subprocess.run(
            [os.environ.get("CC", "cc"), *flags, "-fPIC", "-shared",
             f"-I{sysconfig.get_paths()['include']}", f"-I{SOURCE_DIR}",
             "-o", str(out), str(c_path)],
            check=True,
            capture_output=True,
            timeout=120,
        )
    finally:
        c_path.unlink()


def _compile() -> pathlib.Path:
    """Build the extension into the cache dir; returns its path."""
    so_path = kernel_path()
    so_path.parent.mkdir(parents=True, exist_ok=True)
    if so_path.exists():
        return so_path
    tmp = so_path.with_name(f"{so_path.name}.tmp{os.getpid()}")
    build(tmp, ["-O2"])
    os.replace(tmp, so_path)  # atomic: concurrent builders converge
    return so_path


def _import(path: pathlib.Path):
    """Import the built extension at ``path`` (no cdef parsing: the type
    tables are compiled in)."""
    spec = importlib.util.spec_from_file_location(path.name.split(".")[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernel():
    """The process-wide kernel -- the extension module, whose ``ffi`` and
    ``lib`` are the cffi handle pair -- or ``None`` when unavailable or
    disabled (:func:`unavailable_reason` then says why)."""
    global _KERNEL, _KERNEL_TRIED, _UNAVAILABLE
    if _KERNEL_TRIED:
        return _KERNEL
    _KERNEL_TRIED = True
    if os.environ.get("REPRO_PURE_PYTHON"):
        _UNAVAILABLE = "REPRO_PURE_PYTHON is set"
        return None
    try:
        import _cffi_backend  # noqa: F401
    except ImportError as exc:
        _UNAVAILABLE = f"cffi is not importable: {exc}"
        return None
    try:
        _KERNEL = _import(_compile())
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip()
        _UNAVAILABLE = f"the C compiler failed: {stderr[-500:] or exc}"
    except Exception as exc:  # no compiler, unwritable cache dir, import error
        _UNAVAILABLE = f"{type(exc).__name__}: {exc}"
    return _KERNEL


def unavailable_reason() -> str:
    """Why :func:`load_kernel` returned ``None`` (``REPRO_PURE_PYTHON``
    set, ``cffi`` not importable, the compiler's error text -- missing
    Python headers included -- or the import error); ``""`` while the
    kernel is loaded or untried."""
    return _UNAVAILABLE
