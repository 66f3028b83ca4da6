#!/usr/bin/env python3
"""Run the kernel's tests against an ASan + UBSan build of the C kernel.

The kernel is a cffi extension module that ``repro.sim._ckern.build()``
compiles at first use from ``src/repro/sim/ckern/kernel.c`` and its ABI
header ``abi.h`` (plus cffi's generated wrappers), cached under
``$REPRO_CKERN_DIR`` by content hash.  This tool calls the same
``build()`` with ``-O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=undefined`` plus ``-Wall -Wextra -Werror`` (the
kernel and the wrappers are warning-clean; this is the build that keeps
them so) and plants the result at exactly that name in a scratch
directory, so the package imports it without any flag of its own, then
runs pytest (default: ``tests/serve tests/sim tests/runtime``) with the
ASan runtime preloaded::

    python tools/kernel_sanitize.py                 # the default test dirs
    python tools/kernel_sanitize.py tests/serve/test_native_write.py -k sweep

A sanitizer report kills the test process (pytest's capture would
swallow it, so reports go to log files that are printed at the end) and
the exit status is pytest's: 0 means the event loop, the flows, the
residency mirror (batch and serving) and the combining pass ran clean.
Leak checking is off (CPython itself is not leak-clean).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined", "-Wall", "-Wextra", "-Werror"]
DEFAULT_TESTS = ["tests/serve", "tests/sim", "tests/runtime"]


def main(argv=None) -> int:
    tests = list(sys.argv[1:] if argv is None else argv) or DEFAULT_TESTS
    cc = os.environ.get("CC", "cc")
    asan = subprocess.run([cc, "-print-file-name=libasan.so"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan):
        print(f"kernel_sanitize: {cc} has no libasan.so", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-ckern-asan-") as scratch:
        os.environ["REPRO_CKERN_DIR"] = scratch
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.sim import _ckern

        so_path = _ckern.kernel_path()
        try:
            _ckern.build(so_path, SANITIZE)
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.decode(errors="replace"), file=sys.stderr)
            return 1
        log = pathlib.Path(scratch) / "report"
        env = dict(
            os.environ,
            LD_PRELOAD=asan,
            ASAN_OPTIONS=f"detect_leaks=0:log_path={log}",
            UBSAN_OPTIONS=f"print_stacktrace=1:log_path={log}",
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        env.pop("REPRO_PURE_PYTHON", None)
        # load_kernel() falls back to the pure engine on any failure;
        # here that would make the run vacuous, so insist.
        subprocess.run(
            [sys.executable, "-c",
             "from repro.sim import _ckern; assert _ckern.load_kernel()"],
            cwd=REPO_ROOT, env=env, check=True,
        )
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=REPO_ROOT, env=env,
        ).returncode
        for report in sorted(pathlib.Path(scratch).glob("report.*")):
            print(report.read_text(), file=sys.stderr)
        # The package must have found the planted build: a hash mismatch
        # would have made it compile an uninstrumented one next to it.
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        built = sorted(p.name for p in pathlib.Path(scratch).glob(f"ckern_*{suffix}"))
        if built != [so_path.name]:
            print(f"kernel_sanitize: expected only {so_path.name} in the "
                  f"scratch dir, found {built}", file=sys.stderr)
            return 1
    if status == 0:
        print(f"kernel_sanitize: clean ({' '.join(tests)})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
