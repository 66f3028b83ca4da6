"""Matrix multiplication (matrix squaring), the paper's Section 3.1.

The application computes the matrix square ``A := A * A`` -- chosen by the
paper over general multiplication because squaring forces the dynamic
strategies to *invalidate* copies (the write phase overwrites blocks that
were replicated during the read phase).

Setup (paper notation): the mesh is ``sqrtP x sqrtP``; the ``n x n`` matrix
is partitioned into ``P`` square blocks ``A[i,j]`` of ``m = n^2/P`` entries;
processor ``p_{i,j}`` owns block ``A[i,j]`` (the only copy of the block's
global variable starts in its cache) and computes
``A[i,j] := sum_k A[i,k] * A[k,j]``.

The parallel program: each processor zeroes a local accumulator ``H``, then
runs a **read phase** of ``sqrtP`` steps -- in step ``k0`` it reads
``A[i,k]`` and ``A[k,j]`` with the *staggered* index
``k = (k0 + i + j) mod sqrtP`` (at most two processors read the same block
in the same step) and accumulates ``A[i,k] @ A[k,j]`` -- a barrier, and a
**write phase** writing ``H`` into ``A[i,j]``.  Copies end up exactly as
they started, so the algorithm measures as if applied repeatedly for a
higher matrix power.

The hand-optimized baseline broadcasts every block along its row and its
column through neighbour-to-neighbour pipelining (four directed pipelines
per processor), achieving minimal total load *and* minimal congestion
``m * sqrtP`` entries; it then multiplies locally.

Communication time is measured by disabling local-computation charging
(``charge_compute=False``), exactly the paper's methodology ("we have
simply removed the code for local computations").
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from ..core.strategy import DataManagementStrategy, NullStrategy
from ..network.machine import GCEL, MachineModel
from ..network.mesh import Mesh2D
from ..runtime.api import Env
from ..runtime.launcher import Runtime
from ..runtime.results import RunResult

__all__ = [
    "run_diva",
    "run_diva_general",
    "run_handopt",
    "make_blocks",
    "expected_square",
    "block_multiply_ops",
]


def _side(mesh: Mesh2D) -> int:
    if mesh.rows != mesh.cols:
        raise ValueError(f"matrix multiplication requires a square mesh, got {mesh.rows}x{mesh.cols}")
    return mesh.rows


def make_blocks(mesh: Mesh2D, block_entries: int, seed: int = 0) -> Dict[Tuple[int, int], np.ndarray]:
    """Deterministic integer blocks ``A[i,j]``, held as float64 so block
    products run on BLAS.

    The arithmetic stays exact: entries are integers in ``[0, 100)``, so
    every partial sum of an ``n x n`` product is an integer of at most
    ``99**2 * n``, far below ``2**53`` (float64's exact-integer range) for
    any ``n`` a mesh can hold, whatever order BLAS sums in."""
    q = _side(mesh)
    s = math.isqrt(block_entries)
    if s * s != block_entries:
        raise ValueError(f"block_entries must be a perfect square, got {block_entries}")
    blocks = {}
    for i in range(q):
        for j in range(q):
            rng = np.random.default_rng(seed * 1_000_003 + i * q + j)
            blocks[(i, j)] = rng.integers(0, 100, size=(s, s), dtype=np.int64).astype(np.float64)
    return blocks


def expected_square(mesh: Mesh2D, blocks: Dict[Tuple[int, int], np.ndarray]) -> Dict[Tuple[int, int], np.ndarray]:
    """Reference result: the blocked square computed with numpy (exact,
    see :func:`make_blocks`)."""
    q = _side(mesh)
    out = {}
    for i in range(q):
        for j in range(q):
            s = blocks[(0, 0)].shape[0]
            acc = np.zeros((s, s))
            for k in range(q):
                acc += blocks[(i, k)] @ blocks[(k, j)]
            out[(i, j)] = acc
    return out


def block_multiply_ops(block_entries: int) -> float:
    """Elementary operations charged for one block-block multiply-add:
    ``s^3`` multiplications + ``s^3`` additions for ``s = sqrt(m)``."""
    s = math.isqrt(block_entries)
    return 2.0 * s**3


# ---------------------------------------------------------------- DIVA runs
def run_diva(
    mesh: Mesh2D,
    strategy: DataManagementStrategy,
    block_entries: int = 256,
    *,
    machine: MachineModel = GCEL,
    charge_compute: bool = False,
    verify: bool = True,
    seed: int = 0,
    **runtime_kwargs,
) -> RunResult:
    """Run the DIVA (shared-variable) matrix square under ``strategy``."""
    q = _side(mesh)
    blocks = make_blocks(mesh, block_entries, seed)
    payload = block_entries * machine.word_bytes
    handles: Dict[Tuple[int, int], object] = {}
    mul_ops = block_multiply_ops(block_entries)

    def program(env: Env):
        i, j = env.coord
        handles[(i, j)] = env.create(f"A[{i},{j}]", payload, value=blocks[(i, j)])
        yield from env.barrier(phase="read")
        s = math.isqrt(block_entries)
        h = np.zeros((s, s))
        for k0 in range(q):
            k = (k0 + i + j) % q
            a = yield from env.read(handles[(i, k)])
            b = yield from env.read(handles[(k, j)])
            h = h + a @ b
            yield from env.compute(ops=mul_ops)
        yield from env.barrier(phase="write")
        yield from env.write(handles[(i, j)], h)
        yield from env.barrier(phase="done")

    rt = Runtime(mesh, strategy, machine, charge_compute=charge_compute, seed=seed, **runtime_kwargs)
    result = rt.run(program)
    result.extra["runtime"] = rt
    result.extra["app"] = "matmul"
    result.extra["block_entries"] = block_entries
    if verify:
        expect = expected_square(mesh, blocks)
        ok = all(
            np.array_equal(rt.registry.get(handles[(i, j)]), expect[(i, j)])
            for i in range(q)
            for j in range(q)
        )
        if not ok:
            raise AssertionError("matrix square verification failed")
        result.extra["verified"] = True
    return result


def run_diva_general(
    mesh: Mesh2D,
    strategy: DataManagementStrategy,
    block_entries: int = 256,
    *,
    machine: MachineModel = GCEL,
    charge_compute: bool = False,
    verify: bool = True,
    seed: int = 0,
    **runtime_kwargs,
) -> RunResult:
    """General matrix multiplication ``C := A * B``.

    The paper deliberately evaluates the matrix *square* instead, "because
    the matrix square requires the data management strategy to create and
    invalidate copies ... whereas the general matrix multiplication does
    not require the invalidation of copies."  This variant implements the
    contrast: ``A`` and ``B`` are only read, the result goes to fresh ``C``
    variables, so the write phase triggers no invalidations at all -- an
    ablation for how much of the dynamic strategies' overhead is
    consistency maintenance.
    """
    q = _side(mesh)
    a_blocks = make_blocks(mesh, block_entries, seed)
    b_blocks = make_blocks(mesh, block_entries, seed + 104729)
    payload = block_entries * machine.word_bytes
    a_handles: Dict[Tuple[int, int], object] = {}
    b_handles: Dict[Tuple[int, int], object] = {}
    c_handles: Dict[Tuple[int, int], object] = {}
    mul_ops = block_multiply_ops(block_entries)

    def program(env: Env):
        i, j = env.coord
        a_handles[(i, j)] = env.create(f"A[{i},{j}]", payload, value=a_blocks[(i, j)])
        b_handles[(i, j)] = env.create(f"B[{i},{j}]", payload, value=b_blocks[(i, j)])
        c_handles[(i, j)] = env.create(f"C[{i},{j}]", payload, value=None)
        yield from env.barrier(phase="read")
        s = math.isqrt(block_entries)
        h = np.zeros((s, s))
        for k0 in range(q):
            k = (k0 + i + j) % q
            a = yield from env.read(a_handles[(i, k)])
            b = yield from env.read(b_handles[(k, j)])
            h = h + a @ b
            yield from env.compute(ops=mul_ops)
        yield from env.barrier(phase="write")
        yield from env.write(c_handles[(i, j)], h)
        yield from env.barrier(phase="done")

    rt = Runtime(mesh, strategy, machine, charge_compute=charge_compute, seed=seed, **runtime_kwargs)
    result = rt.run(program)
    result.extra["runtime"] = rt
    result.extra["app"] = "matmul-general"
    result.extra["block_entries"] = block_entries
    if verify:
        s = math.isqrt(block_entries)
        ok = True
        for i in range(q):
            for j in range(q):
                acc = np.zeros((s, s))
                for k in range(q):
                    acc += a_blocks[(i, k)] @ b_blocks[(k, j)]
                if not np.array_equal(rt.registry.get(c_handles[(i, j)]), acc):
                    ok = False
        if not ok:
            raise AssertionError("general matrix multiplication verification failed")
        result.extra["verified"] = True
    return result


# ---------------------------------------------------- hand-optimized runs
def run_handopt(
    mesh: Mesh2D,
    block_entries: int = 256,
    *,
    machine: MachineModel = GCEL,
    charge_compute: bool = False,
    verify: bool = True,
    seed: int = 0,
    **runtime_kwargs,
) -> RunResult:
    """Run the hand-optimized message-passing matrix square.

    Every processor injects its block into four neighbour pipelines (east,
    west, south, north); a processor receiving a block stores it and
    forwards it onward unless it sits at the end of the row/column.  Tags
    carry the direction; FIFO link order keeps origins sequential, and the
    hop-distance from the origin identifies each received block.
    """
    q = _side(mesh)
    blocks = make_blocks(mesh, block_entries, seed)
    payload = block_entries * machine.word_bytes
    mul_ops = block_multiply_ops(block_entries)
    results: Dict[Tuple[int, int], np.ndarray] = {}

    def program(env: Env):
        i, j = env.coord
        mine = blocks[(i, j)]
        yield from env.barrier(phase="distribute")

        # (direction tag, dx, dy): receive count along each incoming pipe.
        row: Dict[int, np.ndarray] = {j: mine}
        col: Dict[int, np.ndarray] = {i: mine}

        # Inject own block into the four pipelines.
        if j + 1 < q:
            yield from env.send(env.mesh.node(i, j + 1), (j, mine), payload, tag="E")
        if j - 1 >= 0:
            yield from env.send(env.mesh.node(i, j - 1), (j, mine), payload, tag="W")
        if i + 1 < q:
            yield from env.send(env.mesh.node(i + 1, j), (i, mine), payload, tag="S")
        if i - 1 >= 0:
            yield from env.send(env.mesh.node(i - 1, j), (i, mine), payload, tag="N")

        # Receive & forward: j blocks arrive from the west (origins < j),
        # q-1-j from the east, and the column analogues.
        for _ in range(j):
            origin, blk = yield from env.recv(tag="E")
            row[origin] = blk
            if j + 1 < q:
                yield from env.send(env.mesh.node(i, j + 1), (origin, blk), payload, tag="E")
        for _ in range(q - 1 - j):
            origin, blk = yield from env.recv(tag="W")
            row[origin] = blk
            if j - 1 >= 0:
                yield from env.send(env.mesh.node(i, j - 1), (origin, blk), payload, tag="W")
        for _ in range(i):
            origin, blk = yield from env.recv(tag="S")
            col[origin] = blk
            if i + 1 < q:
                yield from env.send(env.mesh.node(i + 1, j), (origin, blk), payload, tag="S")
        for _ in range(q - 1 - i):
            origin, blk = yield from env.recv(tag="N")
            col[origin] = blk
            if i - 1 >= 0:
                yield from env.send(env.mesh.node(i - 1, j), (origin, blk), payload, tag="N")

        yield from env.barrier(phase="compute")
        s = math.isqrt(block_entries)
        h = np.zeros((s, s))
        for k in range(q):
            h = h + row[k] @ col[k]
            yield from env.compute(ops=mul_ops)
        results[(i, j)] = h
        yield from env.barrier(phase="done")

    rt = Runtime(mesh, NullStrategy(), machine, charge_compute=charge_compute, seed=seed, **runtime_kwargs)
    result = rt.run(program)
    result.extra["runtime"] = rt
    result.extra["app"] = "matmul-handopt"
    result.extra["block_entries"] = block_entries
    if verify:
        expect = expected_square(mesh, blocks)
        ok = all(np.array_equal(results[(i, j)], expect[(i, j)]) for i in range(q) for j in range(q))
        if not ok:
            raise AssertionError("hand-optimized matrix square verification failed")
        result.extra["verified"] = True
    return result
