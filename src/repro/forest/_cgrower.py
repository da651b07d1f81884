"""Build, load and verify the optional C kernel for tree growth and inference.

The kernel (``_grower.c``) is a plain shared library — no Python or numpy
headers — compiled on demand with whatever C compiler the host provides
and driven through :mod:`ctypes`.  :meth:`Kernel.grow_forest` grows all
of a fit's trees in one call, straight into the packed node arrays.  To
stay bit-identical with the reference grower the kernel reproduces four
numpy behaviours: ``np.add.reduce``'s pairwise summation, ``np.dot``
through the very ``cblas_ddot`` numpy calls (resolved here from numpy's
own extension module), and, on the generator's ``bitgen_t``,
``Generator.integers(0, n, size=n)`` (the bootstrap) and
``Generator.choice(d, size=m, replace=False)`` (the feature draws).  It
also routes query rows through a packed forest (pool rows through their
bitmap index too) and reduces per-tree predictions to their across-tree
mean and std, a fifth reproduction of numpy (its axis-0 ``mean`` and
``std``).  :func:`load` checks all five against numpy on throwaway
generators before handing the kernel out.

Everything is best-effort: a missing compiler, a failed build, unwritable
build directories, an unresolvable ``ddot``, a failed check, or the
``REPRO_PURE_NUMPY`` environment variable all make :func:`load` return
``None``: the forest then grows one reference
:class:`~repro.forest.tree.RegressionTree` per tree and traversal takes
the numpy path (bit-identical, just slower).

Build artefacts are cached under ``_cbuild/`` next to this file (or the
system temp directory when the package is not writable), keyed by a hash
of the C source and compiler flags so stale libraries are never reused.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["load", "Kernel"]

_SOURCE = Path(__file__).with_name("_grower.c")

#: -ffp-contract=off is load-bearing: FMA contraction would fuse the
#: kernel's multiply/add chains into differently-rounded operations and
#: break bit-identity with the numpy reference.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Libraries to link; they must follow the source on the command line.
_LDLIBS = ("-lm",)

#: ``cblas_ddot`` names numpy may call, with whether each takes 64-bit
#: integers: numpy 2.x wheels, numpy 1.x wheels, then a system BLAS.
_DDOT_SYMBOLS = (
    ("scipy_cblas_ddot64_", True),
    ("cblas_ddot64_", True),
    ("cblas_ddot", False),
)

_lib: "Kernel | None" = None
_attempted = False


class Kernel:
    """The loaded library plus the numpy ``ddot`` it was verified against."""

    def __init__(self, lib: ctypes.CDLL, ddot: int, ddot_ilp64: bool) -> None:
        self.lib = lib
        self.build_routes = lib.repro_build_routes
        self.traverse = lib.repro_traverse
        self.traverse_pool = lib.repro_traverse_pool
        self.ddot = ddot
        self.ddot_ilp64 = ddot_ilp64

    def grow_forest(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_trees: int,
        rng: np.random.Generator,
        m: int,
    ) -> "tuple[dict[str, np.ndarray], np.ndarray]":
        """Grow ``n_trees`` presorted trees on ``(X, y)`` in one kernel call.

        ``X`` must be a finite 2-D float64 matrix with at least one row and
        ``y`` its finite float64 targets, as the forest checks before
        calling (finiteness is left to it; the shapes and dtypes, which
        bound the kernel's reads, are checked here too).  Each split draws
        ``m >= 1`` features, every one when ``m >= d``.  Each tree draws
        its bootstrap and its feature subsets from ``rng`` in the order a
        Python loop over :class:`~repro.forest.tree.RegressionTree` fits
        would.  Returns the packed node arrays by field name, child links
        global, and the ``n_trees + 1`` offsets of the trees' roots.
        """
        if (X.ndim != 2 or X.dtype != np.float64 or y.dtype != np.float64
                or y.shape != (len(X),) or not 0 < len(X) <= 2**32
                or m < 1):
            raise ValueError(
                "grow_forest needs a non-empty 2-D float64 X (at most 2**32 "
                "rows), one float64 target per row and m >= 1"
            )
        n, d = X.shape
        XT = np.ascontiguousarray(X.T)
        y = np.ascontiguousarray(y)
        # Dense ranks per feature, so the kernel can presort every sample
        # with a counting sort: equal values (-0.0 and 0.0 too) share one.
        # Flat ids into XT stand in for take/put_along_axis, which cost
        # more than the sort at these sizes.
        flat = np.argsort(XT, axis=1)
        flat += np.arange(0, d * n, n)[:, None]
        sorted_values = XT.ravel()[flat]
        dense = np.empty((d, n), dtype=np.intp)
        dense[:, 0] = 0
        np.not_equal(sorted_values[:, 1:], sorted_values[:, :-1], out=dense[:, 1:])
        dense.cumsum(axis=1, out=dense)
        rank = np.empty((d, n), dtype=np.intp)
        rank.ravel()[flat] = dense

        cap = n_trees * (2 * n - 1)  # a binary tree with at most n leaves
        inodes = np.empty((4, cap), dtype=np.intp)
        fnodes = np.empty((4, cap), dtype=np.float64)
        offsets = np.empty(n_trees + 1, dtype=np.intp)
        bitgen = rng.bit_generator
        with bitgen.lock:  # the kernel draws from the generator's state
            total = self.lib.repro_grow_forest(
                XT.ctypes.data, y.ctypes.data, rank.ctypes.data,
                n, d, m, n_trees, bitgen.ctypes.bit_generator,
                self.ddot, self.ddot_ilp64,
                inodes.ctypes.data, fnodes.ctypes.data, cap,
                offsets.ctypes.data,
            )
        if total < 0:
            raise MemoryError("forest-growth scratch allocation failed")
        feature, left, right, count = inodes[:, :total].copy()
        threshold, value, variance, impurity = fnodes[:, :total].copy()
        arrays = dict(
            feature=feature, threshold=threshold, left=left, right=right,
            value=value, variance=variance, count=count, impurity=impurity,
        )
        return arrays, offsets

    def tree_mean_std(
        self, P: np.ndarray, cols: "np.ndarray | None" = None, std: bool = True
    ) -> "tuple[np.ndarray, np.ndarray | None]":
        """``P[:, cols].mean(axis=0)`` and ``.std(axis=0)``, bit for bit.

        Reads the columns straight out of the C-contiguous float64
        ``(T, width)`` matrix ``P`` instead of copying them; ``None`` means
        every column.  ``cols`` is a 1-D integer array with numpy's
        indexing contract, enforced here because the kernel reads raw
        pointers: negative ids wrap, ids outside ``[-width, width)`` raise
        :class:`IndexError`.  The std is ``None`` unless ``std``.
        """
        if P.ndim != 2 or P.dtype != np.float64 or not P.flags.c_contiguous:
            raise ValueError("P must be a C-contiguous 2-D float64 array")
        T, width = P.shape
        cols_ptr = None
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
            if cols.ndim != 1:
                raise ValueError(f"cols must be 1-D, got shape {cols.shape}")
            if cols.size:
                lo, hi = int(cols.min()), int(cols.max())
                if lo < -width or hi >= width:
                    bad = lo if lo < -width else hi
                    raise IndexError(
                        f"index {bad} is out of bounds for axis 1 with "
                        f"size {width}"
                    )
                if lo < 0:
                    cols = np.where(cols < 0, cols + width, cols)
            cols = np.ascontiguousarray(cols)
            cols_ptr = cols.ctypes.data
        n = width if cols is None else len(cols)
        # One buffer for both results: each .ctypes.data lookup costs ~2 us,
        # which a one-row predict notices.
        out = np.empty((2 if std else 1, n))
        mean_ptr = out.ctypes.data
        rc = self.lib.repro_tree_mean_std(
            P.ctypes.data, T, width, cols_ptr, n, mean_ptr,
            mean_ptr + 8 * n if std else None,
        )
        if rc != 0:
            raise MemoryError("repro_tree_mean_std could not allocate scratch")
        return out[0], out[1] if std else None

    # The reproductions of numpy the grower needs, exposed for the
    # load-time check.
    def sum(self, a: np.ndarray) -> float:
        return self.lib.repro_sum(a.ctypes.data, len(a))

    def sumsq(self, a: np.ndarray) -> float:
        return self.lib.repro_sumsq(
            self.ddot, self.ddot_ilp64, a.ctypes.data, len(a)
        )

    def choice(self, rng: np.random.Generator, d: int, m: int) -> np.ndarray:
        out = np.empty(d, dtype=np.intp)
        seen = np.zeros(d, dtype=np.uint8)
        self.lib.repro_choice(
            rng.bit_generator.ctypes.bit_generator, d, m,
            out.ctypes.data, seen.ctypes.data,
        )
        return out[:m]

    def bootstrap(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.intp)
        self.lib.repro_bootstrap(
            rng.bit_generator.ctypes.bit_generator, n, out.ctypes.data
        )
        return out


def _configure(lib: ctypes.CDLL) -> None:
    ip = ctypes.c_int64
    lib.repro_grow_forest.restype = ip
    lib.repro_grow_forest.argtypes = [
        ctypes.c_void_p,  # XT
        ctypes.c_void_p,  # y
        ctypes.c_void_p,  # rank
        ip,               # n
        ip,               # d
        ip,               # m
        ip,               # n_trees
        ctypes.c_void_p,  # bitgen
        ctypes.c_void_p,  # ddot
        ip,               # ddot_ilp64
        ctypes.c_void_p,  # inodes
        ctypes.c_void_p,  # fnodes
        ip,               # cap
        ctypes.c_void_p,  # offsets
    ]
    lib.repro_build_routes.restype = ip
    lib.repro_build_routes.argtypes = [
        ctypes.c_void_p,  # feature
        ctypes.c_void_p,  # threshold
        ctypes.c_void_p,  # left
        ctypes.c_void_p,  # right
        ip,               # n_nodes
        ip,               # d
        ctypes.c_void_p,  # table
    ]
    lib.repro_traverse.restype = None
    lib.repro_traverse.argtypes = [
        ctypes.c_void_p,  # table
        ctypes.c_void_p,  # offsets
        ctypes.c_void_p,  # tree_ids
        ip,               # T
        ctypes.c_void_p,  # X
        ip,               # n_rows
        ip,               # d
        ctypes.c_void_p,  # payload (NULL: leaf ids)
        ctypes.c_void_p,  # out
    ]
    lib.repro_traverse_pool.restype = ip
    lib.repro_traverse_pool.argtypes = [
        ctypes.c_void_p,  # table
        ctypes.c_void_p,  # offsets
        ctypes.c_void_p,  # tree_ids
        ip,               # T
        ctypes.c_void_p,  # X
        ip,               # n_rows
        ip,               # d
        ctypes.c_void_p,  # levels
        ctypes.c_void_p,  # starts
        ctypes.c_void_p,  # bits
        ctypes.c_void_p,  # payload (NULL: leaf ids)
        ctypes.c_void_p,  # out
    ]
    lib.repro_tree_mean_std.restype = ip
    lib.repro_tree_mean_std.argtypes = [
        ctypes.c_void_p,  # P
        ip,               # T
        ip,               # width
        ctypes.c_void_p,  # cols
        ip,               # n
        ctypes.c_void_p,  # mean
        ctypes.c_void_p,  # sd (NULL: mean only)
    ]
    lib.repro_sum.restype = ctypes.c_double
    lib.repro_sum.argtypes = [ctypes.c_void_p, ip]
    lib.repro_sumsq.restype = ctypes.c_double
    lib.repro_sumsq.argtypes = [ctypes.c_void_p, ip, ctypes.c_void_p, ip]
    lib.repro_choice.restype = None
    lib.repro_choice.argtypes = [
        ctypes.c_void_p, ip, ip, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.repro_bootstrap.restype = None
    lib.repro_bootstrap.argtypes = [ctypes.c_void_p, ip, ctypes.c_void_p]


def _resolve_ddot() -> "tuple[int, bool] | None":
    """Address of the ``cblas_ddot`` numpy's ``np.dot`` calls, if found.

    Looking the symbol up through numpy's extension module searches its
    dependencies too, which is where a bundled BLAS lives.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name, ilp64 in _DDOT_SYMBOLS:
        if hasattr(lib, name):
            return ctypes.cast(getattr(lib, name), ctypes.c_void_p).value, ilp64
    return None


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _probe_tree_mean_std(kernel: Kernel) -> bool:
    """Whether the across-tree reduction matches numpy's mean and std.

    Tree counts 1, 2, 30 and 64 over magnitudes from 1e-8 to 1e8 with some
    -0.0 entries; a strict, unsorted subset of the columns with a negative
    id, a single column (numpy's pairwise branch), all columns, none, and
    a mean-only call.  The reference reduces a C-ordered copy of the
    columns, as the numpy pool path does (``P[:, cols]`` itself is
    F-ordered, and numpy sums a contiguous reduction axis pairwise).
    """
    r = np.random.default_rng(0x7EE5)
    for T in (1, 2, 30, 64):
        P = r.normal(size=(T, 41)) * 10.0 ** r.integers(-8, 9, size=(T, 41))
        P[r.random(P.shape) < 0.15] = -0.0
        P[:, 7] = -0.0
        subset = r.permutation(41)[:29]
        subset[3] -= 41
        for cols in (subset, [7], [12], None, []):
            ref = P if cols is None else np.ascontiguousarray(P[:, cols])
            mean, sd = kernel.tree_mean_std(P, cols)
            if not (_same_bits(mean, ref.mean(axis=0))
                    and _same_bits(sd, ref.std(axis=0))):
                return False
        mean, sd = kernel.tree_mean_std(P, subset, std=False)
        ref = np.ascontiguousarray(P[:, subset])
        if sd is not None or not _same_bits(mean, ref.mean(axis=0)):
            return False
    return True


def _probe(kernel: Kernel) -> bool:
    """Whether the kernel's sum, ddot, draws and reduction match numpy bit
    for bit.

    The lengths cover every branch of the pairwise sum (below 8, the
    8-accumulator block, the recursive halving) and one array longer than
    numpy's 8192-element reduction buffer; the feature draws cover Floyd's
    algorithm and the tail shuffle, the bootstrap draws a one-row sample
    (no draw at all) up to one past 2**16 rows, and each kind must leave
    the two generators in the same state.
    """
    a = np.random.default_rng(0x5EED).normal(size=9000)
    a[::7] *= 1e6  # mixed magnitudes, so association shows in the rounding
    lengths = (1, 2, 7, 8, 9, 16, 23, 128, 129, 200, 385, 1000, 9000)
    sums = [kernel.sum(a[:k]) for k in lengths]
    sqs = [kernel.sumsq(a[:k]) for k in lengths]
    if not _same_bits(sums, [np.add.reduce(a[:k]) for k in lengths]):
        return False
    if not _same_bits(sqs, [np.dot(a[:k], a[:k]) for k in lengths]):
        return False
    ours = np.random.default_rng(7)
    theirs = np.random.default_rng(7)
    for d, m in ((2, 1), (7, 2), (20, 13), (97, 30), (10050, 400)):
        drawn = kernel.choice(ours, d, m)
        if not np.array_equal(drawn, theirs.choice(d, size=m, replace=False)):
            return False
    if ours.bit_generator.state != theirs.bit_generator.state:
        return False
    ours = np.random.default_rng(11)
    theirs = np.random.default_rng(11)
    for n in (1, 2, 7, 60, 500, 70001):
        drawn = kernel.bootstrap(ours, n)
        if not np.array_equal(drawn, theirs.integers(0, n, size=n)):
            return False
    if ours.bit_generator.state != theirs.bit_generator.state:
        return False
    return _probe_tree_mean_std(kernel)


def _verified(lib: ctypes.CDLL) -> "Kernel | None":
    ddot = _resolve_ddot()
    if ddot is None:
        return None
    kernel = Kernel(lib, *ddot)
    return kernel if _probe(kernel) else None


def _build(so_path: Path) -> None:
    so_path.parent.mkdir(parents=True, exist_ok=True)
    # Unique temp name + atomic rename so concurrent builders cannot load a
    # half-written library.
    tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
    for compiler in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", str(tmp), str(_SOURCE), *_LDLIBS],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)
            return
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            continue
    raise RuntimeError("no working C compiler found")


def load() -> "Kernel | None":
    """Return the verified kernel, or ``None`` when unavailable."""
    global _lib, _attempted
    if _attempted:
        return _lib
    # repro: allow[SPAWN001] per-process lazy-load latch; each process probes the compiler once
    _attempted = True
    if os.environ.get("REPRO_PURE_NUMPY"):
        return None
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return None  # the kernel assumes LP64 (numpy intp == int64)
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    flags = " ".join(_CFLAGS + _LDLIBS)
    tag = hashlib.sha256((source + flags).encode()).hexdigest()[:16]
    candidates = (
        Path(__file__).parent / "_cbuild",
        Path(tempfile.gettempdir()) / "repro-cbuild",
    )
    for base in candidates:
        so_path = base / f"grower-{tag}.so"
        try:
            if not so_path.exists():
                _build(so_path)
            lib = ctypes.CDLL(str(so_path))
            _configure(lib)
        # repro: allow[EXC001] fall through to the next build candidate; total failure means the numpy fallback
        except Exception:
            continue
        # repro: allow[SPAWN001] per-process ctypes handle; processes never share it
        _lib = _verified(lib)
        return _lib
    return None
