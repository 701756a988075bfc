"""Effective Pauli channel of a stabilizer code, by enumerating every error.

This is the benchmark's independent check of the coding map on Pauli
noise.  It reads only a code's generators, logical operators and recovery
list (as letter words) and does its own symplectic arithmetic on x/z bit
masks: for each of the 4^n Pauli errors E it finds the syndrome, applies
the recovery operator R of that syndrome, and classifies R E by its
commutation with the logical operators.  The result is a table

    count[L, a, b, c] = #{E : class(R E) = L, E has a X's, b Y's, c Z's}

from which the effective logical Pauli probabilities are polynomials in
the physical ones:  P_L = sum count[L,a,b,c] pI^(n-a-b-c) pX^a pY^b pZ^c.
Nothing here calls into the package's polynomial or Stokes code paths.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 14  # errors per enumeration step; keeps peak memory small


def _masks(letters: str) -> tuple[int, int]:
    x = z = 0
    for j, c in enumerate(letters):
        if c in "XY":
            x |= 1 << j
        if c in "YZ":
            z |= 1 << j
    return x, z


class PauliReference:
    """Enumeration table of one code and vectorised evaluation of it."""

    def __init__(self, n: int, generators, logical_x: str, logical_z: str, recovery) -> None:
        self.n = n
        pop = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int64)
        full = (1 << n) - 1
        gens = [_masks(g) for g in generators]

        def syndrome(x, z):
            s = np.zeros_like(x)
            for i, (gx, gz) in enumerate(gens):
                s |= ((pop[x & gz] + pop[z & gx]) & 1) << i
            return s

        rx = np.array([_masks(r)[0] for r in recovery], dtype=np.int64)
        rz = np.array([_masks(r)[1] for r in recovery], dtype=np.int64)
        size = 1 << len(gens)
        slots = syndrome(rx, rz)
        if len(recovery) != size or len(set(slots.tolist())) != size:
            raise ValueError("recovery list does not cover every syndrome exactly once")
        rec_x = np.empty(size, dtype=np.int64)
        rec_z = np.empty(size, dtype=np.int64)
        rec_x[slots], rec_z[slots] = rx, rz

        lxx, lxz = _masks(logical_x)
        lzx, lzz = _masks(logical_z)
        # (anticommutes with Z_bar, anticommutes with X_bar) -> I, X, Z, Y
        class_of = np.array([0, 1, 3, 2], dtype=np.int64)
        side = n + 1
        counts = np.zeros(4 * side**3, dtype=np.int64)
        for start in range(0, 1 << (2 * n), _CHUNK):
            e = np.arange(start, min(start + _CHUNK, 1 << (2 * n)), dtype=np.int64)
            ex, ez = e & full, e >> n
            s = syndrome(ex, ez)
            nx, nz = ex ^ rec_x[s], ez ^ rec_z[s]
            if np.any(syndrome(nx, nz)):
                raise ValueError("recovery leaves a nonzero syndrome")
            has_x = (pop[nx & lzz] + pop[nz & lzx]) & 1
            has_z = (pop[nx & lxz] + pop[nz & lxx]) & 1
            cls = class_of[has_x + 2 * has_z]
            a, b, c = pop[ex & ~ez & full], pop[ex & ez], pop[ez & ~ex & full]
            counts += np.bincount(((cls * side + a) * side + b) * side + c, minlength=counts.size)
        table = counts.reshape(4, side, side, side)
        keys = np.argwhere(table.any(axis=0))
        self.exps = np.column_stack([n - keys.sum(axis=1), keys])  # (terms, 4): I, X, Y, Z
        self.coef = np.array(
            [[float(table[cls, a, b, c]) for a, b, c in keys] for cls in range(4)]
        )

    @classmethod
    def of(cls, code) -> "PauliReference":
        """Reference for a package code object, from its defining operators only."""
        return cls(
            code.n,
            [g.letters for g in code.generators],
            code.logical_x.letters,
            code.logical_z.letters,
            [r.letters for r in code.recovery],
        )

    def logical_probs(self, p_i, p_x, p_y, p_z) -> np.ndarray:
        """Effective (P_I, P_X, P_Y, P_Z), broadcast over array arguments."""
        p = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p_i, p_x, p_y, p_z))))
        mono = np.prod(p[None, ...] ** self.exps.reshape(self.exps.shape + (1,) * (p.ndim - 1)), axis=1)
        return np.tensordot(self.coef, mono, axes=1)

    def diagonal(self, x, y, z):
        """Effective diagonal Stokes entries (x', y', z') of the channel [x, y, z]."""
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        q = self.logical_probs(
            (1 + x + y + z) / 4, (1 + x - y - z) / 4, (1 - x + y - z) / 4, (1 - x - y + z) / 4
        )
        return 1 - 2 * (q[2] + q[3]), 1 - 2 * (q[1] + q[3]), 1 - 2 * (q[1] + q[2])

    def thresholds(self, directions, tol_eps: float, tol_conv: float, k_max: int) -> np.ndarray:
        """Bisection thresholds along rays [1,1,1] - eps * d, all rays at once.

        Same rule as the package documents for `threshold`: the largest
        probed eps in [0, 1] whose orbit reaches distance < tol_conv from the
        identity within k_max levels (1.0 if eps = 1 already converges).
        """
        d = np.asarray(directions, dtype=float)

        def converges(eps: np.ndarray) -> np.ndarray:
            x, y, z = (1.0 - eps * d[:, 0], 1.0 - eps * d[:, 1], 1.0 - eps * d[:, 2])
            done = np.maximum(np.maximum(abs(1.0 - x), abs(1.0 - y)), abs(1.0 - z)) < tol_conv
            for _ in range(k_max):
                x, y, z = self.diagonal(x, y, z)
                done |= np.maximum(np.maximum(abs(1.0 - x), abs(1.0 - y)), abs(1.0 - z)) < tol_conv
            return done

        top = converges(np.ones(len(d)))
        lo, hi = np.zeros(len(d)), np.ones(len(d))
        while hi[0] - lo[0] > tol_eps:
            mid = 0.5 * (lo + hi)
            ok = converges(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        return np.where(top, 1.0, lo)
