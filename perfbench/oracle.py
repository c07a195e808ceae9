"""Correctness gate for the benchmark's outputs.

Float outputs are held to two checks.  They must equal, bit for bit, a model
of ``fir_filter`` that is vectorised over windows but adds the terms of each
``a_pre`` and ``a_post`` row in ascending column order, the order
``apply_basic_op`` uses; and they must lie within 1e-12 relative of
``naive_fir``.  Exact outputs must equal ``naive_fir(exact=True)``.

The model reads only public data: ``plan.a_pre``, ``plan.a_post`` and the
diagonal ``kernel.s``.  ``spot_check`` compares it against ``apply_basic_op``
itself on a few windows, so a drift in either shows.
"""

from __future__ import annotations

import numpy as np

from minfilt import apply_basic_op

REL_TOL = 1e-12


def _signed_rows(matrix: np.ndarray) -> list[list[tuple[int, int]]]:
    rows: list[list[tuple[int, int]]] = [[] for _ in range(matrix.shape[0])]
    rr, cc = np.nonzero(matrix)
    for r, c in zip(rr.tolist(), cc.tolist()):
        rows[r].append((c, int(matrix[r, c])))
    return rows


def _row_sums(rows, columns: list[np.ndarray], width: int) -> list[np.ndarray]:
    out = []
    for row in rows:
        acc = np.zeros(width)
        for n, (c, sign) in enumerate(row):
            term = columns[c] if sign > 0 else -columns[c]
            acc = term if n == 0 else acc + term
        out.append(acc)
    return out


class RowOrderOracle:
    """Float ``fir_filter`` for one plan, one vector operation per matrix entry."""

    def __init__(self, plan):
        self.m = plan.m
        self.pre_rows = _signed_rows(np.asarray(plan.a_pre))
        self.post_rows = _signed_rows(np.asarray(plan.a_post))

    def outputs(self, s, signal) -> np.ndarray:
        x = np.asarray(signal, dtype=np.float64)
        n_out = len(x) - self.m + 1
        windows = (n_out + 1) // 2
        # An odd output count completes the last window with one zero sample.
        padded = np.zeros(2 * windows + self.m - 1)
        padded[: len(x)] = x
        columns = [padded[j : j + 2 * windows : 2] for j in range(self.m + 1)]
        t = _row_sums(self.pre_rows, columns, windows)
        mu = [float(sk) * tk for sk, tk in zip(s, t)]
        y0, y1 = _row_sums(self.post_rows, mu, windows)
        out = np.empty(2 * windows)
        out[0::2] = y0
        out[1::2] = y1
        return out[:n_out]


def same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.view(np.uint64) == b.view(np.uint64)


def spot_check(oracle: RowOrderOracle, kernel, signal) -> list[int]:
    """Windows on which the oracle and ``apply_basic_op`` differ in any bit.

    Checks the first, a middle and the last window, the last one padded when
    the output count is odd.
    """
    m = oracle.m
    want = oracle.outputs(kernel.s, signal)
    windows = (len(want) + 1) // 2
    bad = []
    for k in sorted({0, windows // 2, windows - 1}):
        tile = list(signal[2 * k : 2 * k + m + 1])
        tile += [0] * (m + 1 - len(tile))
        got = np.array(apply_basic_op(kernel, tile), dtype=np.float64)
        pair = want[2 * k : 2 * k + 2]
        if not same_bits(got[: len(pair)], pair).all():
            bad.append(k)
    return bad


def failed_float(y: list, oracle_out: np.ndarray, reference: list) -> int:
    """Outputs that differ from the oracle in any bit or from naive_fir by > 1e-12 relative."""
    if len(y) != len(oracle_out) or len(reference) != len(oracle_out):
        return len(oracle_out)
    got = np.array(y, dtype=np.float64)
    ref = np.array(reference, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(ref)), 1.0)
    bad = ~same_bits(got, oracle_out) | (np.abs(got - ref) > REL_TOL * scale)
    return int(bad.sum())


def failed_exact(y: list, reference: list) -> int:
    """Outputs that differ from the exact direct sums."""
    if len(y) != len(reference):
        return len(reference)
    return sum(a != b for a, b in zip(y, reference))
