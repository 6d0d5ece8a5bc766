"""Output checks for the benchmark that share no code with trisum.

Every function works on plain numpy arrays and Python integers, so a
fault in trisum's weighting, verifier or oracle code cannot hide itself
by also being present in the check. A failed check raises CheckFailed.
`self_test` plants one fault per check and shows that each is rejected.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, islice, product

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def weighted_sums(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of incident weights per vertex, accumulated edge by edge."""
    sums = np.zeros(n, dtype=np.int64)
    np.add.at(sums, edges[:, 0], weights)
    np.add.at(sums, edges[:, 1], weights)
    return sums


def check_weighting(n: int, edges: np.ndarray, weights, k: int = 3) -> np.ndarray:
    """Require integer weights in 1..k and no edge with equal endpoint sums.

    Returns the recounted weighted degrees.
    """
    w = np.asarray(weights)
    if w.shape != (edges.shape[0],):
        raise CheckFailed(f"{w.shape[0]} weights for {edges.shape[0]} edges")
    if w.size and w.dtype.kind not in "iu":
        raise CheckFailed(f"weights have dtype {w.dtype}, not integer")
    if w.size and (int(w.min()) < 1 or int(w.max()) > k):
        raise CheckFailed(f"weights span [{int(w.min())}, {int(w.max())}], outside [1, {k}]")
    sums = weighted_sums(n, edges, w.astype(np.int64))
    clash = np.flatnonzero(sums[edges[:, 0]] == sums[edges[:, 1]])
    if clash.size:
        u, v = (int(x) for x in edges[clash[0]])
        raise CheckFailed(
            f"{clash.size} edges join equal sums, first ({u}, {v}) at {int(sums[u])}"
        )
    return sums


def check_simple(n: int, edges: np.ndarray) -> None:
    """Require ids in range, no loops and no repeated pair in either orientation."""
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise CheckFailed(f"edge array has shape {edges.shape}")
    if not edges.size:
        return
    if int(edges.min()) < 0 or int(edges.max()) >= n:
        raise CheckFailed(f"vertex id outside [0, {n})")
    lo = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
    hi = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
    if (lo == hi).any():
        raise CheckFailed("self-loop")
    keys = lo * n + hi
    if np.unique(keys).size != keys.size:
        raise CheckFailed(f"{keys.size - np.unique(keys).size} repeated edges")


def check_regular(n: int, edges: np.ndarray, d: int) -> None:
    """Require a simple graph on n vertices in which every degree is exactly d."""
    check_simple(n, edges)
    if edges.shape[0] * 2 != n * d:
        raise CheckFailed(f"{edges.shape[0]} edges, a {d}-regular graph on {n} has {n * d // 2}")
    deg = np.bincount(edges.ravel(), minlength=n)
    if deg.size != n or (deg != d).any():
        raise CheckFailed(f"degrees span [{int(deg.min())}, {int(deg.max())}], not all {d}")


def check_gnp_edge_count(n: int, p: float, m: int) -> None:
    """Require m within five standard deviations of p * C(n, 2)."""
    pairs = n * (n - 1) // 2
    mean = p * pairs
    sigma = math.sqrt(pairs * p * (1.0 - p))
    if abs(m - mean) > 5.0 * sigma:
        raise CheckFailed(f"G({n}, {p}) has {m} edges, expected {mean:.0f} +- 5 * {sigma:.1f}")


def degree_regime(n: int, edges: np.ndarray, min_delta_ratio: float,
                  floor: float) -> tuple[int, int, float]:
    """(min degree, max degree, needed) after requiring min degree >= needed."""
    deg = np.bincount(edges.ravel(), minlength=n)
    lo, hi = int(deg.min()), int(deg.max())
    needed = max(min_delta_ratio * math.log(max(hi, 2)), floor)
    if lo < needed:
        raise CheckFailed(f"min degree {lo} is below the regime floor {needed:.1f}")
    return lo, hi, needed


def connected_labelled_counts(n_max: int) -> dict[int, int]:
    """Connected labelled graphs on n vertices (OEIS A001187), n = 1..n_max.

    c(n) = 2^C(n,2) - sum_{k<n} C(n-1, k-1) * c(k) * 2^C(n-k,2): all graphs
    minus those whose component through vertex 1 has k < n vertices.
    """
    c: dict[int, int] = {}
    for n in range(1, n_max + 1):
        c[n] = 2 ** math.comb(n, 2) - sum(
            math.comb(n - 1, k - 1) * c[k] * 2 ** math.comb(n - k, 2) for k in range(1, n)
        )
    return c


def check_sweep(n_max: int, total: int, row_sizes: list[int], counterexamples: int) -> None:
    """Require exactly one row per connected labelled graph on 3..n_max vertices."""
    expected = {n: c for n, c in connected_labelled_counts(n_max).items() if n >= 3}
    seen = Counter(row_sizes)
    if dict(seen) != expected:
        raise CheckFailed(f"graphs per vertex count {dict(seen)}, expected {expected}")
    if total != sum(expected.values()):
        raise CheckFailed(f"sweep reports {total} graphs, expected {sum(expected.values())}")
    if counterexamples:
        raise CheckFailed(f"{counterexamples} graphs need a weight above 3")


def graph_from_mask(n: int, mask: int) -> np.ndarray:
    """Edges of the graph whose bit i marks the i-th pair of range(n), lexicographic."""
    pairs = [pair for i, pair in enumerate(combinations(range(n), 2)) if mask >> i & 1]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def is_connected(n: int, edges: np.ndarray) -> bool:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == n


def brute_min_k(n: int, edges: np.ndarray, k_max: int) -> int | None:
    """Least k <= k_max with a conflict-free weighting, by trying all k^m of them."""
    m = edges.shape[0]
    incidence = np.zeros((m, n), dtype=np.int64)
    incidence[np.arange(m), edges[:, 0]] = 1
    incidence[np.arange(m), edges[:, 1]] = 1
    for k in range(1, k_max + 1):
        # Fixed-size chunks keep memory flat whatever m is.
        candidates = product(range(1, k + 1), repeat=m)
        while chunk := list(islice(candidates, 4096)):
            sums = np.asarray(chunk, dtype=np.int64).reshape(-1, m) @ incidence
            if (sums[:, edges[:, 0]] != sums[:, edges[:, 1]]).all(axis=1).any():
                return k
    return None


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test() -> None:
    """Plant one fault per check; raise CheckFailed if any fault is accepted."""
    k3 = np.array([[0, 1], [0, 2], [1, 2]])
    p3 = np.array([[0, 1], [1, 2]])
    c4 = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    accepted = []
    # Sums 3, 4, 5: a valid 3-weighting of K3 must pass.
    if _rejects(check_weighting, 3, k3, np.array([1, 2, 3])):
        accepted.append("valid K3 weighting rejected")
    planted = {
        "conflict": (check_weighting, 3, k3, np.array([1, 1, 1])),
        # The next three have distinct adjacent sums, so only the range
        # check can reject them.
        "weight 0": (check_weighting, 3, k3, np.array([0, 2, 3])),
        "weight 4": (check_weighting, 3, k3, np.array([1, 2, 4])),
        "weights 7 and 9": (check_weighting, 3, p3, np.array([7, 9])),
        "duplicate edge": (check_simple, 3, np.array([[0, 1], [1, 2], [1, 0]])),
        "duplicate edge, degrees regular": (
            check_regular, 4, np.array([[0, 1], [0, 1], [2, 3], [2, 3]]), 2),
        "wrong degree": (check_regular, 4, np.array([[0, 1], [1, 2], [2, 3]]), 2),
        "edge count 6 sigma off": (check_gnp_edge_count, 1000, 0.5, 249750 + 6 * 354),
        "wrong sweep total": (check_sweep, 4, 43, [3] * 4 + [4] * 38, 0),
        "missing sweep graph": (check_sweep, 4, 41, [3] * 4 + [4] * 37, 0),
        "sweep counterexample": (check_sweep, 4, 42, [3] * 4 + [4] * 38, 1),
    }
    accepted += [name for name, (check, *args) in planted.items() if not _rejects(check, *args)]
    if _rejects(check_regular, 4, c4, 2) or _rejects(check_sweep, 4, 42, [3] * 4 + [4] * 38, 0):
        accepted.append("valid C4 or sweep rejected")
    known = {"K2": (2, [[0, 1]], None), "P3": (3, p3, 1), "C4": (4, c4, 2), "K3": (3, k3, 3)}
    for name, (n, edges, want) in known.items():
        if brute_min_k(n, np.asarray(edges), 3) != want:
            accepted.append(f"brute force min k of {name}")
    if connected_labelled_counts(6) != {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}:
        accepted.append("connected labelled graph counts")
    if accepted:
        raise CheckFailed("self-test: checks accepted planted faults: " + ", ".join(accepted))
