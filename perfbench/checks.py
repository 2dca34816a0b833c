"""Output checks for the benchmark workloads.

Each check reads what the program wrote and returns a list of failures,
``(operations failed, reason)``; an empty list means the output passed.  The
reference values are computed here with numpy, independently of the code
path that produced the output, except where noted.  Checks run outside the
timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

FIG1_Z = 6.0  # |mean - expectation| / pooled stderr allowed per fig1 row
FIG2_RTOL = 1e-4  # power iteration may under-report the spectral norm by ~1e-5
WEIGHT_RTOL = 1e-9
EPS = float(np.finfo(np.float64).eps)


def digest(paths) -> str:
    """sha256 over the names and bytes of the given files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def group_weights(a: np.ndarray, b: np.ndarray, groups) -> np.ndarray:
    """|A_g B_g|_F per group by the Gram identity <A_g^T A_g, B_g B_g^T>, not by block products."""
    n = a.shape[1]
    w = (a.T @ a) * (b @ b.T)
    member = np.zeros((len(groups), n))
    for gi, g in enumerate(groups):
        member[gi, list(g)] = 1.0
    sq = np.einsum("kn,kn->k", member @ w, member)
    return np.sqrt(np.maximum(sq, 0.0))


def enhanced_pairs(p_finest: np.ndarray) -> list[list[int]]:
    """Pairs of consecutive indices in ascending-probability order; a trailing singleton for odd n."""
    order = [int(i) for i in np.argsort(p_finest, kind="stable")]
    return [order[i:i + 2] for i in range(0, len(order), 2)]


def _rel_close(value: float, reference: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference)


# ---------------------------------------------------------------------------
# fig1 / fig2
# ---------------------------------------------------------------------------

def check_fig1(text: str, expected_at_c1: dict[str, float], c_grid, trials: int):
    """Every (c, method) row present once, with ``trials`` trials, its mean squared error
    within ``FIG1_Z`` standard errors of the closed form ``expected_at_c1[method] / c``.

    The standard error of a row is its expectation times the method's
    pooled relative standard error, the root mean square of
    ``stderr / expectation`` over the method's rows.  A row's own stderr,
    from a handful of skewed samples, is too noisy for a fixed bound; the
    relative spread of the squared error barely changes with c.  The
    pairwise closed form may not exceed the finest one.
    """
    failures = []
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (int(row["c"]), row["method"])
        if key in rows:
            failures.append((trials, f"duplicate fig1 row {key}"))
        rows[key] = row
    for key in sorted(set(rows) - {(c, m) for c in c_grid for m in expected_at_c1}):
        failures.append((trials, f"unexpected fig1 row {key}"))
    finest = expected_at_c1["finest"]
    for method, e1 in expected_at_c1.items():
        if method != "finest" and not e1 <= finest * (1 + 1e-12):
            failures.append((trials * len(c_grid),
                             f"closed form of {method} ({e1!r}) exceeds finest ({finest!r})"))
        present = {}
        for c in c_grid:
            row = rows.get((c, method))
            if row is None:
                failures.append((trials, f"missing fig1 row {(c, method)}"))
                continue
            mean, stderr = float(row["mean_sq_frob_err"]), float(row["stderr"])
            if int(row["trials"]) != trials:
                failures.append((trials, f"fig1 row {(c, method)} reports {row['trials']} trials"))
            elif not (math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0):
                failures.append((trials, f"fig1 row {(c, method)} is not finite"))
            else:
                present[c] = (mean, stderr, e1 / c)
        if not present:
            continue
        rel_se = math.sqrt(statistics.fmean((se / ex) ** 2 for _, se, ex in present.values()))
        for c, (mean, _, expected) in present.items():
            if abs(mean - expected) > FIG1_Z * rel_se * expected + 1e-12 * expected:
                z = abs(mean - expected) / (rel_se * expected) if rel_se > 0 else math.inf
                failures.append((trials, f"fig1 row {(c, method)}: z = {z:.2f} "
                                         f"(mean {mean!r}, expected {expected!r})"))
    return failures


def check_fig2(text: str, methods, c_values, runs: int, recomputed: dict):
    """Every (method, c, run) row present once with a finite error; sampled rows
    agree with ``recomputed[(method, c, run)]`` within ``FIG2_RTOL``."""
    failures = []
    seen = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["method"], int(row["c"]), int(row["run"]))
        value = float(row["rel_2norm_err"])
        if key in seen:
            failures.append((1, f"duplicate fig2 row {key}"))
        seen[key] = value
    expected = {(m, c, r) for m in methods for c in c_values for r in range(runs)}
    for key in sorted(expected - set(seen)):
        failures.append((1, f"missing fig2 row {key}"))
    for key in sorted(set(seen) - expected):
        failures.append((1, f"unexpected fig2 row {key}"))
    for key in sorted(expected & set(seen)):
        value = seen[key]
        if not (math.isfinite(value) and value >= 0):
            failures.append((1, f"fig2 row {key} is {value!r}"))
        elif key in recomputed and not _rel_close(value, recomputed[key], FIG2_RTOL):
            failures.append((1, f"fig2 row {key}: {value!r} vs recomputed {recomputed[key]!r}"))
    return failures


# ---------------------------------------------------------------------------
# CLI requests
# ---------------------------------------------------------------------------

def read_csv_matrix(path) -> np.ndarray:
    text = Path(path).read_text()
    return np.array([[float(v) for v in line.split(",")] for line in text.split("\n") if line])


def check_sketch_outputs(out_dir, a: np.ndarray, b: np.ndarray, c: int, groups,
                         probabilities, weight_sum: float):
    """Outputs of one ``sketch`` request against independent references.

    ``groups`` is the partition the request should sample (0-based),
    ``probabilities`` its sampling distribution and ``weight_sum`` the total
    of its group weights (see ``group_weights``).  The estimate must equal
    ``(A * s) @ B`` built from the written draw log and distribution, within
    the GEMM forward-error bound ``n * eps * |A| |s| |B|``.
    """
    out = Path(out_dir)
    draws = json.loads((out / "draws.json").read_text())
    dist = json.loads((out / "distribution.json").read_text())
    bounds = json.loads((out / "bounds.json").read_text())
    estimate = read_csv_matrix(out / "estimate.csv")
    failures = []
    counts = np.asarray(draws["counts"], dtype=np.int64)
    if draws["c"] != c or int(counts.sum()) != c or len(draws["draws"]) != c:
        failures.append("draw log does not hold c draws")
    elif counts.size != len(groups) or not np.array_equal(
            np.bincount(np.asarray(draws["draws"]) - 1, minlength=len(groups)), counts):
        failures.append("draw counts disagree with the draws")
    if [[i - 1 for i in g] for g in dist["partition"]] != [list(g) for g in groups]:
        failures.append("distribution.json holds another partition")
    p = np.asarray(dist["weights"], dtype=np.float64)
    if p.shape != (len(groups),) or not np.allclose(p, probabilities, rtol=WEIGHT_RTOL, atol=0.0):
        failures.append("sampling probabilities differ from the reference")
    if not _rel_close(float(bounds["weight_sum"]), weight_sum, WEIGHT_RTOL):
        failures.append(f"bounds.json weight_sum {bounds['weight_sum']!r} vs {weight_sum!r}")
    if failures:
        return failures
    s = np.zeros(a.shape[1])
    for g, count, prob in zip(groups, counts, p):
        if count:
            s[list(g)] = count / (c * prob)
    reference = (a * s) @ b
    tol = a.shape[1] * EPS * ((np.abs(a) * np.abs(s)) @ np.abs(b))
    if estimate.shape != reference.shape:
        failures.append(f"estimate has shape {estimate.shape}, expected {reference.shape}")
    elif not np.all(np.abs(estimate - reference) <= tol):
        worst = float(np.max(np.abs(estimate - reference) / np.maximum(tol, np.finfo(float).tiny)))
        failures.append(f"estimate differs from (A*s)@B by {worst:.3g}x the error bound")
    return failures


def check_analyze_outputs(out_dir, weight_sum: float, c: int):
    """``analysis.json`` of one ``analyze --c --k --epsilon`` request."""
    payload = json.loads((Path(out_dir) / "analysis.json").read_text())
    failures = []
    if not _rel_close(float(payload["report"]["weight_sum"]), weight_sum, WEIGHT_RTOL):
        failures.append(f"analysis weight_sum {payload['report']['weight_sum']!r} vs {weight_sum!r}")
    tail = payload.get("tail_bound", {})
    if tail.get("c") != c or not (math.isfinite(tail.get("value", math.nan)) and tail["value"] >= 0):
        failures.append(f"tail bound missing or invalid: {tail}")
    if payload.get("draw_threshold", {}).get("c") != c:
        failures.append("draw threshold missing")
    return failures
