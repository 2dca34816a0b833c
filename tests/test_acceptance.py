"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from partsketch import (BALANCED, ENHANCED, SIMPLE, ExperimentConfig,
                        PairingStrategy, Plan, SketchConfig,
                        aggregate_distribution, coarsen, dense,
                        expected_frobenius_error_sq, finest, frobenius_norm,
                        min_draw_threshold, multiply, optimal_distribution,
                        pair_partition, paper_scale, pairing_comparators,
                        run_fig1, run_fig2, run_table1, sketch, sketch_trials,
                        spectral_norm, uniform_spectral_bound)
from partsketch.cli import main
from partsketch.rng import derive_seed, derive_seeds
from helpers import (all_pairings, brute_force_expectation, distribution, element_weight,
                     random_coarsening, random_instance)

DESK = ExperimentConfig(seed=2024)


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status} - {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mean = 0.0
    worst_err = 0.0
    for _ in range(50):
        a, b = random_instance(rng, max_rows=4, max_n=4, max_cols=4)
        n = a.shape[1]
        part = random_coarsening(rng, n, max_groups=3)
        while part.k > 3:
            part = random_coarsening(rng, n, max_groups=3)
        d = distribution(part, rng.random(part.k) + 0.1, normalize=True)
        c = int(rng.integers(1, 4))
        mean, err_sq = brute_force_expectation(a, b, part, d, c)
        exact = multiply(a, b)
        formula = expected_frobenius_error_sq(a, b, part, d, c)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - exact))))
        worst_err = max(worst_err, abs(err_sq - formula) / max(1.0, abs(formula)))
    elapsed = time.perf_counter() - start
    criterion(1, "enumeration oracle: mean estimate is the product, error matches closed form",
              worst_mean <= 1e-12 and worst_err <= 1e-12 and elapsed < 10,
              f"max mean dev {worst_mean:.2e}, max err dev {worst_err:.2e}, {elapsed:.1f}s")


def test_criterion_02_monte_carlo_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    a = dense(rng.random((10, 20)) - 0.5)
    b = dense(rng.random((20, 10)) - 0.5)
    part = finest(20)
    d = optimal_distribution(a, b, part)
    exact = multiply(a, b)
    c, trials = 5, 10**5
    total = 0.0
    # trial t is sketch(a, b, part, d, SketchConfig(c, derive_seed(2020, t))) bit for bit
    for result in sketch_trials([(Plan(a, b, d), c, derive_seeds(2020, (), trials))]):
        diff = exact - result.estimate
        total += float(np.sum(diff * diff))
    empirical = total / trials
    theory = expected_frobenius_error_sq(a, b, part, d, c)
    rel_dev = abs(empirical - theory) / theory
    elapsed = time.perf_counter() - start
    criterion(2, "empirical mean squared error within 3% of closed form over 1e5 trials",
              rel_dev <= 0.03 and elapsed < 60,
              f"relative deviation {rel_dev:.4f}, {elapsed:.1f}s")


def test_criterion_03_optimal_distribution_is_a_minimum():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(10):
        a, b = random_instance(rng)
        part = random_coarsening(rng, a.shape[1])
        d = optimal_distribution(a, b, part)
        best = expected_frobenius_error_sq(a, b, part, d, 2)
        for _ in range(100):
            noise = 1.0 + (rng.random(part.k) - 0.5)
            perturbed = distribution(part, d.weights * noise, normalize=True)
            if np.any((perturbed.weights == 0) & (d.weights > 0)):
                continue
            value = expected_frobenius_error_sq(a, b, part, perturbed, 2)
            ok = ok and value >= best - 1e-12
    criterion(3, "100 renormalized perturbations never beat the optimal distribution", ok)


def test_criterion_04_coarser_partitions_never_lose():
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for _ in range(100):
        a, b = random_instance(rng)
        part = random_coarsening(rng, a.shape[1])
        coarse = expected_frobenius_error_sq(a, b, part, optimal_distribution(a, b, part), 2)
        fine_part = finest(a.shape[1])
        fine = expected_frobenius_error_sq(a, b, fine_part, optimal_distribution(a, b, fine_part), 2)
        worst = max(worst, coarse - fine)
        ok = ok and coarse <= fine + 1e-12
    criterion(4, "optimal coarse-partition error bounded by finest-partition error",
              ok, f"max excess {worst:.2e}")


def test_criterion_05_aggregated_distributions_never_lose():
    rng = np.random.default_rng(505)
    ok = True
    for i in range(20):
        a, b = random_instance(rng)
        n = a.shape[1]
        p_o = optimal_distribution(a, b, finest(n))
        fine = expected_frobenius_error_sq(a, b, p_o.support, p_o, 2)
        parts = [pair_partition(p_o.weights, s)
                 for s in (ENHANCED, BALANCED, SIMPLE, PairingStrategy("random", 9000 + i))]
        parts.append(random_coarsening(rng, n))
        for part in parts:
            agg = aggregate_distribution(p_o, part)
            value = expected_frobenius_error_sq(a, b, part, agg, 2)
            ok = ok and value <= fine + 1e-12
    criterion(5, "all four pairings and random coarsenings with aggregated probabilities "
                 "stay below the finest-partition error", ok)


def test_criterion_06_draw_threshold_reproduction():
    start = time.perf_counter()
    threshold = min_draw_threshold(500, 2000)
    elapsed = time.perf_counter() - start
    criterion(6, "draw threshold for c=500, k=2000 is exactly 3",
              threshold == 3 and elapsed < 1.0, f"threshold={threshold}, {elapsed:.3f}s")


def test_criterion_07_pathwise_frobenius_bound():
    rng = np.random.default_rng(707)
    runs = 0
    violations = 0
    for i in range(50):
        a, b = random_instance(rng)
        n = a.shape[1]
        part = random_coarsening(rng, n) if i % 2 else finest(n)
        d = optimal_distribution(a, b, part)
        weight_total = sum(element_weight(a, b, g) for g in part.groups)
        for t in range(200):
            res = sketch(a, b, part, d, SketchConfig(int(rng.integers(1, 9)), derive_seed(707, i, t)))
            runs += 1
            if frobenius_norm(res.estimate) > weight_total + 1e-9:
                violations += 1
    criterion(7, "estimate Frobenius norm never exceeds the weight sum (1e4 sketches)",
              runs == 10**4 and violations == 0, f"{violations} violations in {runs} runs")


def test_criterion_08_uniform_sampling_spectral_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    k, c, runs = 200, 100, 10**4
    a = dense(rng.random((30, k)))
    b = dense(rng.random((k, 30)))
    part = finest(k)
    d = distribution(part, np.ones(k), normalize=True)
    threshold = min_draw_threshold(c, k)
    assert threshold is not None
    bound = uniform_spectral_bound(a, b, c, k, threshold)
    covered = 0
    for t in range(runs):
        res = sketch(a, b, part, d, SketchConfig(c, derive_seed(808, t)))
        if spectral_norm(res.estimate) <= bound:
            covered += 1
    coverage = covered / runs
    elapsed = time.perf_counter() - start
    criterion(8, "uniform-sampling spectral bound holds in at least 98.5% of 1e4 runs",
              coverage >= 0.985 and elapsed < 300,
              f"coverage {coverage:.4f}, s_c={threshold}, {elapsed:.1f}s")


def test_criterion_09_pairing_comparators():
    rng = np.random.default_rng(909)
    ok = True
    for i in range(100):
        a, b = random_instance(rng, max_n=8, centered=False)
        p_o = optimal_distribution(a, b, finest(a.shape[1]))
        strategy = (ENHANCED, BALANCED, SIMPLE, PairingStrategy("random", i))[i % 4]
        comp = pairing_comparators(a, b, pair_partition(p_o.weights, strategy))
        ok = ok and comp.paired_deviation_bound <= comp.single_deviation_bound + 1e-12
        ok = ok and comp.paired_variance_bound <= comp.single_variance_bound + 1e-12
    exhaustive_ok = True
    for n in (4, 6, 8):
        a, b = random_instance(rng, n=n, centered=False)
        p_o = optimal_distribution(a, b, finest(n))
        enhanced_value = pairing_comparators(
            a, b, pair_partition(p_o.weights, ENHANCED)).paired_deviation_bound
        for pairing in all_pairings(list(range(n))):
            value = pairing_comparators(a, b, coarsen(pairing, n)).paired_deviation_bound
            exhaustive_ok = exhaustive_ok and enhanced_value <= value + 1e-12 * max(1.0, value)
    criterion(9, "paired comparators never exceed single-index ones; enhanced pairing "
                 "attains the exhaustive minimum for n <= 8", ok and exhaustive_ok)


def test_criterion_10_error_curves_desk_scale(tmp_path):
    start = time.perf_counter()
    rows = run_fig1(DESK, tmp_path)
    finest_err = {r["c"]: r["mean_rel_frob_err"] for r in rows if r["method"] == "finest"}
    pair_err = {r["c"]: r["mean_rel_frob_err"] for r in rows if r["method"] == "pairwise-enhanced"}
    grid = sorted(finest_err)
    hits = sum(1 for c in grid if pair_err[c] <= finest_err[c])
    elapsed = time.perf_counter() - start
    criterion(10, "pairwise error curve at or below the finest curve on >= 90% of the grid",
              hits / len(grid) >= 0.9 and elapsed < 600,
              f"{hits}/{len(grid)} grid points, {elapsed:.0f}s")


def test_criterion_11_error_histograms_desk_scale(tmp_path):
    rows = run_fig2(DESK, tmp_path)
    means = {}
    for r in rows:
        means.setdefault((r["method"], r["c"]), []).append(r["rel_2norm_err"])
    means = {key: float(np.mean(vals)) for key, vals in means.items()}
    c_lo, c_hi = DESK.fig2_c_values(DESK.cols)
    pair_beats = (means[("pairwise-enhanced", c_lo)] < means[("finest", c_lo)]
                  and means[("pairwise-enhanced", c_hi)] < means[("finest", c_hi)])
    shrinks = (means[("finest", c_hi)] < means[("finest", c_lo)]
               and means[("pairwise-enhanced", c_hi)] < means[("pairwise-enhanced", c_lo)])
    criterion(11, "pairwise mean spectral error strictly below finest at both sample "
                  "counts, and both shrink with more samples",
              pair_beats and shrinks,
              ", ".join(f"{m}@{c}={v:.4f}" for (m, c), v in sorted(means.items())))


def test_criterion_12_probability_table_paper_scale(tmp_path):
    stats = run_table1(paper_scale(ExperimentConfig(seed=31)), tmp_path)
    fin, pair = stats["finest"], stats["pairwise"]
    means_exact = (abs(fin["mean"] - 0.0005) < 1e-12 and abs(pair["mean"] - 0.001) < 1e-12)
    max_ok = 0.85 * 0.00065 <= fin["max"] <= 1.15 * 0.00065
    min_ok = 0.85 * 0.00033 <= fin["min"] <= 1.15 * 0.00033
    criterion(12, "paper-scale probability table: exact means, max/min within 15%",
              means_exact and max_ok and min_ok,
              f"max={fin['max']:.5f}, min={fin['min']:.5f}")


def test_criterion_13_cli_byte_determinism(tmp_path):
    flags = ["--rows", "6", "--cols", "10", "--c-min", "4", "--c-max", "8",
             "--c-step", "4", "--trials", "6", "--runs", "5", "--seed", "77"]
    ok = True
    for which, name in (("fig1", "fig1.csv"), ("fig2", "fig2.csv"), ("table1", "table1.json")):
        for d in ("one", "two"):
            assert main(["experiment", which, *flags, "--out-dir", str(tmp_path / d)]) == 0
        ok = ok and ((tmp_path / "one" / name).read_bytes()
                     == (tmp_path / "two" / name).read_bytes())
    rng = np.random.default_rng(5)
    from partsketch import write_csv
    write_csv(dense(rng.random((3, 4))), tmp_path / "a.csv")
    write_csv(dense(rng.random((4, 3))), tmp_path / "b.csv")
    sketch_flags = ["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                    "--c", "7", "--seed", "3", "--strategy", "enhanced"]
    for d in ("s1", "s2"):
        assert main([*sketch_flags, "--out-dir", str(tmp_path / d)]) == 0
    for name in ("estimate.csv", "draws.json", "bounds.json", "distribution.json"):
        ok = ok and ((tmp_path / "s1" / name).read_bytes()
                     == (tmp_path / "s2" / name).read_bytes())
    criterion(13, "CLI reruns with the same seed produce byte-identical files", ok)
