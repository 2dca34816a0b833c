"""Randomized matrix-product sketching over index partitions.

Estimate a product A @ B by sampling groups of inner indices — single
columns/rows, pairs, or arbitrary coarser groups — rescaling their block
products, and averaging.  The package provides the samplers, the optimal and
aggregated sampling distributions, exact error expectations, exponential
tail bounds, and a seeded, byte-reproducible experiment harness.
"""

from .analysis import (BoundReport, DrawThreshold, PairingComparators,
                       bernstein_tail_bound, binomial_cdf, bound_report,
                       brute_force_expectation, expected_frobenius_error_sq,
                       min_draw_threshold, optimal_expected_error,
                       pairing_comparators, tail_bound_value,
                       uniform_spectral_bound)
from .distributions import (Plan, SamplingDistribution,
                            aggregate_distribution, distribution,
                            distribution_stats, distribution_to_json,
                            element_weight, group_weights,
                            optimal_distribution, optimal_plan,
                            uniform_distribution)
from .errors import (ConfigError, MatrixFileError, NumericError,
                     PartSketchError, ZeroProductError)
from .experiments import (ExperimentConfig, paper_scale, run_fig1, run_fig2,
                          run_table1)
from .matrices import (block_product, dense, frobenius_norm, multiply,
                       read_binary, read_csv, read_matrix, spectral_norm,
                       write_binary, write_csv)
from .partitions import (BALANCED, ENHANCED, SIMPLE, PairingStrategy,
                         Partition, coarsen, finest, pair_partition,
                         partition_from_json, partition_to_json,
                         random_pairing)
from .rng import derive_seed, derive_seeds, uniform_rows, uniform_stream
from .sketching import (SketchConfig, SketchResult, draw_log_json,
                        element_contribution, error_form, frobenius_errors,
                        pairwise_plan, sample_indices, sketch,
                        sketch_from_draws, sketch_trials)

__version__ = "0.1.0"
