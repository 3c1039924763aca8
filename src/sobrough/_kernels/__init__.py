"""The hot kernels, implemented once in NumPy (``_fallback``).

The library calls them through this package.  They live in their own
module so that a wrapper around a name here (the benchmark's tracer) does
not also wrap the calls one kernel makes to another.
"""

from ._fallback import (chen_prefix, hom_dist_block, hom_dist_matrix, interval_dp_table,
                        interval_push_rows, inverse_batch, level_diff_block, level_layout,
                        partition_dp_max, partition_push_rows, rowwise_mul, sobolev_pair_sum)

BACKEND = "python"
