"""The search's memoized estimate vs the materializing reference.

The chains that check it live in ``test_chains.py``: one long-lived
``StreamingEstimator`` pricing one env through rollback-heavy
trajectories, field-exact against ``oracle.reference_estimate`` at every
checked step, and a fresh estimator equal to it at the end.  The ids
below are entry points into those chains: each runs the chain of its
family that covers it, once per session.
"""

import pytest

from test_chains import SEEDS, run_chain

CASES = ["transformer", "gns", "unet", "bottleneck", "pipeline"]


@pytest.mark.parametrize("case", range(len(CASES)), ids=CASES)
@pytest.mark.parametrize("seed", range(13))
def test_differential_streaming_materialized_field_exact(case, seed):
    run_chain(CASES[case], seed % len(SEEDS))
