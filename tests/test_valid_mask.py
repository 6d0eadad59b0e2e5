"""``Measurer.valid_mask``: static validity of many configurations at once.

The mask is one workload batch through the simulator's validity rules.
For any index list, duplicates and the empty list included, it must equal
the one-position ``is_valid`` views and the valid/invalid split a
fault-free ``measure_batch`` reports, and checking it must bill the
ledger nothing, draw nothing from the measurement RNG and read no DB.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measure import Measurer
from repro.core.results import MeasurementDB
from repro.kernels import ConvolutionKernel, RaycastingKernel, StereoKernel
from repro.runtime import Context
from repro.simulator import (
    AMD_HD7970,
    INTEL_I7_3770,
    NVIDIA_C2070,
    NVIDIA_GTX980,
    NVIDIA_K40,
)
from repro.simulator.extra_devices import XEON_PHI_5110P

DEVICES = (
    INTEL_I7_3770, NVIDIA_K40, AMD_HD7970, NVIDIA_C2070, NVIDIA_GTX980,
    XEON_PHI_5110P,
)
SPECS = {cls.name: cls() for cls in (ConvolutionKernel, RaycastingKernel, StereoKernel)}


@st.composite
def index_lists(draw, size):
    """Indices with repeats drawn in, in any order; possibly empty."""
    base = draw(st.lists(st.integers(0, size - 1), max_size=30))
    if base:
        base += draw(st.lists(st.sampled_from(base), max_size=10))
    return draw(st.permutations(base))


class UnreadableDB(MeasurementDB):
    """A DB whose every read fails the test."""

    def get(self, *args):
        raise AssertionError("valid_mask read the DB")

    get_many = has = table = get


def ledger_of(ctx):
    return (ctx.ledger.compile_s, ctx.ledger.run_s, ctx.ledger.failed_s,
            ctx.ledger.retry_s)


def check_mask(spec, device, indices):
    ctx = Context(device, seed=0)
    measurer = Measurer(ctx, spec)
    rng_before = ctx.measurement.rng.bit_generator.state

    mask = measurer.valid_mask(indices)

    assert mask.dtype == np.bool_ and mask.shape == (len(indices),)
    assert ledger_of(ctx) == (0.0, 0.0, 0.0, 0.0)
    assert ctx.measurement.rng.bit_generator.state == rng_before
    assert mask.tolist() == [measurer.is_valid(i) for i in indices]
    assert ledger_of(ctx) == (0.0, 0.0, 0.0, 0.0)
    assert ctx.measurement.rng.bit_generator.state == rng_before
    no_reads = Measurer(Context(device, seed=0), spec, db=UnreadableDB())
    np.testing.assert_array_equal(no_reads.valid_mask(indices), mask)

    ms = measurer.measure_batch(indices)
    idx = np.asarray(indices, dtype=np.int64)
    np.testing.assert_array_equal(ms.indices, idx[mask])
    np.testing.assert_array_equal(ms.invalid_indices, idx[~mask])
    return mask


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_valid_mask_is_the_static_split(name, data):
    spec = SPECS[name]
    device = data.draw(st.sampled_from(DEVICES))
    check_mask(spec, device, data.draw(index_lists(spec.space.size)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_empty_and_repeated_indices(name):
    spec = SPECS[name]
    assert check_mask(spec, NVIDIA_K40, []).shape == (0,)
    indices = [int(i) for i in spec.space.sample_indices(40, np.random.default_rng(1))]
    repeated = indices + indices[::-1] + indices[:5]
    mask = check_mask(spec, AMD_HD7970, repeated)
    assert mask[:40].tolist() == mask[40:80][::-1].tolist()
    assert True in mask.tolist() and False in mask.tolist()
