"""Input checks at the public entry points.

``run_trajectory`` checks its initial point once and then runs the
loss/gradient, spectral-error and update arithmetic unchecked; every public
function in front of that arithmetic must still reject a non-finite, non-2-D
or wrongly shaped input with ``PreconditionError``.
"""

import numpy as np
import pytest

from muonlab import (
    ConstantSchedule,
    MuonState,
    OptimizerConfig,
    PreconditionError,
    RandomStream,
    gd_step,
    icl_loss_grad,
    make_icl_instance,
    make_mf_instance,
    mf_loss_grad,
    msign_exact,
    muon_step,
    run_trajectory,
    scaledgd_step,
    signgd_step,
)

MF = make_mf_instance(RandomStream(40), 6, 2, 2, 4.0)
ICL = make_icl_instance(RandomStream(41), 4, 2.0)
X = RandomStream(42).gaussian_matrix(6, 2)
G = RandomStream(43).gaussian_matrix(6, 2)

# name -> (shape of a valid input, call with that input in the checked slot);
# a shape of None means any 2-D shape is valid
ENTRY_POINTS = {
    "mf_loss_grad": ((6, 2), lambda a: mf_loss_grad(MF, a)),
    "icl_loss_grad": ((4, 4), lambda a: icl_loss_grad(ICL, a)),
    "muon_step.iterate": ((6, 2), lambda a: muon_step(a, G, MuonState.zeros((6, 2)), 0.1)),
    "muon_step.gradient": ((6, 2), lambda a: muon_step(X, a, MuonState.zeros((6, 2)), 0.1)),
    "gd_step.iterate": ((6, 2), lambda a: gd_step(a, G, 0.1)),
    "gd_step.gradient": ((6, 2), lambda a: gd_step(X, a, 0.1)),
    "signgd_step.iterate": ((6, 2), lambda a: signgd_step(a, G, 0.1)),
    "signgd_step.gradient": ((6, 2), lambda a: signgd_step(X, a, 0.1)),
    "scaledgd_step.iterate": ((6, 2), lambda a: scaledgd_step(a, G, 0.1)),
    "scaledgd_step.gradient": ((6, 2), lambda a: scaledgd_step(X, a, 0.1)),
    "msign_exact": (None, msign_exact),
    "run_trajectory.init": (
        (6, 2),
        lambda a: run_trajectory(MF, OptimizerConfig("gd"), ConstantSchedule(0.01), a, 2),
    ),
}


def _valid(shape):
    return RandomStream(44).gaussian_matrix(*(shape or (5, 3)))


def _with_nan(shape):
    a = _valid(shape)
    a[1, 0] = np.nan
    return a


def _one_dimensional(shape):
    return _valid(shape).ravel()


def _wrong_shape(shape):
    # shape-free entry points take any 2-D matrix, so give them a 3-D one
    if shape is None:
        return np.ones((2, 3, 4))
    return _valid((shape[0] + 1, shape[1]))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_valid_input_accepted(name):
    shape, call = ENTRY_POINTS[name]
    call(_valid(shape))


@pytest.mark.parametrize("bad", [_with_nan, _one_dimensional, _wrong_shape])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_input_rejected(name, bad):
    shape, call = ENTRY_POINTS[name]
    with pytest.raises(PreconditionError):
        call(bad(shape))
