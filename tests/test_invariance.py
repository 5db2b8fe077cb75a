"""Metamorphic tests: DR p-values do not depend on a covariate's units or
offset, on the coding of the target, or on an affine map of the outcomes.

The pseudo-outcomes nu + C/delta * (Y - nu) are regressed on W, so every
transform below leaves the target's p-value unchanged in exact arithmetic.
Each case compares the transformed run with the untransformed one, for
DR_W and DR_UW together, full-sample and with five folds.
"""
from dataclasses import replace

import numpy as np
import pytest

from drpi.data_model import MethodKind
from drpi.dr_inference import InferenceConfig, infer_methods
from drpi.imputers import ImputerConfig
from drpi.sim_bench import SimConfig, gen_dataset

METHODS = (MethodKind.DR_W, MethodKind.DR_UW)
P_TOL = 1e-8  # what is left at x + 1e6 is the input's own rounding (about 1e-10)


def _scale_x(s):
    return lambda w, y: (w * [1.0, 1.0, s], y)


TRANSFORMS = {
    "x*1e-12": _scale_x(1e-12),
    "x*1e-9": _scale_x(1e-9),
    "x*1e12": _scale_x(1e12),
    "x+1e6": lambda w, y: (w + [0.0, 0.0, 1e6], y),
    "a->2a-1": lambda w, y: (w * [1.0, 2.0, 1.0] - [0.0, 1.0, 0.0], y),
    "y*1e-6": lambda w, y: (w, y * 1e-6),
    "y+1e6*sd": lambda w, y: (w, y + 1e6 * np.nanstd(y)),
}

# (backend, folds); soft-impute runs at a narrow shape, and only the
# row-predictive imputers can be cross-fitted
FITS = [("mean", 0), ("lowdim", 0), ("knn", 0), ("knn2", 0), ("soft", 0), ("mean", 5), ("lowdim", 5)]


def _dataset(backend):
    return gen_dataset(SimConfig(model=3, n=200, p=30 if backend == "soft" else 300, seed=1))[0]


@pytest.fixture(scope="module")
def untransformed():
    """(backend, folds) -> (dataset, its DR results), each computed once."""
    return {}


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("backend,folds", FITS, ids=[f"{b}-folds{k}" for b, k in FITS])
def test_dr_p_values_are_invariant(backend, folds, transform, untransformed):
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend=backend))
    if (backend, folds) not in untransformed:
        d = _dataset(backend)
        untransformed[backend, folds] = d, infer_methods(d, METHODS, cfg, folds=folds)
    d, want = untransformed[backend, folds]
    w, y = TRANSFORMS[transform](d.w, d.y_obs)
    got = infer_methods(replace(d, w=w, y_obs=y), METHODS, cfg, folds=folds)
    for m in METHODS:
        assert got[m].skip_reason.tolist() == want[m].skip_reason.tolist()
        np.testing.assert_allclose(got[m].p_value, want[m].p_value, rtol=0, atol=P_TOL)
