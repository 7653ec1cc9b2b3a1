"""Density estimation for many related subpopulations.

Trains a low-dimensional exponential family from the principal modes of
variation of log-densities across amply sampled subpopulations, then fits
new, possibly tiny samples inside that family by maximum likelihood or by
shrinkage toward the population (posterior mode or best linear unbiased
prediction in moment coordinates).

The top level exports the five names of the quick start; everything else
is imported from its module, e.g. ``repden.logscale`` or ``repden.modelio``.
"""

import os
import sys

__version__ = "0.1.0"

# numpy's bundled OpenBLAS reads its thread count once, when numpy loads it.
# Every fit product is taken one row at a time (``expfam.rowwise``), and
# ``fpca.fit_fpca`` decomposes an n x n Gram matrix when there are fewer
# groups than grid points.  Only a training set with at least as many groups
# as grid points takes the G x G product and ``eigh`` that gain from a second
# BLAS thread (5-17 ms for 600-3000 groups at 512 grid points), and only
# there does the thread count change training's bits; yet that thread costs
# up to about 70 ms of each command's start-up and 10-20% of its CPU time
# (2 CPUs).  One thread, whatever the environment says, makes ``train`` and
# ``simulate`` repeat bit for bit.  A process that loaded numpy first keeps
# its own count; MKL and Accelerate do not read this variable.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .estimators import fit
from .expfam import density, train_family
from .grid import Domain
from .presmooth import SubpopSample

__all__ = ["Domain", "SubpopSample", "density", "fit", "train_family"]
