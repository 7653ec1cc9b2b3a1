"""Density estimation for many related subpopulations.

Trains a low-dimensional exponential family from the principal modes of
variation of log-densities across amply sampled subpopulations, then fits
new, possibly tiny samples inside that family by maximum likelihood or by
shrinkage toward the population (posterior mode or best linear unbiased
prediction in moment coordinates).

The top level exports the five names of the quick start; everything else
is imported from its module, e.g. ``repden.logscale`` or ``repden.modelio``.
"""

__version__ = "0.1.0"

from .estimators import fit
from .expfam import density, train_family
from .grid import Domain
from .presmooth import SubpopSample

__all__ = ["Domain", "SubpopSample", "density", "fit", "train_family"]
