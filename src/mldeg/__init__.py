"""Exact critical-point counting and maximum-likelihood estimation for
single chemical equilibrium reactions.

Pipeline: parse a reaction, build the algebraic model its mass-action
equilibrium cuts out of the probability simplex, count the complex critical
points of the likelihood (exactly, by resultant elimination over the
rationals), cross-check the count on the homogeneous variety side, and
solve the estimation problem numerically.

The package exports only ``__version__``; import the engine from its
submodules (``mldeg.reaction``, ``mldeg.model``, ``mldeg.intpoly``,
``mldeg.critical``, ``mldeg.curve``, ``mldeg.roots``, ``mldeg.variety``,
``mldeg.mle``, ``mldeg.catalog``, ``mldeg.cli``, and ``mldeg.poly``, which
only the tests use), so that ``import mldeg`` loads none of them.
"""

from ._version import __version__
