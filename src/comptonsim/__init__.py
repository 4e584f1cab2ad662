"""comptonsim: kinetic simulation of photon redistribution by Compton scattering.

Library layout mirrors the problem structure: ``kernel`` evaluates the
physical redistribution kernel and its bounds, ``truncation`` builds the
coupling region and cutoff, ``measure`` holds states as points and masses
(atoms, or a density on a grid) and their functionals, ``full_solver``
integrates the regularized collision equation, ``reduced_solver`` handles
the quadratic-only dynamics, and ``harness`` ties everything into
configured, reproducible experiments behind the ``comptonsim``
command-line tool.
"""

__version__ = "0.1.0"
