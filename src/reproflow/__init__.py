"""reproflow: 2D incompressible flow driven by tangential wall data.

Builds a divergence-free Hopf lift of the wall data, solves the homogenized
problem by spectral Galerkin on a discrete Stokes eigenbasis, monitors the
a priori energy/stability estimates at run time, and finds reproductive
(v(T) = v(0)) flows by Picard iteration on the period map.
"""

__version__ = "0.3.8"
