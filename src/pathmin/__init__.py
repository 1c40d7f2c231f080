"""Query-budgeted minimum search on stochastic paths.

Simulates Brownian bridge and Cauchy process paths on [0, 1], searches
for their minima under an oracle-query budget (golden-section, Monte-
Carlo bisection, harmonic-measure-guided bisection), and benchmarks the
strategies against dense-grid ground truth.  The harmonic weights come
from a numerical Schwarz-Christoffel map of the region below the
queried walk.
"""
__version__ = "0.1.0"
