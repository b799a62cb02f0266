"""Default tolerances shared by the library and the command line.

They live here, apart from the modules that use them, so that the CLI
can read its defaults without importing numpy or any numeric module.
"""

import sys

RESID_ACCEPT = 1e-8     # singular-point residual, relative to the field's scale
CENTER_BAND = 1e-6      # |eigenvalue ratio + 1| of a center candidate
RTOL = 1e-11            # leaf tracing and holonomy
ATOL = 1e-13
MIN_RTOL = 100 * sys.float_info.epsilon   # the integrator raises a smaller rtol to this
REL_TOL = 1e-9          # Melnikov quadrature, between two node doublings
ZERO_THRESHOLD = 1e-9   # a Melnikov value below this counts as zero
