"""Locally adaptive smoothing splines driven by multiscale residual tests.

The estimator minimizes a per-observation weighted squared error plus the
integrated squared second derivative.  Weights start tiny (the fit is the
least squares line) and grow multiplicatively on the intervals where a
multiscale residual statistic rejects the fit, until the fit enters the
noise confidence region; a companion run with a single shared weight
provides the classic one-parameter smoothing family as a fallback, and
the smoother accepted fit wins.  Robust (running-median cleaned) and
heteroscedastic-scale variants reuse the same machinery.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import adapt, bench, multiscale, splines, variants
from .adapt import *  # noqa: F403
from .bench import *  # noqa: F403
from .multiscale import *  # noqa: F403
from .splines import *  # noqa: F403
from .variants import *  # noqa: F403

__version__ = "0.1.0"

__all__ = adapt.__all__ + bench.__all__ + multiscale.__all__ + splines.__all__ + variants.__all__
