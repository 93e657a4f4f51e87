"""Distribution-free change point detection and segment clustering.

The change statistic is an exact two-sample transport statistic over sliding
windows; a simulation-calibrated matched filter cleans the statistic before
peak extraction, and detected segments are clustered spectrally through
exp(-W2) affinities between their empirical distributions.
"""

from . import cpd, empirical, errors, metrics, numeric, series, simgen, tssc
from .cpd import *  # noqa: F403
from .empirical import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .numeric import *  # noqa: F403
from .series import *  # noqa: F403
from .simgen import *  # noqa: F403
from .tssc import *  # noqa: F403

__version__ = "0.1.0"

# each name is declared once, in its module's __all__
__all__ = [
    name
    for module in (cpd, empirical, errors, metrics, numeric, series, simgen, tssc)
    for name in module.__all__
]
