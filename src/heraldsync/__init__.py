"""Two-node synchronized heralded single-photon sources.

Analytics and Monte Carlo simulation for a pair of memory-backed
heralded photon sources with feedback synchronization: photon-number
statistics, the coincidence-enhancement closed forms, Hong-Ou-Mandel
interference, and CHSH Bell estimation.  Each module states its public
names in its own ``__all__``; the package re-exports all of them.
"""

__version__ = "0.1.0"

from . import config, interference, photon_stats, protocol, runner
from .config import *  # noqa: F403
from .interference import *  # noqa: F403
from .photon_stats import *  # noqa: F403
from .protocol import *  # noqa: F403
from .runner import *  # noqa: F403

__all__ = [
    "__version__",
    *photon_stats.__all__,
    *protocol.__all__,
    *interference.__all__,
    *config.__all__,
    *runner.__all__,
]
