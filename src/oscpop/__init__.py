"""Population dynamics under a time-varying carrying capacity.

The package couples a logistic growth law to capacity schedules that
change over time (square waves, sinusoids, tabulated data) and provides
closed-form solutions where they exist, adaptive numerical integration
where they do not, analysis of periodic steady states, and the discrete
logistic update map with its period-doubling cascade.
"""
from . import capacity, closedform, discretemap, errors, odesolve, periodic
from .capacity import *
from .closedform import *
from .discretemap import *
from .errors import *
from .odesolve import *
from .periodic import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *capacity.__all__,
    *closedform.__all__,
    *odesolve.__all__,
    *periodic.__all__,
    *discretemap.__all__,
    *errors.__all__,
]
