"""Active-RIS-aided multi-user massive MIMO uplink simulator.

Monte Carlo link-level simulation and closed-form rate approximations for
an amplifying reconfigurable surface serving single-antenna users toward a
large BS array with low-resolution ADCs, plus a genetic phase-shift
optimizer and a brute-force oracle that certifies every closed form.
"""

from .analytic import (
    ClosedFormSite,
    closed_form_rates,
    closed_form_site,
    compute_stats,
)
from .budget import (
    ConfigurationError,
    LinkBudget,
    Mode,
    SystemConfig,
    circuit_power,
    dbm_to_watts,
    path_loss,
    resolve_budget,
    watts_to_dbm,
)
from .channel import (
    Geometry,
    array_response,
    los_components,
    make_geometry,
    substream,
)
from .ga import GAHistory, GAParams, crossover, mutate, optimize_phases
from .transceiver import (
    Moments,
    PhaseConfig,
    RateReport,
    aqnm_alpha,
    estimate_moments,
    measured_ris_power,
    moments_at,
    monte_carlo_rate,
    rate_from_statistics,
    sinr,
    trial_statistics,
)

__version__ = "0.1.0"
