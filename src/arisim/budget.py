"""Power budget resolution for the RIS-aided uplink.

All powers are configured on the dBm scale and converted to linear watts
exactly once, here.  Everything downstream (channel gains, SINR, rates)
works in watts.

The total network power covers three sinks: user transmit power, the
reflect power radiated by an active surface, and the per-element circuit
power (switch/control plus, for active elements, DC biasing).  A surface
that cannot cover its circuit power does not start up, and every rate
downstream is defined as zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """A configuration that cannot be resolved into a usable system."""


class Mode(enum.Enum):
    """Operating mode of the surface; the ADC resolution is `SystemConfig.b`."""

    ACTIVE = "active"        # amplifying surface
    PASSIVE = "passive"      # unit-gain surface, no dynamic noise, no DC bias


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_w: float) -> float:
    """Convert a power in watts to dBm (x_w must be positive)."""
    if x_w <= 0.0:
        raise ValueError(f"power must be positive, got {x_w}")
    return 10.0 * math.log10(x_w) + 30.0


def path_loss(distance_m, exponent):
    """Linear large-scale power gain at the given distance.

    The dB-scale loss is 30 + 10 * exponent * log10(distance); accepts
    scalars or arrays.  Nonpositive distances are rejected.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    gain = 10.0 ** ((-30.0 - 10.0 * exponent * np.log10(d)) / 10.0)
    return float(gain) if np.isscalar(distance_m) else gain


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bools are rejected as counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_real_sequence(value) -> bool:
    return isinstance(value, (tuple, list)) and all(map(_is_finite_real, value))


def _exponent_text(value) -> bool:
    """Whether `value`, or an entry of it, is a string such as '1e-4' that
    reads as a number: YAML 1.1, which PyYAML follows, reads an exponent
    as a number only with a dot and a signed exponent, as in 1.0e-4."""
    for entry in value if isinstance(value, (tuple, list)) else (value,):
        if isinstance(entry, str) and "e" in entry.lower():
            try:
                float(entry)
                return True
            except ValueError:
                pass
    return False


def check_fields(record, integers=(), reals=(), sequences=()) -> None:
    """Check the named fields of the frozen dataclass `record` and store
    them in place: integers as `int`, finite reals as `float` and sequences
    of finite reals as tuples of floats.  A bool is none of these, so it is
    an error, not read as 0 or 1, and a fraction is not truncated."""
    for names, ok, store, kind in (
        (integers, _is_integer, int, "an integer"),
        (reals, _is_finite_real, float, "a finite number"),
        (sequences, _is_real_sequence, lambda v: tuple(map(float, v)),
         "a sequence of finite numbers"),
    ):
        for name in names:
            value = getattr(record, name)
            if not ok(value):
                hint = (" (YAML 1.1 needs a dot and a signed exponent, as in 1.0e-4)"
                        if _exponent_text(value) else "")
                raise ConfigurationError(f"{name} must be {kind}, got {value!r}{hint}")
            object.__setattr__(record, name, store(value))


def checked_block(block, keys, what: str) -> dict:
    """A config block that must be a mapping of some of `keys`; a missing
    (null) block reads as empty, and any other key fails, so a typo cannot
    silently fall back to a default."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigurationError(f"the {what} block must be a mapping, got {block!r}")
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {what} config keys: {sorted(unknown, key=str)}")
    return block


# SystemConfig fields that must hold an integer, those that must hold a
# finite real number, and those that must hold a sequence of finite real
# numbers.
_INTEGER_FIELDS = ("M", "N", "K", "trials", "seed")
_REAL_FIELDS = (
    "delta", "sigma_n2_dbm", "sigma_v2_dbm", "P_T_dbm", "P_SW_dbm", "P_DC_dbm", "split",
    "pathloss_exp_user", "pathloss_exp_ris", "user_radius", "d_over_lambda",
)
_TUPLE_FIELDS = ("epsilon", "bs_pos", "ris_pos", "user_center")


@dataclass(frozen=True)
class SystemConfig:
    """All physical and experimental parameters of one system instance.

    Defaults reproduce the baseline simulation setup used throughout the
    shipped experiment configs.
    """

    M: int = 64                      # BS antenna count (planar array)
    N: int = 16                      # RIS element count (planar array)
    K: int = 4                       # single-antenna user count
    b: int | str = 1                 # ADC quantization bits, or "ideal"
    epsilon: tuple = (10.0,) * 4     # per-user Rician factors
    delta: float = 1.0               # RIS-BS Rician factor
    sigma_n2_dbm: float = -90.0      # AWGN power at the BS
    sigma_v2_dbm: float = -70.0      # dynamic-noise power per active element
    P_T_dbm: float = 30.0            # total network power
    P_SW_dbm: float = -10.0          # per-element switch/control power
    P_DC_dbm: float = -5.0           # per-element DC biasing power (active only)
    split: float = 0.5               # fraction of post-circuit power given to users
    pathloss_exp_user: float = 2.8   # exponent, user -> RIS link
    pathloss_exp_ris: float = 2.8    # exponent, RIS -> BS link
    bs_pos: tuple = (0.0, 0.0, 25.0)
    ris_pos: tuple = (5.0, 100.0, 30.0)
    user_center: tuple = (5.0, 100.0, 1.6)
    user_radius: float = 5.0         # users drawn in a semicircle of this radius
    d_over_lambda: float = 0.5       # element spacing over wavelength
    restrict_elevation: bool = False  # draw elevations from [0, pi) instead of [0, 2*pi)
    trials: int = 20000              # Monte Carlo realizations
    seed: int = 42                   # master seed for geometry and fading streams

    def __post_init__(self):
        check_fields(self, _INTEGER_FIELDS, _REAL_FIELDS, _TUPLE_FIELDS)
        if not isinstance(self.restrict_elevation, (bool, np.bool_)):
            raise ConfigurationError(
                f"restrict_elevation must be true or false, got {self.restrict_elevation!r}")
        object.__setattr__(self, "restrict_elevation", bool(self.restrict_elevation))
        if self.M < 1 or self.N < 1 or self.K < 1:
            raise ConfigurationError("M, N and K must be positive")
        if self.b != "ideal":
            if not _is_integer(self.b) or self.b < 1:
                raise ConfigurationError(
                    f"quantization bits must be a positive integer or 'ideal', got {self.b!r}"
                )
            object.__setattr__(self, "b", int(self.b))
        if len(self.epsilon) != self.K:
            raise ConfigurationError(f"epsilon must have one entry per user ({self.K}), got {len(self.epsilon)}")
        if any(e < 0.0 for e in self.epsilon) or self.delta < 0.0:
            raise ConfigurationError("Rician factors must be nonnegative")
        if not 0.0 < self.split < 1.0:
            raise ConfigurationError("split must lie strictly between 0 and 1")
        if self.user_radius <= 0.0 or self.d_over_lambda <= 0.0:
            raise ConfigurationError("user_radius and d_over_lambda must be positive")
        if len(self.bs_pos) != 3 or len(self.ris_pos) != 3 or len(self.user_center) != 3:
            raise ConfigurationError("positions must be 3-vectors")
        if self.trials < 1:
            raise ConfigurationError("trials must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")

    @property
    def sigma_n2_w(self) -> float:
        return dbm_to_watts(self.sigma_n2_dbm)

    @property
    def sigma_v2_w(self) -> float:
        return dbm_to_watts(self.sigma_v2_dbm)

    @property
    def P_T_w(self) -> float:
        return dbm_to_watts(self.P_T_dbm)


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """Resolved linear-scale power allocation for one system instance."""

    p: float               # transmit power of each user, watts (all users alike)
    eta: float             # common element amplification factor (1 in passive mode)
    P_A: float             # surface reflect power, watts (0 in passive mode)
    startup_met: bool      # False when the total budget is at or below the circuit draw
    sigma_v2_w: float      # dynamic-noise power seen downstream (0 in passive mode)


def circuit_power(cfg: SystemConfig, mode: Mode) -> float:
    """Per-surface circuit power in watts (the startup threshold)."""
    p_sw = dbm_to_watts(cfg.P_SW_dbm)
    if mode is Mode.PASSIVE:
        return cfg.N * p_sw
    return cfg.N * (p_sw + dbm_to_watts(cfg.P_DC_dbm))


def resolve_budget(cfg: SystemConfig, alpha, mode: Mode = Mode.ACTIVE) -> LinkBudget:
    """Split the total network power and size the element amplification.

    `alpha` holds the K user->RIS large-scale gains, needed because the
    amplification factor is set so the surface radiates exactly its share
    of the budget: eta^2 * N * (p sum_k alpha_k + sigma_v^2) = P_A.

    Active mode reserves N*(P_SW + P_DC) for circuits, then gives `split`
    of the remainder to the users (equally) and the rest to the surface.
    Passive mode reserves only N*P_SW, radiates nothing of its own
    (eta = 1) and injects no dynamic noise; the DC saving is reabsorbed
    into transmit power.

    A budget at or below the circuit draw is not an error: it returns a
    budget with `startup_met=False` and zero powers, and every downstream
    rate is zero.  A resolved amplification below unity is an error,
    because the active elements are assumed to amplify.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (cfg.K,):
        raise ConfigurationError(f"alpha must have shape ({cfg.K},), got {alpha.shape}")

    P_T = cfg.P_T_w
    circuit = circuit_power(cfg, mode)

    if mode is Mode.PASSIVE:
        if P_T <= circuit:
            return LinkBudget(0.0, 1.0, 0.0, False, 0.0)
        return LinkBudget((P_T - circuit) / cfg.K, 1.0, 0.0, True, 0.0)

    if P_T <= circuit:
        return LinkBudget(0.0, 0.0, 0.0, False, cfg.sigma_v2_w)
    remainder = P_T - circuit
    p = cfg.split * remainder / cfg.K
    P_A = (1.0 - cfg.split) * remainder
    eta_sq = P_A / (cfg.N * (p * float(alpha.sum()) + cfg.sigma_v2_w))
    eta = math.sqrt(eta_sq)
    if eta < 1.0:
        raise ConfigurationError(
            f"resolved amplification {eta:.4g} < 1; active elements must amplify "
            "(raise P_T, lower split, or reduce N)"
        )
    return LinkBudget(p, eta, P_A, True, cfg.sigma_v2_w)
