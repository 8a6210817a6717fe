"""Scenario geometry, pathloss, and stochastic channel generation.

Default values reproduce the simulated downlink: a BS at (0, 0, 10) m with
N_B antennas, a RIS at (100, 0, 10) m with N_R reflecting elements, and
K + 1 single-antenna users drawn uniformly in a circle of radius 5 m at
height 1.5 m.  K "strong" users have a usable direct BS link; one "weak"
user is reachable essentially only via the RIS (its direct link carries an
extra 60 dB of pathloss).

All fading channels are divided by the noise standard deviation at
generation, so the per-user transmit power enters downstream SINR and SE
expressions directly (unit noise).  The BS-RIS link is a deterministic
rank-one LOS channel G = sqrt(L_G * N_B) * a b^H whose pathloss L_G stays
physical (it multiplies the already-normalized RIS-user channels).

Matrix rows follow the broadcast-channel convention: row k of a channel
matrix stores the Hermitian-transposed user channel h_k^H.
"""

from dataclasses import dataclass, replace

import numpy as np

# Dedicated substream tag for frozen user positions; replication substreams
# use the replication index, which stays far below this value.
POSITION_STREAM = 0x706F73


def db_to_lin(x_db) -> float:
    """Convert dB to linear scale (also maps -inf dB to exactly 0)."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def pathloss_db(model, distance_m) -> float:
    """Logarithmic pathloss alpha + beta * log10(d / m) in dB.

    Args:
        model: (alpha, beta) with beta the printed 10*log10 coefficient,
            e.g. (30, 22) for the LOS BS-RIS link.
        distance_m: distance in meters, > 0.
    """
    alpha, beta = model
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    return alpha + beta * np.log10(d)


def steering_vector(n: int, angle: float, norm: str = "unit") -> np.ndarray:
    """Half-wavelength ULA steering vector with entries exp(j*pi*m*cos(angle)).

    Args:
        n: number of elements, >= 1.
        angle: AoA/AoD in radians.
        norm: "unit" scales to ||v|| = 1, "sqrt_n" keeps ||v||^2 = n.

    Returns:
        [n] complex vector.
    """
    if n < 1:
        raise ValueError("need at least one element")
    v = np.exp(1j * np.pi * np.arange(n) * np.cos(angle))
    if norm == "unit":
        return v / np.sqrt(n)
    if norm == "sqrt_n":
        return v
    raise ValueError(f"unknown norm {norm!r}")


# =========================================================================
# Scenario configuration
# =========================================================================

# Real-valued ScenarioConfig fields, scalars or coordinate/coefficient tuples,
# that must be finite.  weak_extra_loss_db may also be +inf: an absent weak
# direct link, the idealization the Gram decomposition assumes.
_FINITE_FIELDS = (
    "bs_pos", "ris_pos", "user_circle_center", "user_circle_radius", "ptx_dbm",
    "noise_dbm", "direct_extra_loss_db", "pl_direct", "pl_ris_user", "pl_los",
    "aoa", "aod",
)


@dataclass
class ScenarioConfig:
    """Static scenario parameters (defaults: the simulated downlink above)."""

    n_bs: int = 12
    n_ris: int = 64
    n_strong: int = 3
    bs_pos: tuple = (0.0, 0.0, 10.0)
    ris_pos: tuple = (100.0, 0.0, 10.0)
    user_circle_center: tuple = (95.0, 10.0, 1.5)
    user_circle_radius: float = 5.0
    ptx_dbm: float = 30.0
    noise_dbm: float = -110.0
    weak_extra_loss_db: float = 60.0
    # Extra pathloss applied to every direct BS-user link (0 in the base
    # scenario; 20 dB in the RIS-element sweep that exhibits saturation).
    direct_extra_loss_db: float = 0.0
    pl_direct: tuple = (35.1, 36.7)
    pl_ris_user: tuple = (37.51, 22.0)
    pl_los: tuple = (30.0, 22.0)
    aoa: float = np.pi / 2
    aod: float = np.pi / 2
    # Total power is split uniformly over "k+1" users (the weak user gets a
    # share) or over "k" strong users only.
    power_divisor: str = "k+1"
    freeze_positions: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        loss = self.weak_extra_loss_db
        if np.isnan(loss) or loss == -np.inf:
            raise ValueError(
                f"weak_extra_loss_db must be finite or +inf, got {loss!r}"
            )
        if self.n_strong < 1:
            raise ValueError("n_strong must be at least 1")
        if self.n_bs < self.n_strong + 1:
            raise ValueError(
                f"n_bs = {self.n_bs} must be at least n_strong + 1 = "
                f"{self.n_strong + 1} for zero-forcing feasibility"
            )
        if self.n_ris < 1:
            raise ValueError("n_ris must be at least 1")
        if self.user_circle_radius <= 0:
            raise ValueError("user_circle_radius must be positive")
        if self.power_divisor not in ("k+1", "k"):
            raise ValueError(f"unknown power_divisor {self.power_divisor!r}")
        self._check_links()

    def _check_links(self):
        """Reject geometry that puts a link at distance 0, or so close that
        its log-distance model gives a pathloss below 0 dB (a gain): the
        BS-RIS link, and the closest point of the user circle to the BS and
        to the RIS."""
        bs = np.asarray(self.bs_pos, dtype=float)
        ris = np.asarray(self.ris_pos, dtype=float)
        users = "the user circle (user_circle_center, user_circle_radius)"
        links = (
            ("ris_pos", "bs_pos", np.linalg.norm(ris - bs), "pl_los"),
            (users, "bs_pos", self._circle_distance(bs), "pl_direct"),
            (users, "ris_pos", self._circle_distance(ris), "pl_ris_user"),
        )
        for source, target, d, model in links:
            loss = pathloss_db(getattr(self, model), d) if d > 0 else -np.inf
            if loss < 0.0:
                raise ValueError(
                    f"{source} comes within {d:.3g} m of {target}, where "
                    f"{model} gives a pathloss of {loss:.3g} dB; every link "
                    "needs a pathloss of at least 0 dB"
                )

    def _circle_distance(self, point) -> float:
        """Distance from a point to the closest point of the user circle
        (the disc of user positions at the height of its center)."""
        offset = point - np.asarray(self.user_circle_center, dtype=float)
        radial = max(np.hypot(offset[0], offset[1]) - self.user_circle_radius, 0.0)
        return float(np.hypot(radial, offset[2]))

    @property
    def n_users(self) -> int:
        return self.n_strong + 1

    def p_bar(self) -> float:
        """Per-user transmit power in mW (noise-normalized SE convention)."""
        div = self.n_users if self.power_divisor == "k+1" else self.n_strong
        return db_to_lin(self.ptx_dbm) / div

    def with_updates(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


@dataclass
class PathlossSet:
    """Linear channel gains for one set of user positions.

    L_d and L_r are noise-normalized (divided by sigma^2); L_G is the
    physical BS-RIS gain.  Index K (last) is the weak user; its L_d entry
    already contains the weak-user extra loss.
    """

    L_d: np.ndarray  # [K+1]
    L_r: np.ndarray  # [K+1]
    L_G: float


@dataclass
class ChannelRealization:
    """One fading draw of all channels (rows are h^H, noise-normalized).

    A stack of draws (`sample_block`) carries a leading batch axis on every
    array but the shared steering vectors a and b.
    """

    H_d_strong: np.ndarray  # [K, N_B] strong users' direct channels
    h_d_weak: np.ndarray  # [N_B] weak user's attenuated direct channel
    H_r: np.ndarray  # [K+1, N_R] RIS-user channels
    a: np.ndarray  # [N_R] RIS-side steering, ||a||^2 = N_R
    b: np.ndarray  # [N_B] BS-side steering, ||b|| = 1
    L_G: float  # physical linear BS-RIS pathloss
    H_c: np.ndarray  # [K+1, N_R] cascaded channels sqrt(L_G N_B) h_r^H diag(a)
    pathlosses: PathlossSet = None
    positions: np.ndarray = None  # [K+1, 3] user positions in meters


# =========================================================================
# Sampling
# =========================================================================


def rep_seeds(seed: int, rep: int) -> list:
    """[channel, phase] seed sequences of replication `rep` of a seeded run.

    The two children of SeedSequence([seed, rep]): a replication's channel
    draw and randomized phase draw are independent of each other and of
    every other replication.
    """
    return np.random.SeedSequence([seed, rep]).spawn(2)


def position_rng(seed: int) -> np.random.Generator:
    """Dedicated substream for frozen user positions."""
    return np.random.default_rng([seed, POSITION_STREAM])


def draw_user_positions(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions in the user circle, [K+1, 3] in meters."""
    n = cfg.n_users
    r = cfg.user_circle_radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pos = np.tile(np.asarray(cfg.user_circle_center, dtype=float), (n, 1))
    pos[:, 0] += r * np.cos(phi)
    pos[:, 1] += r * np.sin(phi)
    return pos


def nominal_pathlosses(cfg: ScenarioConfig, positions: np.ndarray) -> PathlossSet:
    """Linear gains for given user positions (L_d/L_r noise-normalized).

    positions: [..., K+1, 3] in meters; L_d and L_r get its leading axes.
    """
    bs = np.asarray(cfg.bs_pos, dtype=float)
    ris = np.asarray(cfg.ris_pos, dtype=float)
    d_bs = np.linalg.norm(positions - bs, axis=-1)
    d_ris = np.linalg.norm(positions - ris, axis=-1)
    sigma2 = db_to_lin(cfg.noise_dbm)

    L_d_db = pathloss_db(cfg.pl_direct, d_bs) + cfg.direct_extra_loss_db
    L_d_db = L_d_db + np.append(np.zeros(cfg.n_strong), cfg.weak_extra_loss_db)
    L_d = db_to_lin(-L_d_db) / sigma2
    L_r = db_to_lin(-pathloss_db(cfg.pl_ris_user, d_ris)) / sigma2
    L_G = float(db_to_lin(-pathloss_db(cfg.pl_los, np.linalg.norm(ris - bs))))
    return PathlossSet(L_d=L_d, L_r=L_r, L_G=L_G)


def _draw(cfg: ScenarioConfig, rng: np.random.Generator, positions):
    """One draw's variates from its generator, in their fixed order.

    User positions come first unless frozen ones are supplied, then the
    direct and the RIS-user fading, each as the real parts of all entries
    followed by the imaginary parts.  Returns positions [K+1, 3] and the
    complex normals z_d [K+1, N_B] and z_r [K+1, N_R], whose real and
    imaginary parts are standard normal.
    """
    if positions is None:
        positions = draw_user_positions(cfg, rng)
    shapes = ((cfg.n_users, cfg.n_bs), (cfg.n_users, cfg.n_ris))
    z_d, z_r = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
    return positions, z_d, z_r


def _assemble(cfg: ScenarioConfig, positions, z_d, z_r) -> ChannelRealization:
    """Scale drawn normals by the pathlosses of their positions.

    Works over leading batch axes: positions [..., K+1, 3], z_d
    [..., K+1, N_B] and z_r [..., K+1, N_R] give a realization whose
    channel arrays carry the same leading axes (a and b are shared).  z_d
    and z_r are scaled in place and become H_d and H_r, which keeps a
    block's peak memory at one copy of each stack.
    """
    pl = nominal_pathlosses(cfg, positions)
    H_d_all = z_d
    H_d_all *= np.sqrt(pl.L_d[..., None] / 2.0)
    H_r = z_r
    H_r *= np.sqrt(pl.L_r[..., None] / 2.0)
    a = steering_vector(cfg.n_ris, cfg.aoa, norm="sqrt_n")
    b = steering_vector(cfg.n_bs, cfg.aod, norm="unit")
    H_c = np.sqrt(pl.L_G * cfg.n_bs) * H_r
    H_c *= a
    return ChannelRealization(
        H_d_strong=H_d_all[..., : cfg.n_strong, :],
        h_d_weak=H_d_all[..., cfg.n_strong, :],
        H_r=H_r,
        a=a,
        b=b,
        L_G=pl.L_G,
        H_c=H_c,
        pathlosses=pl,
        positions=positions,
    )


def sample_realization(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    positions: np.ndarray = None,
) -> ChannelRealization:
    """Draw one i.i.d. Rayleigh realization of all channels.

    User positions are redrawn from `rng` unless `positions` is supplied
    (frozen-position runs pass the same array for every draw).
    """
    return _assemble(cfg, *_draw(cfg, rng, positions))


def sample_block(cfg: ScenarioConfig, seeds, positions: np.ndarray = None):
    """A stack of independent draws, one per seed, along a leading axis.

    Entry i equals sample_realization(cfg, np.random.default_rng(seeds[i]),
    positions): every draw keeps its own generator, so a stack holds the
    same values whichever draws it is built from.
    """
    draws = [_draw(cfg, np.random.default_rng(s), positions) for s in seeds]
    stacks = [np.stack(parts) for parts in zip(*draws)]
    del draws  # free the per-draw copies before _assemble allocates H_c
    return _assemble(cfg, *stacks)
