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

Replication `rep` of the run seeded `seed` draws its channel from
rep_seeds(seed, rep)[0] and its random phases from rep_seeds(seed, rep)[1];
`draw_block` and `random_phase_block` draw a block of replications from the
run seed, and `frozen_positions` gives the user positions a run may freeze.
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

    A stack of draws (`realize_block`) carries a leading batch axis on
    every array but the shared steering vectors a and b.
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


# Indices of a replication's two streams in rep_seeds.
CHANNEL, PHASE = 0, 1


def _rep_seed(seed: int, rep: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, rep], spawn_key=(stream,))


def rep_seeds(seed: int, rep: int) -> list:
    """[channel, phase] seed sequences of replication `rep` of a seeded run.

    The two children of SeedSequence([seed, rep]), built directly from their
    spawn keys: a replication's channel draw and randomized phase draw are
    independent of each other and of every other replication.
    """
    return [_rep_seed(seed, rep, stream) for stream in (CHANNEL, PHASE)]


def _generator(seed: int, rep: int, stream: int) -> np.random.Generator:
    """A new generator at the start of stream `stream` (CHANNEL or PHASE) of
    replication `rep` of the run seeded `seed`."""
    return np.random.Generator(np.random.PCG64(_rep_seed(seed, rep, stream)))


def position_rng(seed: int) -> np.random.Generator:
    """Dedicated substream for frozen user positions."""
    return np.random.default_rng([seed, POSITION_STREAM])


def frozen_positions(cfg: ScenarioConfig):
    """The run's frozen user positions [K+1, 3], drawn from the position
    stream of cfg.seed, or None when every draw redraws its own."""
    if cfg.freeze_positions:
        return draw_user_positions(cfg, position_rng(cfg.seed))
    return None


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


def _variates(cfg: ScenarioConfig, rng: np.random.Generator, positions, out):
    """Draw one realization's variates from `rng`, in their fixed order.

    User positions come first unless frozen ones are supplied; then `out`
    [2(K+1)(N_B+N_R)] is filled with standard normals: the real parts of the
    direct fading, its imaginary parts, then the same for the RIS-user
    fading.  Returns the positions [K+1, 3].
    """
    if positions is None:
        positions = draw_user_positions(cfg, rng)
    rng.standard_normal(out=out)
    return positions


def _complex_normals(cfg: ScenarioConfig, x: np.ndarray):
    """z_d [..., K+1, N_B] and z_r [..., K+1, N_R] from variates x [..., M]
    laid out as `_variates` fills them, each equal to re + 1j * im (formed
    as 1j * im, then += re, which adds the same two terms without a
    temporary)."""
    lead, start, out = x.shape[:-1], 0, []
    for n in (cfg.n_bs, cfg.n_ris):
        size = cfg.n_users * n
        re, im = (
            x[..., i : i + size].reshape(*lead, cfg.n_users, n)
            for i in (start, start + size)
        )
        z = 1j * im
        z += re
        out.append(z)
        start += 2 * size
    return out


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


def _variate_count(cfg: ScenarioConfig) -> int:
    return 2 * cfg.n_users * (cfg.n_bs + cfg.n_ris)


def sample_realization(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    positions: np.ndarray = None,
) -> ChannelRealization:
    """Draw one i.i.d. Rayleigh realization of all channels.

    User positions are redrawn from `rng` unless `positions` is supplied
    (frozen-position runs pass the same array for every draw).
    """
    x = np.empty(_variate_count(cfg))
    positions = _variates(cfg, rng, positions, x)
    return _assemble(cfg, positions, *_complex_normals(cfg, x))


def draw_block(
    cfg: ScenarioConfig,
    seed: int,
    reps,
    positions: np.ndarray = None,
) -> tuple:
    """The variates of replications `reps` of run `seed`, one row per draw.

    Returns (positions [len(reps), K+1, 3], x [len(reps), 2(K+1)(N_B+N_R)]):
    row i is replication reps[i]'s channel stream from its start, laid out
    as `_variates` fills it; draw i of realize_block(cfg, positions, x) is,
    bit for bit, sample_realization(cfg, default_rng(rep_seeds(seed,
    reps[i])[0]), positions).  Frozen positions are broadcast to every draw.
    Positions depend only on K and the normals are drawn in order, so the
    variates of a scenario with fewer elements or antennas are a prefix of
    each row: `realize_block` builds any such scenario from this draw.
    """
    x = np.empty((len(reps), _variate_count(cfg)))
    drawn = [
        _variates(cfg, _generator(seed, rep, CHANNEL), positions, row)
        for rep, row in zip(reps, x)
    ]
    if positions is None:
        positions = np.stack(drawn)
    else:
        positions = np.broadcast_to(positions, (len(reps), *positions.shape))
    return positions, x


def realize_block(
    cfg: ScenarioConfig, positions: np.ndarray, x: np.ndarray
) -> ChannelRealization:
    """The stacked realization of scenario `cfg` from drawn variates.

    positions and x are a `draw_block` result for a scenario with the same K
    and at least cfg's N_B and N_R; only the prefix x[:, :2(K+1)(N_B+N_R)] is
    read.  A caller that passes its only reference to x has the variates
    freed before `_assemble` allocates H_c.
    """
    z_d, z_r = _complex_normals(cfg, x[:, : _variate_count(cfg)])
    del x
    return _assemble(cfg, positions, z_d, z_r)


def random_phase_block(seed: int, reps, n_ris: int) -> np.ndarray:
    """Random phases [len(reps), N_R] of replications `reps` of run `seed`.

    Row i equals, bit for bit, phases.random_phases(n_ris,
    np.random.default_rng(rep_seeds(seed, reps[i])[1])): angles
    uniform on [0, 2*pi) from the start of the replication's phase stream.
    The uniforms are drawn in order, so the phases of fewer elements are a
    prefix of each row.
    """
    u = np.empty((len(reps), n_ris))
    for rep, row in zip(reps, u):
        _generator(seed, rep, PHASE).random(out=row)
    u *= 2.0 * np.pi
    return np.exp(1j * u)
