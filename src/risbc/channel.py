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

Replication `rep` of the run seeded `seed` draws its channel from the
stream SeedSequence([seed, rep], spawn_key=(CHANNEL,)) and its random
phases from SeedSequence([seed, rep], spawn_key=(PHASE,)), the two spawned
children of SeedSequence([seed, rep]).  A run does not build a
SeedSequence and a PCG64 for each of them:
`stream_states` computes where every replication's two streams start in one
array pass (the SeedSequence hash on uint32 arrays, then PCG64's set-seed
step on Python ints).  Both are fixed integer functions, and numpy keeps the
streams they give stable (NEP 19); still, the pass checks its first start
against numpy's own seeding and raises RuntimeError on a mismatch.
`draw_block` and `random_phase_block` draw a block of replications from
their starts through one generator set to each in turn, and
`frozen_positions` gives the user positions a run may freeze.  A channel
stream starts with the draw's 2(K+1) position uniforms, which
`user_positions` maps to positions for one draw or a whole block: the
per-replication loop of `draw_block` only reads the streams, and the
block's positions and their pathlosses take one array pass each.
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # a distance or gain beyond the float range is reported, not warned of
        with np.errstate(over="ignore"):
            self._check_links()

    def _check_links(self):
        """Reject geometry that puts a link at distance 0, or so close that
        its log-distance model gives a pathloss below 0 dB (a gain): the
        BS-RIS link, and the closest point of the user circle to the BS and
        to the RIS.  Also reject gains outside the float range: the noise
        power, L_G and, at the closest and the farthest point of the user
        circle, the strong users' noise-normalized direct gains and every
        user's RIS gain must be finite and positive (`nominal_pathlosses`
        forms them; the weak user's direct gain may be 0)."""
        sigma2 = db_to_lin(self.noise_dbm)
        if not 0.0 < sigma2 < np.inf:
            raise ValueError(
                f"noise_dbm = {self.noise_dbm:g} gives a noise power of "
                f"{sigma2:g} mW; it must be finite and positive"
            )
        bs = np.asarray(self.bs_pos, dtype=float)
        ris = np.asarray(self.ris_pos, dtype=float)
        users = "the user circle (user_circle_center, user_circle_radius)"
        # per link: its ends, the closest (and the farthest) distance between
        # them, its pathloss model, and the gain that model sets with the
        # gain's extra loss in dB and divisor (the noise power, or 1 for L_G)
        links = (
            ("ris_pos", "bs_pos", (np.linalg.norm(ris - bs),), "pl_los",
             "the BS-RIS gain L_G", 0.0, 1.0),
            (users, "bs_pos", self._circle_distances(bs), "pl_direct",
             "a strong user's direct gain (direct_extra_loss_db, noise_dbm)",
             self.direct_extra_loss_db, sigma2),
            (users, "ris_pos", self._circle_distances(ris), "pl_ris_user",
             "a user's RIS gain (noise_dbm)", 0.0, sigma2),
        )
        for source, target, d, model, name, extra, noise in links:
            loss = pathloss_db(getattr(self, model), d) if d[0] > 0 else [-np.inf]
            if loss[0] < 0.0:
                raise ValueError(
                    f"{source} comes within {d[0]:.3g} m of {target}, where "
                    f"{model} gives a pathloss of {loss[0]:.3g} dB; every link "
                    "needs a pathloss of at least 0 dB"
                )
            gain = db_to_lin(-(loss + extra)) / noise
            ok = (gain > 0.0) & (gain < np.inf)
            if not ok.all():
                i = np.argmin(ok)  # the first distance out of range
                raise ValueError(
                    f"{source} at {d[i]:.3g} m from {target}: {model} gives "
                    f"{name} of {gain[i]:.3g}, which must be finite and positive"
                )

    def _circle_distances(self, point) -> tuple:
        """Distances from a point to the closest and the farthest point of
        the user circle (the disc of user positions at the height of its
        center)."""
        offset = point - np.asarray(self.user_circle_center, dtype=float)
        center = np.hypot(offset[0], offset[1])
        radius = self.user_circle_radius
        return tuple(
            float(np.hypot(radial, offset[2]))
            for radial in (max(center - radius, 0.0), center + radius)
        )

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
    every array but the shared BS-side steering vector b.
    """

    H_d_strong: np.ndarray  # [K, N_B] strong users' direct channels
    h_d_weak: np.ndarray  # [N_B] weak user's attenuated direct channel
    b: np.ndarray  # [N_B] BS-side steering, ||b|| = 1
    H_c: np.ndarray  # [K+1, N_R] cascaded channels sqrt(L_G N_B) h_r^H diag(a)


# =========================================================================
# Sampling
# =========================================================================


# Spawn keys of a replication's two streams.
CHANNEL, PHASE = 0, 1

# Replication indices are hashed as one 32-bit entropy word.
MAX_REP = 2**32 - 1


def _rep_seed(seed: int, rep: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, rep], spawn_key=(stream,))


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier (O'Neill, PCG, 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _words(n: int) -> list:
    """The uint32 entropy words of a non-negative int, least significant
    first (one word for 0)."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _seed_words(seed: int, reps: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, rep], spawn_key=(stream,)).generate_state(4,
    uint64) of both streams of every rep, [2, R, 4], as uint32 array
    arithmetic over the entropy [seed words, rep, zero pad to 4, stream]
    (pool size 4)."""
    # every word a full [streams, reps] array: broadcast operands would run
    # other ufunc loops, whose code pages added about 0.2 MB of peak RSS
    shape = (2, len(reps))
    entropy = [np.full(shape, w, np.uint32) for w in _words(seed)]
    entropy.append(np.full(shape, reps, np.uint32))
    entropy += [np.zeros(shape, np.uint32)] * (4 - len(entropy))
    entropy.append(np.full(shape, [[CHANNEL], [PHASE]], np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # the steps of SeedSequence.mix_entropy, then of generate_state
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((2, len(reps), 8), "<u4")
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out[..., i] = value ^ (value >> 16)
    # little-endian pairs of uint32 words form each uint64 word
    return out.view("<u8")


def _pcg64_state(words) -> tuple:
    """PCG64's (state, inc) seeded from generate_state(4, uint64) `words`:
    the set-seed step of pcg_setseq_128_srandom_r on Python ints."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


class Streams:
    """The starts of both streams of replications `reps` of a run, and one
    generator that `starts` sets to each of them in turn.

    words[stream, i] are the four uint64 words PCG64 seeds itself from
    (`_seed_words`).  Indexing with a slice selects replications and shares
    the generator.
    """

    def __init__(self, reps, words, rng):
        self.reps, self.words, self.rng = reps, words, rng

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, index: slice) -> "Streams":
        return Streams(self.reps[index], self.words[:, index], self.rng)

    def starts(self, stream: int):
        """The generator at the start of `stream` (CHANNEL or PHASE) of each
        replication in turn; each start is valid until the next is taken."""
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        pcg = state["state"] = {}
        for words in self.words[stream].tolist():
            pcg["state"], pcg["inc"] = _pcg64_state(words)
            self.rng.bit_generator.state = state
            yield self.rng


def stream_states(seed: int, reps) -> Streams:
    """The starts of both streams of replications `reps` (ints in [0,
    MAX_REP]) of the run seeded `seed`, from one array pass.

    Stream `stream` of replication `rep` starts where
    PCG64(SeedSequence([seed, rep], spawn_key=(stream,))) does: the SeedSequence hash and the
    PCG64 set-seed step are fixed integer functions, whose streams numpy
    keeps stable (NEP 19).  The generator is built from the first
    replication's own SeedSequence, and a RuntimeError is raised if its
    state differs from the computed one.
    """
    reps = np.asarray(reps).reshape(-1)
    if reps.size and not (0 <= reps.min() and reps.max() <= MAX_REP):
        raise ValueError(f"replication indices must lie in [0, {MAX_REP}]")
    reps = reps.astype(np.int64)
    words = _seed_words(seed, reps)
    if not reps.size:
        return Streams(reps, words, None)
    bit_generator = np.random.PCG64(_rep_seed(seed, int(reps[0]), CHANNEL))
    want = bit_generator.state["state"]
    got = dict(zip(("state", "inc"), _pcg64_state(words[CHANNEL, 0].tolist())))
    if got != want:
        raise RuntimeError(
            "the vectorized SeedSequence/PCG64 seeding does not match this "
            f"numpy {np.__version__}: replication {reps[0]} of seed {seed} "
            f"starts at {want}, computed {got}"
        )
    return Streams(reps, words, np.random.Generator(bit_generator))


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
    """Uniform positions in the user circle, [K+1, 3] in meters, from the
    next 2(K+1) uniforms of `rng`."""
    return user_positions(cfg, rng.random(2 * cfg.n_users))


def user_positions(cfg: ScenarioConfig, u: np.ndarray) -> np.ndarray:
    """User positions [..., K+1, 3] from uniforms u [..., 2(K+1)] on [0, 1).

    The first K+1 uniforms set the radii R sqrt(u) and the last K+1 the
    angles 2 pi u, so a draw is uniform in the user circle.  One array pass
    serves one draw or a block of them.
    """
    n = cfg.n_users
    r = cfg.user_circle_radius * np.sqrt(u[..., :n])
    phi = 2.0 * np.pi * u[..., n:]
    pos = np.empty(u.shape[:-1] + (n, 3))
    pos[...] = cfg.user_circle_center
    pos[..., 0] += r * np.cos(phi)
    pos[..., 1] += r * np.sin(phi)
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


def _fading(cfg: ScenarioConfig, pl: PathlossSet, x: np.ndarray, ris: bool):
    """The direct channels H_d [..., K+1, N_B], or with `ris` the RIS-user
    channels H_r [..., K+1, N_R], from a draw's normals x [..., M] (the real
    parts of the direct fading, its imaginary parts, then the same for the
    RIS-user fading): sqrt(L / 2) (re + 1j im), formed as 1j * im, then
    += re (which adds the same two terms without a temporary), then scaled
    in place by the pathlosses L [..., K+1]."""
    n, L = (cfg.n_ris, pl.L_r) if ris else (cfg.n_bs, pl.L_d)
    start, size = 2 * cfg.n_users * cfg.n_bs * ris, cfg.n_users * n
    re, im = (
        x[..., i : i + size].reshape(*x.shape[:-1], cfg.n_users, n)
        for i in (start, start + size)
    )
    z = 1j * im
    z += re
    z *= np.sqrt(L[..., None] / 2.0)
    return z


def _variate_count(cfg: ScenarioConfig) -> int:
    """Standard normals per draw, laid out as `_fading` reads them."""
    return 2 * cfg.n_users * (cfg.n_bs + cfg.n_ris)


def sample_realization(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    positions: np.ndarray = None,
) -> ChannelRealization:
    """Draw one i.i.d. Rayleigh realization of all channels.

    User positions are drawn first from `rng` unless `positions` is supplied
    (frozen-position runs pass the same array for every draw); then the
    fading normals.
    """
    if positions is None:
        positions = draw_user_positions(cfg, rng)
    x = rng.standard_normal(_variate_count(cfg))
    return realize_block(cfg, nominal_pathlosses(cfg, positions), x)


def draw_block(
    cfg: ScenarioConfig,
    streams: Streams,
    positions: np.ndarray = None,
    pathlosses: PathlossSet = None,
) -> tuple:
    """The variates of replications `streams.reps` of a run, one row per draw.

    Returns (positions [len(streams), K+1, 3], their PathlossSet, x
    [len(streams), 2(K+1)(N_B+N_R)]): draw i of
    realize_block(cfg, pathlosses, x) is, bit for bit,
    sample_realization(cfg, rng, positions) of the generator
    rng = default_rng(SeedSequence([seed, streams.reps[i]],
    spawn_key=(CHANNEL,))), and positions[i] the positions it draws.  Each
    replication's channel stream is read in the loop (its 2(K+1) position
    uniforms, then row i of x); the block's positions then
    come from all the uniforms in one array pass (`user_positions`).  Frozen
    positions [K+1, 3] are broadcast to every draw and read no uniforms, and
    so are their pathlosses: `pathlosses` if given (a run of many blocks
    computes `nominal_pathlosses(cfg, positions)` once), else computed here.
    Positions depend only on K, the pathlosses on the positions and the
    geometry, and the normals are drawn in order, so the variates of a
    scenario with fewer elements or antennas are a prefix of each row:
    `realize_block` builds any such scenario from this draw and its
    pathlosses, and `cascade_block` the scenario's cascaded channels alone.
    """
    x = np.empty((len(streams), _variate_count(cfg)))
    u = np.empty((len(streams), 2 * cfg.n_users))
    for rng, u_row, row in zip(streams.starts(CHANNEL), u, x):
        if positions is None:
            rng.random(out=u_row)
        rng.standard_normal(out=row)
    if positions is None:
        positions = user_positions(cfg, u)
        return positions, nominal_pathlosses(cfg, positions), x
    pl = nominal_pathlosses(cfg, positions) if pathlosses is None else pathlosses
    draws = (len(streams), cfg.n_users)
    pl = replace(pl, L_d=np.broadcast_to(pl.L_d, draws), L_r=np.broadcast_to(pl.L_r, draws))
    return np.broadcast_to(positions, (*draws, 3)), pl, x


def realize_block(cfg: ScenarioConfig, pl: PathlossSet, x: np.ndarray) -> ChannelRealization:
    """The realization of scenario `cfg` from drawn variates.

    pl and x are the pathlosses and normals of a `draw_block` result for a
    scenario with the same K and geometry and at least cfg's N_B and N_R,
    or one draw's pathlosses and normals; only the prefix
    x[..., :2(K+1)(N_B+N_R)] is read, and the channel arrays carry x's
    leading axes (b is shared).  H_c comes from `cascade_block`.  A caller
    that passes its only reference to x has the variates freed on return,
    so a block's peak memory holds one copy of each stack.
    """
    H_d_all = _fading(cfg, pl, x, False)
    return ChannelRealization(
        H_d_strong=H_d_all[..., : cfg.n_strong, :],
        h_d_weak=H_d_all[..., cfg.n_strong, :],
        b=steering_vector(cfg.n_bs, cfg.aod, norm="unit"),
        H_c=cascade_block(cfg, pl, x),
    )


def cascade_block(cfg: ScenarioConfig, pl: PathlossSet, x: np.ndarray) -> np.ndarray:
    """The cascaded channels sqrt(L_G N_B) H_r diag(a) [..., K+1, N_R] of
    the RIS-user channels H_r that variates x give (`realize_block`'s
    arguments), with a the RIS-side steering vector (||a||^2 = N_R): the
    one builder of H_c, which `realize_block` calls and an n_ris sweep's
    later points call alone.  H_r is scaled into H_c in place."""
    H_c = _fading(cfg, pl, x, True)
    np.multiply(np.sqrt(pl.L_G * cfg.n_bs), H_c, out=H_c)
    H_c *= steering_vector(cfg.n_ris, cfg.aoa, norm="sqrt_n")
    return H_c


def random_phase_block(streams: Streams, n_ris: int) -> np.ndarray:
    """Random phases [len(streams), N_R] of replications `streams.reps`.

    Row i equals, bit for bit, exp(1j * rng.uniform(0, 2 pi, n_ris)) of
    rng = default_rng(SeedSequence([seed, streams.reps[i]],
    spawn_key=(PHASE,))): angles
    uniform on [0, 2*pi) from the start of the replication's phase stream.
    The uniforms are drawn in order, so the phases of fewer elements are a
    prefix of each row.
    """
    u = np.empty((len(streams), n_ris))
    for rng, row in zip(streams.starts(PHASE), u):
        rng.random(out=row)
    u *= 2.0 * np.pi
    return np.exp(1j * u)
