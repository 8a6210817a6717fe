"""Steering the BS-RIS direction between the strong users and the weak link.

The rank-one BS-RIS link leaves one transmit direction b to allocate.
The orthogonality parameter xi moves b from inside the strong users'
direct row space (xi = 0, the RIS feed steals a full direct dimension)
to its orthogonal complement (xi large, the direct rates are untouched).
Swept on a log grid with 4 BS antennas and K = 3 strong users at 40 dBm:
the strong-user DPC rate recovers as xi grows while the weak user's rate
is flat -- its link only needs the projection to be nonzero.

Serving the weak user costs the strong users the same on every draw: their
high-SNR DPC rate alone (power split K ways) exceeds their part of the
shared system's (split K+1 ways) by exactly

    K log2((K+1)/K) + log2(1 + xi^-2),

since det C_s = det(H H^H) (1 - c^H (H H^H)^{-1} c) (matrix determinant
lemma) and the feed c(0) / sqrt(1 + xi^2) has c^H (H H^H)^{-1} c =
1 / (1 + xi^2).  The last line takes this offset from one draw.
"""

import numpy as np

from risbc.channel import ScenarioConfig, db_to_lin, sample_realization
from risbc.se import decompose_feed, rate_terms, rates, row_space_feed
from risbc.sweep import MethodSpec, SweepPlan, run_sweep

cfg = ScenarioConfig(n_bs=4, ptx_dbm=40.0)
plan = SweepPlan(
    cfg,
    "xi",
    tuple(float(x) for x in np.logspace(-2.0, 3.0, 11)),
    (MethodSpec("DPC", "align_weak", "asymptotic"),),
    reps=100,
)
result = run_sweep(plan)

print("high-SNR DPC split vs BS-RIS orthogonality (means over 100 draws)\n")
print(f"{'xi':>8} {'strong':>8} {'weak':>7} {'sum':>8} {'flagged':>8}")
for row in result.rows:
    print(
        f"{row.value:8.2f} {row.se_d_mean:8.2f} {row.se_r_mean:7.2f}"
        f" {row.se_mean:8.2f} {row.flagged:8d}"
    )

real = sample_realization(cfg, np.random.default_rng(cfg.seed))
p_strong = db_to_lin(cfg.ptx_dbm) / cfg.n_strong
c = row_space_feed(real.H_d_strong) / np.hypot(1.0, 1e3)
theta = np.ones(cfg.n_ris, dtype=complex)  # the strong users' rate ignores it
# a zero feed leaves C_s = H H^H: the direct-only system, power split K ways
alone, shared = (
    rates(
        rate_terms(decompose_feed(real.H_d_strong, real.H_c, feed), theta),
        p_bar, "DPC", "asymptotic",
    )[1]
    for feed, p_bar in ((np.zeros_like(c), p_strong), (c, cfg.p_bar()))
)
offset = alone - shared
target = cfg.n_strong * np.log2((cfg.n_strong + 1) / cfg.n_strong)
print(
    f"\nstrong-user rate offset vs direct-only system at xi = 1e3: "
    f"{offset:.4f} bpcu (power-split value K log2((K+1)/K) = {target:.4f})"
)
