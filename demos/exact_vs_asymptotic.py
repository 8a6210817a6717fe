"""Exact sum SE vs the high-SNR expressions on one channel draw.

Evaluates zero-forcing and dirty-paper coding on a fixed realization of
the default downlink (12 BS antennas, 64 RIS elements, 3 strong users
plus 1 RIS-only weak user) over a transmit-power ramp.  Both exact
curves settle onto their high-SNR power-offset forms within a few dBm,
and from there on the DPC-over-ZF advantage is the constant
delta_d + delta_r.
"""

import numpy as np

from risbc.channel import ScenarioConfig, db_to_lin, sample_realization
from risbc.phases import align_weak_user
from risbc.se import decompose, delta_se, rate_terms, rates

cfg = ScenarioConfig()
real = sample_realization(cfg, np.random.default_rng(1))
cache = decompose(real)
# every rate below, and the gap, reads this one record of the draw
terms = rate_terms(cache, align_weak_user(cache.h_c_weak))

print("sum SE [bpcu] on one draw, RIS phases aligned to the weak user\n")
print(f"{'P [dBm]':>7} {'ZF':>8} {'ZF asym':>8} {'DPC':>8} {'DPC asym':>9} {'DPC-ZF':>7}")
for p_dbm in range(0, 45, 5):
    p_bar = db_to_lin(p_dbm) / cfg.n_users
    zf, zf_a, dpc, dpc_a = (
        rates(terms, p_bar, precoder, mode)[0]
        for precoder in ("ZF", "DPC")
        for mode in ("exact", "asymptotic")
    )
    print(f"{p_dbm:7d} {zf:8.3f} {zf_a:8.3f} {dpc:8.3f} {dpc_a:9.3f} {dpc - zf:7.3f}")

d_d, d_r = delta_se(terms)
print(
    f"\nhigh-SNR DPC-ZF gap: delta_d + delta_r"
    f" = {d_d:.3f} + {d_r:.3f} = {d_d + d_r:.3f} bpcu"
)
