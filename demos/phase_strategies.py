"""What each RIS phase strategy buys the weak user.

Compares random phases, aligning to the weak user's cascaded channel,
and the mitigation-aware optimizer under zero-forcing, on
paired channel draws of the default downlink.  Alignment maximizes the
weak user's raw gain but also amplifies the interference-mitigation
penalty baked into its ZF rate; the optimizer trades a little gain for a
smaller penalty.  DPC pays no such penalty, so alignment is already
optimal there.
"""

from risbc.channel import ScenarioConfig
from risbc.sweep import MethodSpec, SweepPlan, run_sweep

cfg = ScenarioConfig()  # 30 dBm, 12 BS antennas, 64 elements
methods = tuple(
    MethodSpec(precoder, kind, "exact")
    for precoder, kind in (
        ("ZF", "random"),
        ("ZF", "align_weak"),
        ("ZF", "mitigation_aware"),
        ("DPC", "align_weak"),
    )
)
plan = SweepPlan(cfg, "ptx_dbm", (cfg.ptx_dbm,), methods, reps=200)
result = run_sweep(plan)

print("mean SE [bpcu] over 200 paired draws at 30 dBm\n")
print(f"{'method':<26} {'sum':>7} {'strong':>7} {'weak':>6}")
for row in result.rows:
    label = f"{row.precoder}:{row.strategy}:{row.mode}"
    print(
        f"{label:<26} {row.se_mean:7.2f} {row.se_d_mean:7.2f} {row.se_r_mean:6.2f}"
    )
