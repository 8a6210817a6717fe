"""Growing the RIS: where linear precoding saturates and DPC keeps going.

Element-count sweep with the direct links attenuated by 20 dB extra and
user positions frozen, so the weak user's rate is shaped by the RIS.
Under zero-forcing the weak user's reflected rate flattens: its gain and
its mitigation penalty both grow linearly in N_R and cancel, and an
N_R-independent ergodic upper bound caps the mean.  Under DPC the same
rate keeps climbing -- 1 bpcu per element doubling with random phases,
2 bpcu with aligned phases -- matching the ergodic closed forms.
"""

from risbc.bounds import aligned_phase_closed_forms, random_phase_closed_forms
from risbc.channel import (
    ScenarioConfig,
    draw_user_positions,
    nominal_pathlosses,
    position_rng,
)
from risbc.sweep import MethodSpec, SweepPlan, run_sweep

cfg = ScenarioConfig(ptx_dbm=40.0, direct_extra_loss_db=20.0, freeze_positions=True)
methods = tuple(
    MethodSpec(precoder, kind, "asymptotic")
    for precoder in ("ZF", "DPC")
    for kind in ("random", "align_weak")
)
values = (16.0, 32.0, 64.0, 128.0, 256.0)
result = run_sweep(SweepPlan(cfg, "n_ris", values, methods, reps=500))

pl = nominal_pathlosses(cfg, draw_user_positions(cfg, position_rng(cfg.seed)))
p_bar = cfg.p_bar()

means = {
    (row.value, row.precoder, row.strategy): row.se_r_mean for row in result.rows
}

print("weak user's high-SNR reflected rate [bpcu], 500 paired draws\n")
print("--- random phases ---")
print(f"{'N_R':>5} {'ZF':>6} {'bound':>6} {'DPC':>7} {'closed form':>12}")
for n in values:
    lin_upper, dpc_value = random_phase_closed_forms(
        cfg.with_updates(n_ris=int(n)), pl, p_bar
    )
    print(
        f"{int(n):5d} {means[(n, 'ZF', 'random')]:6.2f} {lin_upper:6.2f}"
        f" {means[(n, 'DPC', 'random')]:7.2f} {dpc_value:12.2f}"
    )

print("\n--- phases aligned to the weak user ---")
print(f"{'N_R':>5} {'ZF':>6} {'bound':>6} {'DPC':>7} {'lower bound':>12}")
for n in values:
    lin_upper, dpc_lower = aligned_phase_closed_forms(
        cfg.with_updates(n_ris=int(n)), pl, p_bar
    )
    print(
        f"{int(n):5d} {means[(n, 'ZF', 'align_weak')]:6.2f} {lin_upper:6.2f}"
        f" {means[(n, 'DPC', 'align_weak')]:7.2f} {dpc_lower:12.2f}"
    )
