"""Snowplow: the hybrid fuzzer with the learned white-box mutator.

Wires PMM into the fuzzer of :mod:`repro.fuzzer` as its argument
localizer (§3.4): mutation queries are served asynchronously by a
virtual-time inference service while the loop keeps mutating with the
existing heuristics, predictions arriving later trigger bursts of
argument mutations on the predicted paths, and a low-probability random
argument localization remains as a fallback.

The campaign harness runs the paper's experiments: repeated side-by-side
coverage campaigns (Fig. 6), 7-day crash campaigns (Tables 2-4), and
directed time-to-target sweeps (Table 5).
"""

from repro.snowplow.fuzzer import PMMLocalizer, SnowplowConfig, SnowplowLoop
from repro.snowplow.campaign import (
    CampaignConfig,
    ChaosCampaignResult,
    CoverageCampaignResult,
    CrashCampaignResult,
    FaultCampaignResult,
    PatchCampaignResult,
    ScalingCampaignResult,
    ScalingPoint,
    build_cluster,
    build_fuzz_loop,
    build_loop,
    chaos_plan,
    fuzz_campaign_config,
    fuzz_run_seed,
    run_chaos_campaign,
    run_coverage_campaign,
    run_crash_campaign,
    run_directed_campaign,
    run_fault_tolerance_campaign,
    run_patch_campaign,
    run_scaling_campaign,
    train_pmm,
    TrainedPMM,
)
from repro.snowplow.checkpointing import (
    CheckpointStore,
    cluster_state,
    load_checkpoint,
    loop_state,
    restore_cluster_state,
    restore_loop_state,
    save_checkpoint,
)
from repro.snowplow.reporting import (
    chaos_json,
    format_chaos,
    format_fig6,
    format_scaling,
    format_specgen,
    format_table1,
    format_table2,
    format_table3,
    format_table5,
    scaling_json,
    specgen_json,
)

__all__ = [
    "CampaignConfig",
    "ChaosCampaignResult",
    "CheckpointStore",
    "CoverageCampaignResult",
    "CrashCampaignResult",
    "FaultCampaignResult",
    "PMMLocalizer",
    "PatchCampaignResult",
    "ScalingCampaignResult",
    "ScalingPoint",
    "SnowplowConfig",
    "SnowplowLoop",
    "TrainedPMM",
    "build_cluster",
    "build_fuzz_loop",
    "build_loop",
    "chaos_json",
    "chaos_plan",
    "cluster_state",
    "format_chaos",
    "format_fig6",
    "format_scaling",
    "format_specgen",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table5",
    "fuzz_campaign_config",
    "fuzz_run_seed",
    "load_checkpoint",
    "loop_state",
    "restore_cluster_state",
    "restore_loop_state",
    "run_chaos_campaign",
    "run_coverage_campaign",
    "run_crash_campaign",
    "run_directed_campaign",
    "run_fault_tolerance_campaign",
    "run_patch_campaign",
    "run_scaling_campaign",
    "save_checkpoint",
    "scaling_json",
    "specgen_json",
    "train_pmm",
]
