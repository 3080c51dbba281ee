//! Pinned output fingerprints: one combined fingerprint per workload at
//! the default seeds (`--seed 0`), for the full and the `--quick` pass.
//!
//! A fingerprint is FNV-1a 64 over the `Debug` text of every `RunReport`
//! of a pass, in run order, with `events` zeroed
//! ([`crate::measure::fingerprint`]). A change that alters any simulated
//! output of a workload changes its fingerprint; a change that only makes
//! the simulator faster does not.

use crate::workloads::WorkloadId;

/// The pinned fingerprint of `workload`'s pass at the default seeds.
pub fn pin(workload: WorkloadId, quick: bool) -> u64 {
    match (workload, quick) {
        (WorkloadId::PaperGrid, false) => 0x8abb_c884_ec00_19f8,
        (WorkloadId::PaperGrid, true) => 0x97d0_eddf_72a7_c10a,
        (WorkloadId::Live1m, false) => 0xe2d4_0c2f_ff4d_994a,
        (WorkloadId::Live1m, true) => 0x102b_a070_27d0_e554,
        (WorkloadId::ResilienceAll, false) => 0x6c3f_dd8c_150b_1e83,
        (WorkloadId::ResilienceAll, true) => 0xc004_47d2_d96d_7f6f,
        (WorkloadId::BoardUpdates, false) => 0xf5ce_c93c_f76c_9246,
        (WorkloadId::BoardUpdates, true) => 0x4d15_51aa_f3fd_2b60,
    }
}
