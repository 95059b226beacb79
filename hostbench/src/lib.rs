//! Host-time benchmark for the Flicker reproduction.
//!
//! Three workloads, each run in a process of its own by
//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//!
//! * [`app_mix`] — one client running the five §6 application protocols
//!   round-robin on a provisioned platform; its host time is almost all
//!   bignum work.
//! * [`pal_bytecode`] — one client running verified PalVM sessions on an
//!   unprovisioned platform; no modular multiplication at all, so its time
//!   goes to the interpreter, the verifier and `run_session`.
//! * [`farm_faults`] — the sharded farm with two machines serving batches
//!   of seeded fault-injected requests; the only multi-threaded path, and
//!   the one that reads flight records back (audit and attribution).
//!
//! The end-to-end run (`--trace 0`) times operations and nothing inside
//! them. The traced run (`--trace 1`) first repeats the end-to-end
//! measurement for half its time, then wraps every call into a layer's
//! public API in a host-time span ([`spans`]) for the other half, and
//! reports per-layer metrics, the layers' own counters, and its overhead.
//! The system's flight recorder stays attached in both. End-to-end host
//! times are reported at a reference machine speed ([`speed`]), so that
//! other tenants' load on the shared cores does not read as a change of
//! the program.

pub mod app_mix;
pub mod digest;
pub mod farm_faults;
pub mod pal_bytecode;
pub mod report;
pub mod run;
pub mod spans;
pub mod speed;
pub mod sys;
pub mod workload;

use flicker_os::OsConfig;
use flicker_tpm::TpmTimingProfile;

/// RSA modulus of the platform TPM's keys (EK, SRK, AIK). Set here rather
/// than taken from the evaluation harness, so that changing the key size
/// is a change of the workload.
pub const TPM_KEY_BITS: usize = 1024;

/// Entropy and kernel seed of the benchmark platform. Fixed: the workload
/// seed varies the operations, not the platform, so set-up does the same
/// work on every run.
pub const PLATFORM_SEED: u8 = 0x5E;

/// The benchmark platform: the paper's HP dc5750 (Broadcom TPM, ~2 MB
/// measured kernel) with [`TPM_KEY_BITS`]-bit TPM keys.
pub fn platform_config() -> OsConfig {
    let mut config = OsConfig::default();
    config.machine.tpm.key_bits = TPM_KEY_BITS;
    config.machine.tpm.entropy_seed = [PLATFORM_SEED; 32];
    config.machine.tpm.timing = TpmTimingProfile::broadcom_bcm0102();
    config.kernel_seed = u64::from(PLATFORM_SEED);
    config
}

/// SplitMix64 finalizer: a well-mixed 64-bit value from `seed` and
/// `index`, so that operation `index` of a seed's list does not depend on
/// how many operations ran before it.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Divisors of `n` in `[lo, hi)`, computed on the host: the reference the
/// factoring PALs' outputs are checked against.
pub fn host_divisors(n: u64, lo: u64, hi: u64) -> Vec<u64> {
    (lo.max(1)..hi).filter(|&d| n.is_multiple_of(d)).collect()
}
