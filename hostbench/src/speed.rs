//! Machine speed, measured beside the workload, so that host times can be
//! reported at a fixed reference speed.
//!
//! The benchmark shares its cores with other tenants. Their load slows
//! throughput-bound code — the simulator's bignum arithmetic, its
//! interpreter, its allocations — by up to 1.9× for minutes at a time,
//! while latency-bound loops barely notice. A run therefore times, next
//! to the workload, a fixed kernel of the same kind: 1024-bit Montgomery
//! products, each allocating its result like the simulator's own bignum
//! code does. The kernel is the benchmark's own code, so no change to the
//! repository's crates moves it; only the machine does.
//!
//! A time measured while the kernel took `k` seconds (the median of the
//! kernel runs made during and around it) is reported as
//! `time × REFERENCE_S / k`: what it would have taken had the machine
//! been as fast as when the kernel takes [`REFERENCE_S`]. On a quiet
//! machine of the reference kind the factor is about 1.

use crate::sys::median;
use std::hint::black_box;
use std::time::Instant;

/// Limbs of the kernel's modulus (1024 bits, the size of the benchmark
/// platform's TPM keys).
const LIMBS: usize = 16;

/// Montgomery products per kernel run (about 1 ms).
const PRODUCTS: usize = 2_000;

/// Kernel runs per core in a measurement between workload steps.
const RUNS: usize = 5;

/// Seconds one kernel run takes at the reference speed: a fixed figure,
/// close to the kernel's time on a quiet 2-core Intel Xeon VM.
pub const REFERENCE_S: f64 = 1.0e-3;

/// The CIOS Montgomery product `a·b·R⁻¹` modulo `n` (without the final
/// subtraction), in a freshly allocated result.
fn mont_mul(n: &[u64; LIMBS], n_prime: u64, a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut t = vec![0u64; LIMBS + 2];
    for &ai in a {
        let mut carry = 0u128;
        for j in 0..LIMBS {
            let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[LIMBS]) + carry;
        t[LIMBS] = s as u64;
        t[LIMBS + 1] = (s >> 64) as u64;
        let m = t[0].wrapping_mul(n_prime);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(n[0])) >> 64;
        for j in 1..LIMBS {
            let s = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[LIMBS]) + carry;
        t[LIMBS - 1] = s as u64;
        t[LIMBS] = t[LIMBS + 1].wrapping_add((s >> 64) as u64);
        t[LIMBS + 1] = 0;
    }
    t.truncate(LIMBS);
    t
}

/// Host seconds of one kernel run on this thread.
pub fn sample() -> f64 {
    let mut n = [0u64; LIMBS];
    for (i, limb) in n.iter_mut().enumerate() {
        *limb = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1) | 1;
    }
    let n = black_box(n);
    let mut x: Vec<u64> = (0..LIMBS as u64).map(|i| i * 7 + 3).collect();
    let start = Instant::now();
    for _ in 0..PRODUCTS {
        x = mont_mul(&n, black_box(0x1234_5678_9ABC_DEF1), &x, &x);
    }
    black_box(&x);
    start.elapsed().as_secs_f64()
}

/// A few kernel runs on each of `threads` cores at once (this thread and
/// `threads - 1` more), for a workload that keeps that many busy.
pub fn measure(threads: usize) -> Vec<f64> {
    let runs = || (0..RUNS).map(|_| sample()).collect::<Vec<f64>>();
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(runs)).collect();
        let mut all = runs();
        for other in others {
            all.extend(other.join().expect("speed kernel thread"));
        }
        all
    })
}

/// The factor that brings a time measured while the kernel took the
/// `kernel_s` seconds (their median) to the reference speed.
pub fn factor(kernel_s: &[f64]) -> f64 {
    let kernel = median(kernel_s);
    if kernel > 0.0 {
        REFERENCE_S / kernel
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        assert_eq!(factor(&[REFERENCE_S]), 1.0);
        // A machine at half speed: times are halved.
        let slow = 2.0 * REFERENCE_S;
        assert!((factor(&[slow, slow, 9.0]) - 0.5).abs() < 1e-12);
        assert_eq!(factor(&[]), 1.0);
    }

    #[test]
    fn kernel_is_timed() {
        let runs = measure(2);
        assert_eq!(runs.len(), 2 * RUNS);
        assert!(runs.iter().all(|&k| k > 0.0 && k < 1.0), "{runs:?}");
    }
}
