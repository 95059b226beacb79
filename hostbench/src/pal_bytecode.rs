//! `pal_bytecode`: one closed-loop client running verified PalVM sessions
//! on an unprovisioned platform, with no quote and no seal.
//!
//! Most operations run `progs::trial_division` over a seeded candidate
//! range whose width is spread log-uniformly from 64 to 100 000; one in
//! eight runs `progs::hello_world`. Each operation builds the SLB (which
//! runs the static verifier), runs the session, and checks the output
//! against a host computation. No modular multiplication happens here, so
//! the time goes to the interpreter, the verifier and `run_session`.

use crate::digest::Fnv;
use crate::run::{ClosedLoop, Counts};
use crate::spans::Spans;
use crate::{host_divisors, mix, platform_config};
use flicker_core::{run_session, PalPayload, SessionParams, SlbImage, SlbOptions};
use flicker_crypto::rng::{CryptoRng, XorShiftRng};
use flicker_os::Os;
use flicker_palvm::{progs, Program};
use flicker_trace::{audit, Trace};
use std::time::Duration;

/// Workload name.
pub const NAME: &str = "pal_bytecode";

/// Sessions per round.
pub const ROUND: u64 = 32;

/// Operations folded into the simulation digest: the first round, so
/// that the shortest run (`--seconds 0`) prints the whole digest.
pub const DIGEST_OPS: u64 = ROUND;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Narrowest and widest trial-division candidate range.
pub const MIN_WIDTH: u32 = 64;
/// See [`MIN_WIDTH`].
pub const MAX_WIDTH: u32 = 100_000;

/// Salt separating this workload's operation stream from the others'.
const SALT: u64 = 0xB17E_C0DE;

const HELLO: &[u8] = b"Hello, world";

/// One operation of a seed's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// The Figure 5 hello-world PAL.
    Hello,
    /// Divisors of `n` in `[lo, hi)`.
    TrialDivision {
        /// The number to factor.
        n: u32,
        /// First candidate.
        lo: u32,
        /// One past the last candidate.
        hi: u32,
    },
}

/// Operation `index` of `seed`'s list.
pub fn op_spec(seed: u64, index: u64) -> Op {
    let mut rng = XorShiftRng::new(mix(seed ^ SALT, index));
    if rng.next_u64().is_multiple_of(8) {
        return Op::Hello;
    }
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let ratio = f64::from(MAX_WIDTH) / f64::from(MIN_WIDTH);
    let width = (f64::from(MIN_WIDTH) * ratio.powf(u)).round() as u32;
    let lo = 2 + (rng.next_u64() % 1_000) as u32;
    let n = (1u32 << 20) + (rng.next_u64() % ((1u64 << 31) - (1u64 << 20))) as u32;
    Op::TrialDivision {
        n,
        lo,
        hi: lo + width.clamp(MIN_WIDTH, MAX_WIDTH),
    }
}

/// The set-up platform and the client's programs.
pub struct PalBytecode {
    seed: u64,
    os: Os,
    trace: Trace,
    trial_division: Program,
    hello_world: Program,
}

impl PalBytecode {
    /// Boots the platform (no attestation provisioning) and assembles the
    /// two PALs.
    pub fn setup(seed: u64, spans: &mut Spans) -> PalBytecode {
        let mut os = spans.call("os", "Os::boot", || Os::boot(platform_config()));
        let trace = Trace::new();
        os.set_tracer(trace.clone());
        let trial_division = spans.call("palvm", "progs::trial_division", progs::trial_division);
        let hello_world = spans.call("palvm", "progs::hello_world", progs::hello_world);
        PalBytecode {
            seed,
            os,
            trace,
            trial_division,
            hello_world,
        }
    }
}

impl ClosedLoop for PalBytecode {
    fn round_len(&self) -> u64 {
        ROUND
    }

    fn op(
        &mut self,
        index: u64,
        spans: &mut Spans,
        digest: Option<&mut Fnv>,
    ) -> Result<Duration, String> {
        let op = op_spec(self.seed, index);
        let (name, program, inputs, expected) = match op {
            Op::Hello => ("hello_world", &self.hello_world, Vec::new(), HELLO.to_vec()),
            Op::TrialDivision { n, lo, hi } => {
                let inputs = [n, lo, hi].iter().flat_map(|w| w.to_le_bytes()).collect();
                let expected = host_divisors(u64::from(n), u64::from(lo), u64::from(hi))
                    .iter()
                    .flat_map(|&d| (d as u32).to_le_bytes())
                    .collect();
                ("trial_division", &self.trial_division, inputs, expected)
            }
        };
        let os = &mut self.os;
        let start = os.clock().now();
        let rec = spans.op(name, |spans| {
            let slb = spans
                .call("core", "SlbImage::build", || {
                    SlbImage::build(PalPayload::Bytecode(program.clone()), SlbOptions::default())
                })
                .map_err(|e| format!("SLB build: {e}"))?;
            spans
                .call("core", "run_session", || {
                    run_session(os, &slb, &SessionParams::with_inputs(inputs))
                })
                .map_err(|e| format!("session: {e}"))
        })?;
        let virt = os.clock().now().saturating_sub(start);
        rec.pal_result
            .clone()
            .map_err(|e| format!("{name} PAL: {e}"))?;
        if let Some(digest) = digest {
            digest.bytes(&index.to_le_bytes());
            digest.duration(virt);
            digest.session(&rec);
        }
        if rec.outputs != expected {
            return Err(format!(
                "{name}: PAL output ({} bytes) differs from the host computation ({} bytes)",
                rec.outputs.len(),
                expected.len()
            ));
        }
        Ok(virt)
    }

    fn end_round(&mut self, spans: &mut Spans, counts: Option<&mut Counts>) -> Result<(), String> {
        let (trace, program) = (&self.trace, &self.trial_division);
        let result = spans.op("verify", |spans| {
            if let Some(counts) = counts {
                counts.absorb_trace(trace);
                // The verifier also runs inside `SlbImage::build`; the
                // traced run times it alone once per round.
                spans.call("verifier", "verify_program", || {
                    flicker_verifier::verify_program(program)
                });
            }
            let verdict = spans.call("trace", "audit::audit_trace", || audit::audit_trace(trace));
            if verdict.is_clean() {
                Ok(())
            } else {
                Err(format!("flight-record audit: {verdict}"))
            }
        });
        self.trace.reset();
        result
    }
}
