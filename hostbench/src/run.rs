//! The measurement loop shared by the workloads: one closed-loop client,
//! operations grouped into rounds, and a round's flight record verified
//! before the next round starts.
//!
//! A round is the unit of verification. The platform keeps one
//! [`flicker_trace::Trace`] attached for the whole run; at the end of a
//! round the workload audits it (and profiles it, for `app_mix`), then
//! resets it. The record stays bounded no matter how long the run is, so
//! peak memory does not grow with host speed, and the ring buffer never
//! overflows into an inconclusive audit.

use crate::digest::Fnv;
use crate::spans::Spans;
use crate::speed;
use flicker_crypto::cost::{self, CostSnapshot};
use flicker_trace::{EventKind, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Failure messages kept per phase for the report (the count is exact;
/// only the first few messages are kept).
const KEPT_FAILURES: usize = 5;

/// Least host seconds of a sub-window. Throughput and CPU per operation
/// are medians over a phase's sub-windows, so that a burst of load from
/// outside the process moves them only when it lasts most of the run.
/// The machine's speed is measured after every round ([`speed`]).
///
/// [`speed`]: crate::speed
pub const SUBWINDOW_S: f64 = 1.0;

/// One sub-window of a phase: whole rounds, at least [`SUBWINDOW_S`]
/// long (except in a phase shorter than that). Its times are at the
/// reference speed ([`crate::speed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that passed their checks.
    pub ok: u64,
    /// Seconds, verification included.
    pub secs: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.secs += other.secs;
        self.cpu_s += other.cpu_s;
    }
}

/// Counts the layers already expose, read during the traced phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Crypto primitive counts of the client thread (`None` where the
    /// work ran on other threads, whose thread-local counters the client
    /// cannot read).
    pub crypto: Option<CostSnapshot>,
    /// Every `tpm.TPM_*` command.
    pub tpm_cmds: u64,
    /// `TPM_Quote` commands.
    pub tpm_quote: u64,
    /// `TPM_Seal` commands.
    pub tpm_seal: u64,
    /// `TPM_Unseal` commands.
    pub tpm_unseal: u64,
    /// PalVM instructions retired (`vm.insns`).
    pub vm_insns: u64,
    /// Flicker sessions started (`SessionStart` events).
    pub sessions: u64,
    /// Flight-recorder events recorded, dropped ones included.
    pub events: u64,
    /// Virtual-clock spans recorded.
    pub spans: u64,
    /// Events the ring buffer evicted.
    pub dropped_events: u64,
}

impl Counts {
    /// Adds what `trace` recorded since it was last reset.
    pub fn absorb_trace(&mut self, trace: &Trace) {
        for (name, hist) in trace.histograms() {
            let Some(ordinal) = name.strip_prefix("tpm.TPM_") else {
                continue;
            };
            let n = hist.count();
            self.tpm_cmds += n;
            match ordinal {
                "Quote" => self.tpm_quote += n,
                "Seal" => self.tpm_seal += n,
                "Unseal" => self.tpm_unseal += n,
                _ => {}
            }
        }
        self.vm_insns += trace.counter("vm.insns");
        let events = trace.events();
        self.sessions += events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SessionStart { .. }))
            .count() as u64;
        let dropped = trace.dropped_events();
        self.events += events.len() as u64 + dropped;
        self.dropped_events += dropped;
        self.spans += trace.spans().len() as u64;
    }
}

/// One measured phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Host time from the phase start to the end of its last round's
    /// verification (for `farm_faults`, the sum of the batches' windows,
    /// which leave out each batch's set-up).
    pub window: Duration,
    /// Process CPU time over the window.
    pub cpu: Duration,
    /// The window's sub-windows, in order.
    pub windows: Vec<Window>,
    /// The speed factor of each sub-window ([`crate::speed::factor`]).
    pub speed: Vec<f64>,
    /// Milliseconds of each operation at the reference speed.
    pub op_ms: Vec<f64>,
    /// Virtual-clock milliseconds of each operation.
    pub virt_ms: Vec<f64>,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Operations folded into the simulation digest that passed their
    /// checks and their round's verification.
    pub folded_ok: u64,
    /// Layer counts (traced phase only).
    pub counts: Counts,
}

impl Phase {
    /// Counts `n` failed operations, keeping the message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Ends a sub-window measured in host time while the machine ran at
    /// `speed` ([`crate::speed::factor`]), along with the host
    /// milliseconds of its operations. A sub-window shorter than half a
    /// [`SUBWINDOW_S`] joins the previous one instead.
    pub fn close_window(&mut self, host: Window, op_ms: &[f64], speed: f64) {
        self.speed.push(speed);
        self.op_ms.extend(op_ms.iter().map(|ms| ms * speed));
        let w = Window {
            secs: host.secs * speed,
            cpu_s: host.cpu_s * speed,
            ..host
        };
        match self.windows.last_mut() {
            Some(last) if host.secs < SUBWINDOW_S / 2.0 => last.merge(w),
            _ => self.windows.push(w),
        }
    }

    /// Correct operations per second at the reference speed: the median
    /// over sub-windows.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.secs > 0.0)
            .map(|w| w.ok as f64 / w.secs)
            .collect();
        crate::sys::median(&rates)
    }

    /// Process CPU milliseconds per attempted operation at the reference
    /// speed: the median over sub-windows.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.attempted > 0)
            .map(|w| w.cpu_s * 1e3 / w.attempted as f64)
            .collect();
        crate::sys::median(&costs)
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A single-threaded workload driven by one closed-loop client.
pub trait ClosedLoop {
    /// Operations per round.
    fn round_len(&self) -> u64;

    /// Runs operation `index` of the seed's operation list and returns its
    /// virtual-clock latency. Folds the operation's virtual outputs into
    /// `digest` when one is given. An `Err` is a failed correctness check.
    fn op(
        &mut self,
        index: u64,
        spans: &mut Spans,
        digest: Option<&mut Fnv>,
    ) -> Result<Duration, String>;

    /// Verifies the round's flight record, adds its counts to `counts`
    /// when given, and starts a fresh record.
    fn end_round(&mut self, spans: &mut Spans, counts: Option<&mut Counts>) -> Result<(), String>;
}

/// Where a workload's simulation digest is folded: operations with an
/// index below `ops` feed `fnv`.
#[derive(Debug, Clone)]
pub struct DigestPrefix {
    /// Operations folded into the digest.
    pub ops: u64,
    /// The running digest.
    pub fnv: Fnv,
}

/// Runs whole rounds of `w` until `seconds` of host time have passed (at
/// least one round), starting at operation `*next`. With `counted`, the
/// phase also reads the layer counts, including the client thread's
/// crypto counters.
pub fn run_phase<W: ClosedLoop>(
    w: &mut W,
    spans: &mut Spans,
    next: &mut u64,
    seconds: f64,
    digest: &mut DigestPrefix,
    counted: bool,
) -> Phase {
    let mut phase = Phase::default();
    // Kernel runs of the open sub-window, one after each round, and the
    // host seconds they took, which the sub-window leaves out.
    let (mut kernel_s, mut kernel_total) = (Vec::new(), 0.0);
    let mut op_ms = Vec::new();
    let crypto_start = cost::snapshot();
    let cpu_start = crate::sys::process_cpu();
    let start = Instant::now();
    let mut sub = (start, cpu_start, 0, 0);
    loop {
        let (mut ok_in_round, mut folded_ok_in_round) = (0, 0);
        for _ in 0..w.round_len() {
            let index = *next;
            *next += 1;
            let folded = index < digest.ops;
            let fold = folded.then_some(&mut digest.fnv);
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| w.op(index, spans, fold)));
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            phase.attempted += 1;
            match result {
                Ok(Ok(virt)) => {
                    phase.virt_ms.push(virt.as_secs_f64() * 1e3);
                    ok_in_round += 1;
                    folded_ok_in_round += u64::from(folded);
                }
                Ok(Err(e)) => phase.fail(1, format!("op {index}: {e}")),
                Err(_) => phase.fail(1, format!("op {index}: panicked")),
            }
        }
        let counts = counted.then_some(&mut phase.counts);
        let verdict = catch_unwind(AssertUnwindSafe(|| w.end_round(spans, counts)))
            .unwrap_or_else(|_| Err("round verification panicked".into()));
        if let Err(e) = verdict {
            // A round whose flight record does not verify vouches for none
            // of its operations.
            phase.fail(ok_in_round, format!("round ending at op {}: {e}", *next));
        } else {
            phase.folded_ok += folded_ok_in_round;
        }
        let k = speed::sample();
        kernel_s.push(k);
        kernel_total += k;
        let done = start.elapsed().as_secs_f64() >= seconds;
        let (sub_start, sub_cpu, sub_attempted, sub_failed) = sub;
        if done || sub_start.elapsed().as_secs_f64() >= SUBWINDOW_S {
            let cpu = crate::sys::process_cpu();
            let attempted = phase.attempted - sub_attempted;
            let host = Window {
                attempted,
                ok: attempted - (phase.failed - sub_failed),
                secs: sub_start.elapsed().as_secs_f64() - kernel_total,
                cpu_s: (cpu.saturating_sub(sub_cpu).as_secs_f64() - kernel_total).max(0.0),
            };
            phase.close_window(host, &op_ms, speed::factor(&kernel_s));
            op_ms.clear();
            (kernel_s, kernel_total) = (Vec::new(), 0.0);
            sub = (Instant::now(), cpu, phase.attempted, phase.failed);
        }
        if done {
            break;
        }
    }
    phase.window = start.elapsed();
    phase.cpu = crate::sys::process_cpu().saturating_sub(cpu_start);
    if counted {
        phase.counts.crypto = Some(cost::snapshot().since(&crypto_start));
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_window_scales_to_the_reference_speed() {
        let mut phase = Phase::default();
        let host = Window {
            attempted: 10,
            ok: 10,
            secs: 2.0,
            cpu_s: 2.0,
        };
        // The machine ran at half the reference speed: times halve.
        phase.close_window(host, &[4.0, 8.0], 0.5);
        assert_eq!(phase.op_ms, vec![2.0, 4.0]);
        assert_eq!(phase.ops_per_s(), 10.0);
        assert_eq!(phase.cpu_ms_per_op(), 100.0);
        // A short sub-window joins the previous one, in scaled seconds.
        let short = Window {
            attempted: 1,
            ok: 1,
            secs: 0.25,
            cpu_s: 0.25,
        };
        phase.close_window(short, &[1.0], 2.0);
        assert_eq!(phase.windows.len(), 1);
        assert_eq!(phase.windows[0].secs, 1.5);
        assert_eq!(phase.speed, vec![0.5, 2.0]);
    }
}
