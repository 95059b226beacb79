//! `farm_faults`: the sharded farm with two machines (one worker thread
//! each) serving batches of `RequestSpec::seeded` requests under fault
//! injection.
//!
//! An operation is one farm request. A batch starts a farm, submits
//! [`BATCH`] requests at once into a queue sized for them, drains it, and
//! verifies it: request conservation, a `Clean` audit of every machine's
//! flight record, and attribution covering at least 99% of every
//! request's wall time (the SLO evaluation runs beside it). The farm's
//! machines keep their flight records for the whole batch, so the batch is
//! sized to stay well inside the recorder's ring buffer.
//!
//! Host times come from the wall stamps the coordinator puts on its
//! lifecycle events: set-up ends when every machine has admitted its first
//! request, and an operation's service time runs from `admitted` to its
//! terminal event.

use crate::mix;
use crate::run::{Phase, Window};
use crate::spans::Spans;
use crate::speed;
use flicker_farm::request::actions;
use flicker_farm::{Farm, FarmConfig, FarmReport, RequestSpec, Terminal};
use flicker_trace::attribution::{self, SloPolicy};
use flicker_trace::EventKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "farm_faults";

/// Machines, one worker thread each.
pub const MACHINES: usize = 2;

/// Requests per batch: enough that the idle tail at the end of a batch,
/// when one machine has finished and the other runs the last request, is
/// a small share of it.
pub const BATCH: u64 = 200;

/// Least share of each request's wall time the attribution must explain.
pub const MIN_COVERAGE: f64 = 0.99;

/// Base seed of the farm's machines (fixed, like the other workloads'
/// platform).
const BASE_SEED: u64 = 0x00FA_12B0;

/// Salt separating this workload's request stream from the others'.
const SALT: u64 = 0xFA_0175;

/// Request `index` of `seed`'s list: `RequestSpec::seeded` on a seed
/// whose residue picks the protocols in rotation (`AppKind::from_seed`),
/// so every batch holds each protocol in equal measure.
pub fn request_spec(seed: u64, index: u64) -> RequestSpec {
    let s = mix(seed ^ SALT, index);
    RequestSpec::seeded(s - s % 5 + index % 5)
}

/// Per-workload latency budgets the SLO evaluation applies (2× above the
/// faulted p95 of each protocol on the farm's platforms).
fn slo_policy() -> SloPolicy {
    let s = Duration::from_secs;
    SloPolicy {
        budgets: BTreeMap::from([
            ("rootkit".into(), s(8)),
            ("ssh".into(), s(12)),
            ("distcomp".into(), s(8)),
            ("ca".into(), s(8)),
            ("storage".into(), s(16)),
        ]),
        default_budget: s(16),
        error_budget: 0.25,
        outlier_factor: 8.0,
    }
}

/// Farm-layer figures read from the coordinator's record.
#[derive(Debug, Clone, Default)]
pub struct FarmStats {
    /// Host ms from `enqueued` to the first `admitted`, per request.
    pub queue_wait_ms: Vec<f64>,
    /// Host ns of attempts (`running` to the attempt's next event).
    pub attempt_ns: u64,
    /// Host ns each batch's farm ran, summed (per machine).
    pub serve_ns: u64,
    /// Attempts beyond each request's first.
    pub retries: u64,
    /// Quarantine requeues.
    pub requeues: u64,
    /// Machine quarantines.
    pub quarantines: u64,
}

/// What one run of the workload measured.
#[derive(Debug, Clone, Default)]
pub struct FarmRun {
    /// Set-up seconds of every batch at the reference speed; the first
    /// counts from the origin given to [`run_phase`].
    pub setups: Vec<f64>,
    /// The measured phase.
    pub phase: Phase,
    /// Farm-layer figures (counted phases only).
    pub stats: FarmStats,
}

/// Wall stamps of one request's lifecycle, from the coordinator record.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    enqueued: Option<Duration>,
    admitted: Option<Duration>,
    running: Option<Duration>,
    terminal: Option<Duration>,
}

/// Runs one batch: requests `first..first + BATCH`. Returns when the
/// batch started and how long after that every machine had admitted its
/// first request.
fn batch(
    seed: u64,
    first: u64,
    spans: &mut Spans,
    phase: &mut Phase,
    stats: Option<&mut FarmStats>,
) -> (Instant, Duration) {
    let config = FarmConfig {
        machines: MACHINES,
        queue_bound: BATCH as usize,
        base_seed: BASE_SEED,
        ..FarmConfig::default()
    };
    let started = Instant::now();
    let report: FarmReport = spans.op("batch", |spans| {
        let farm = spans.call("farm", "Farm::start", || Farm::start(config));
        for i in 0..BATCH {
            spans.call("farm", "Farm::submit", || {
                farm.submit(request_spec(seed, first + i))
            });
        }
        spans.call("farm", "Farm::shutdown", || farm.shutdown())
    });
    let served = started.elapsed();

    // Lifecycle stamps and per-machine first admission.
    let mut stamps: BTreeMap<u64, Stamps> = BTreeMap::new();
    let mut first_admit: BTreeMap<u64, Duration> = BTreeMap::new();
    let mut attempt_ns = 0u64;
    for e in report.coordinator.events() {
        let EventKind::Farm {
            action,
            request,
            machine,
        } = &e.kind
        else {
            continue;
        };
        let s = stamps.entry(*request).or_default();
        match action.as_str() {
            actions::ENQUEUED => s.enqueued = Some(e.at),
            actions::ADMITTED => {
                s.admitted.get_or_insert(e.at);
                first_admit.entry(*machine).or_insert(e.at);
            }
            actions::RUNNING => s.running = Some(e.at),
            a => {
                if let Some(run) = s.running.take() {
                    attempt_ns +=
                        u64::try_from((e.at.saturating_sub(run)).as_nanos()).unwrap_or(u64::MAX);
                }
                if matches!(a, actions::DONE | actions::FAILED | actions::TIMED_OUT) {
                    s.terminal = Some(e.at);
                }
            }
        }
    }
    let ready = first_admit.values().max().copied().unwrap_or_default();

    // Operations.
    let mut done = 0;
    for o in &report.outcomes {
        phase.attempted += 1;
        let s = stamps.get(&o.id).copied().unwrap_or_default();
        if let (Some(a), Some(t)) = (s.admitted, s.terminal) {
            phase.op_ms.push(t.saturating_sub(a).as_secs_f64() * 1e3);
        }
        match &o.terminal {
            Terminal::Done => {
                done += 1;
                phase.virt_ms.push(o.latency.as_secs_f64() * 1e3);
            }
            t => phase.fail(1, format!("request {} ({}): {t:?}", o.id, o.app)),
        }
    }

    // Batch verification.
    let verdict =
        spans.op("verify", |spans| {
            report.verify_conservation()?;
            let findings = spans.call("trace", "FarmReport::audit_shards", || {
                report.audit_shards()
            });
            if let Some(f) = findings.first() {
                return Err(format!("{} audit finding(s), first: {f}", findings.len()));
            }
            // The SLO verdict gates the farm bench, not an operation; here
            // its evaluation is part of the read path being timed.
            let attr = spans.call("trace", "FarmReport::attribution+evaluate_slo", || {
                let attr = report.attribution();
                let meta = report.request_meta();
                std::hint::black_box(attribution::evaluate_slo(&slo_policy(), &attr, &meta));
                attr
            });
            if let Some(stats) = stats {
                stats.queue_wait_ms.extend(stamps.values().filter_map(|s| {
                    Some(s.admitted?.saturating_sub(s.enqueued?).as_secs_f64() * 1e3)
                }));
                stats.attempt_ns += attempt_ns;
                stats.serve_ns +=
                    u64::try_from(served.as_nanos()).unwrap_or(u64::MAX) * MACHINES as u64;
                stats.retries += report.retries();
                stats.requeues += report.requeues();
                stats.quarantines += report.quarantines();
                for shard in &report.shards {
                    phase.counts.absorb_trace(&shard.trace);
                }
            }
            let coverage = attr.min_coverage();
            if coverage < MIN_COVERAGE {
                return Err(format!(
                    "attribution covers {coverage:.4} of a request (gate {MIN_COVERAGE})"
                ));
            }
            Ok(())
        });
    if let Err(e) = verdict {
        // A batch that does not verify vouches for none of its requests.
        phase.fail(done, format!("batch from request {first}: {e}"));
    }
    (started, ready)
}

/// Runs batches until `seconds` of host time have passed (at least one),
/// starting at request `*next`. The first batch's set-up counts from
/// `origin`. Each batch is one sub-window, opened when that batch's farm
/// is ready, so no batch's set-up is in the window; the CPU time of a
/// sub-window still includes the machines' boot, which overlaps the
/// serving of the first requests and cannot be told apart from it. The
/// machine's speed is measured between batches, while the workers are
/// idle, and every time is reported at the reference speed.
pub fn run_phase(
    seed: u64,
    spans: &mut Spans,
    next: &mut u64,
    seconds: f64,
    origin: Instant,
    counted: bool,
) -> FarmRun {
    let mut run = FarmRun::default();
    // Kernel runs after the previous batch; none before the first, whose
    // set-up counts from `origin`.
    let mut kernel_before = Vec::new();
    let mut measured = 0.0;
    let cpu_start = crate::sys::process_cpu();
    let start = Instant::now();
    loop {
        let (attempted, failed) = (run.phase.attempted, run.phase.failed);
        let ms_before = run.phase.op_ms.len();
        let cpu = crate::sys::process_cpu();
        let stats = counted.then_some(&mut run.stats);
        let (started, ready) = batch(seed, *next, spans, &mut run.phase, stats);
        let batch_attempted = run.phase.attempted - attempted;
        let host = Window {
            attempted: batch_attempted,
            ok: batch_attempted - (run.phase.failed - failed),
            secs: (started + ready).elapsed().as_secs_f64(),
            cpu_s: crate::sys::process_cpu().saturating_sub(cpu).as_secs_f64(),
        };
        measured += host.secs;
        let kernel_after = speed::measure(MACHINES);
        let mut around = std::mem::take(&mut kernel_before);
        around.extend(&kernel_after);
        let factor = speed::factor(&around);
        kernel_before = kernel_after;
        let since = if run.setups.is_empty() {
            origin
        } else {
            started
        };
        run.setups
            .push((started.saturating_duration_since(since) + ready).as_secs_f64() * factor);
        let op_ms: Vec<f64> = run.phase.op_ms.drain(ms_before..).collect();
        run.phase.close_window(host, &op_ms, factor);
        *next += BATCH;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.phase.window = Duration::from_secs_f64(measured);
    run.phase.cpu = crate::sys::process_cpu().saturating_sub(cpu_start);
    run
}

impl FarmStats {
    /// Median queue wait in host ms.
    pub fn queue_wait_ms_p50(&self) -> f64 {
        crate::sys::percentile(&self.queue_wait_ms, 50.0)
    }

    /// Attempt time over machine time, in percent.
    pub fn worker_busy_pct(&self) -> f64 {
        if self.serve_ns == 0 {
            0.0
        } else {
            self.attempt_ns as f64 / self.serve_ns as f64 * 100.0
        }
    }
}
