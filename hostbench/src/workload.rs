//! Runs one workload in the end-to-end or the traced configuration.

use crate::app_mix::{self, AppMix};
use crate::digest::{self, Fnv};
use crate::farm_faults::{self, FarmStats};
use crate::pal_bytecode::{self, PalBytecode};
use crate::run::{run_phase, ClosedLoop, DigestPrefix, Phase};
use crate::spans::Spans;
use crate::speed;
use std::time::Instant;

/// Every workload name.
pub const NAMES: [&str; 3] = [app_mix::NAME, pal_bytecode::NAME, farm_faults::NAME];

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`NAMES`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure.
    pub seconds: f64,
    /// Traced run: half the time untraced, half under host-time spans.
    pub trace: bool,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seconds of each set-up at the reference speed; the first counts
    /// from process start.
    pub setups: Vec<f64>,
    /// The phase without benchmark timers.
    pub e2e: Phase,
    /// The phase under host-time spans (traced runs only).
    pub traced: Option<Phase>,
    /// The spans recorded.
    pub spans: Spans,
    /// Farm-layer figures of the traced phase (`farm_faults` only).
    pub farm: Option<FarmStats>,
    /// The simulation digest (`app_mix` and `pal_bytecode`).
    pub digest: Option<String>,
    /// The reference digest of this seed, when it is a default seed.
    pub reference: Option<&'static str>,
    /// `VmHWM` after the end-to-end phase, in MiB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// Operations attempted and failed across both phases.
    pub fn totals(&self) -> (u64, u64) {
        let phases = std::iter::once(&self.e2e).chain(self.traced.as_ref());
        phases.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }
}

fn closed_loop<W: ClosedLoop>(
    name: &'static str,
    cfg: &Config,
    origin: Instant,
    setups: usize,
    digest_ops: u64,
    setup: fn(u64, &mut Spans) -> W,
) -> RunResult {
    let mut spans = Spans::new(cfg.trace);
    let mut w = spans.op("setup", |s| setup(cfg.seed, s));
    let first = origin.elapsed().as_secs_f64();
    let mut setup_s = vec![first * speed::factor(&speed::measure(1))];
    let mut prefix = DigestPrefix {
        ops: digest_ops,
        fnv: Fnv::default(),
    };
    let mut next = 0;
    let e2e_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    spans.set_enabled(false);
    let mut e2e = run_phase(
        &mut w,
        &mut spans,
        &mut next,
        e2e_seconds,
        &mut prefix,
        false,
    );
    let peak_rss_mb = crate::sys::peak_rss_mb();
    spans.set_enabled(cfg.trace);
    let mut traced = cfg.trace.then(|| {
        run_phase(
            &mut w,
            &mut spans,
            &mut next,
            e2e_seconds,
            &mut prefix,
            true,
        )
    });
    drop(w);
    for _ in 1..setups {
        let mut kernel_s = speed::measure(1);
        let t = Instant::now();
        drop(spans.op("setup", |s| setup(cfg.seed, s)));
        let host = t.elapsed().as_secs_f64();
        kernel_s.extend(speed::measure(1));
        setup_s.push(host * speed::factor(&kernel_s));
    }
    let digest = prefix.fnv.hex();
    let reference = digest::reference(name, cfg.seed);
    if let Some(r) = reference.filter(|r| *r != digest) {
        // The virtual clock moved: every folded operation is wrong. Those
        // that failed already are not counted twice.
        let msg = format!("sim_digest {digest} differs from the reference {r}");
        for phase in std::iter::once(&mut e2e).chain(traced.as_mut()) {
            if phase.folded_ok > 0 {
                phase.fail(phase.folded_ok, msg.clone());
            }
        }
    }
    RunResult {
        workload: name,
        setups: setup_s,
        e2e,
        traced,
        spans,
        farm: None,
        digest: Some(digest),
        reference,
        peak_rss_mb,
    }
}

fn farm(cfg: &Config, origin: Instant) -> RunResult {
    let mut spans = Spans::new(false);
    let mut next = 0;
    let e2e_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let e2e = farm_faults::run_phase(cfg.seed, &mut spans, &mut next, e2e_seconds, origin, false);
    let peak_rss_mb = crate::sys::peak_rss_mb();
    spans.set_enabled(cfg.trace);
    let traced = cfg.trace.then(|| {
        farm_faults::run_phase(
            cfg.seed,
            &mut spans,
            &mut next,
            e2e_seconds,
            Instant::now(),
            true,
        )
    });
    RunResult {
        workload: farm_faults::NAME,
        setups: e2e.setups,
        e2e: e2e.phase,
        farm: traced.as_ref().map(|t| t.stats.clone()),
        traced: traced.map(|t| t.phase),
        spans,
        digest: None,
        reference: None,
        peak_rss_mb,
    }
}

/// Runs the workload `cfg` names; `origin` is the process start. `None`
/// for an unknown workload.
pub fn run(cfg: &Config, origin: Instant) -> Option<RunResult> {
    Some(match cfg.workload.as_str() {
        app_mix::NAME => closed_loop(
            app_mix::NAME,
            cfg,
            origin,
            app_mix::SETUPS,
            app_mix::DIGEST_OPS,
            AppMix::setup,
        ),
        pal_bytecode::NAME => closed_loop(
            pal_bytecode::NAME,
            cfg,
            origin,
            pal_bytecode::SETUPS,
            pal_bytecode::DIGEST_OPS,
            PalBytecode::setup,
        ),
        farm_faults::NAME => farm(cfg, origin),
        _ => return None,
    })
}
