//! Turns a [`RunResult`] into named metrics and prints them: a table for
//! people, then the one-line JSON result.

use crate::run::Phase;
use crate::sys::{median, percentile, EnvStamp};
use crate::workload::RunResult;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time (what the simulator costs to run).
    Host,
    /// Host time scaled to the reference machine speed
    /// ([`crate::speed`]).
    HostRef,
    /// The simulation's virtual clock (calibrated to the paper).
    Virtual,
    /// Not a time: a count or a ratio.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::HostRef => "host@ref",
            Clock::Virtual => "virtual",
            Clock::None => "-",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value (0 where not applicable).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock it was read from.
    pub clock: Clock,
    /// Whether this workload measures it at all.
    pub applicable: bool,
    /// Whether it goes into the JSON result line.
    pub in_result: bool,
    /// Sample count or other context for the table.
    pub note: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    clock: Clock,
    note: String,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
        applicable: true,
        in_result: true,
        note,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of the run without benchmark timers.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let p = &r.e2e;
    let n = p.op_ms.len();
    let mut error_rate = metric(
        "error_rate",
        p.error_rate(),
        "ratio",
        Clock::None,
        format!("{} of {} ops failed", p.failed, p.attempted),
    );
    // Carried by the result's `failed` and `attempted` instead: a metric
    // that is 0 on a healthy run has no median to bound.
    error_rate.in_result = false;
    let mut virt = metric(
        "virt_op_ms_p50",
        percentile(&p.virt_ms, 50.0),
        "ms",
        Clock::Virtual,
        format!("{} samples", p.virt_ms.len()),
    );
    // Guarded exactly by the simulation digest instead: the virtual clock
    // repeats for a seed (and on `pal_bytecode`, where PalVM execution is
    // not charged to it, for every seed), so a bound has nothing to do.
    virt.in_result = false;
    vec![
        metric(
            "setup_s",
            median(&r.setups),
            "s",
            Clock::HostRef,
            format!("median of {} set-ups", r.setups.len()),
        ),
        metric(
            "ops_per_s",
            p.ops_per_s(),
            "1/s",
            Clock::HostRef,
            format!(
                "median of {} sub-windows; {} correct ops over {:.3} s",
                p.windows.len(),
                p.attempted - p.failed,
                p.window.as_secs_f64()
            ),
        ),
        metric(
            "op_ms_p50",
            percentile(&p.op_ms, 50.0),
            "ms",
            Clock::HostRef,
            format!("{n} samples"),
        ),
        metric(
            "op_ms_p95",
            percentile(&p.op_ms, 95.0),
            "ms",
            Clock::HostRef,
            format!("{n} samples"),
        ),
        metric(
            "cpu_ms_per_op",
            p.cpu_ms_per_op(),
            "ms",
            Clock::HostRef,
            format!(
                "median of {} sub-windows; {:.3} s CPU, all threads",
                p.windows.len(),
                p.cpu.as_secs_f64()
            ),
        ),
        metric(
            "peak_rss_mb",
            r.peak_rss_mb,
            "MiB",
            Clock::None,
            "VmHWM".into(),
        ),
        error_rate,
        virt,
    ]
}

/// The per-layer metrics of the traced phase, plus the tracing overhead
/// against the untraced phase of the same run.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let Some(t) = &r.traced else {
        return Vec::new();
    };
    let s = &r.spans;
    let c = &t.counts;
    let ops = t.attempted as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let count = |name, value, applicable: bool, note: &str| Metric {
        applicable,
        ..metric(name, value, "count", Clock::None, note.to_string())
    };
    let timed = |name, total: crate::spans::CallTotal| Metric {
        applicable: total.calls > 0,
        ..metric(
            name,
            total.mean_ms(),
            "ms",
            Clock::Host,
            format!("mean of {} calls", total.calls),
        )
    };
    let crypto = c.crypto.unwrap_or_default();
    let has_crypto = c.crypto.is_some();
    let crypto_note = if has_crypto {
        "client thread"
    } else {
        "counters are thread-local to the workers"
    };
    let run_session = s.total("core", "run_session");
    let farm = r.farm.clone().unwrap_or_default();
    let is_farm = r.farm.is_some();
    let farm_note = "farm only";

    let mut out = vec![
        count(
            "crypto.modmul_per_op",
            per_op(crypto.modmul),
            has_crypto,
            crypto_note,
        ),
        count(
            "crypto.sha1_blocks_per_op",
            per_op(crypto.sha1_compress),
            has_crypto,
            crypto_note,
        ),
        count(
            "crypto.hmac_per_op",
            per_op(crypto.hmac),
            has_crypto,
            crypto_note,
        ),
        count(
            "crypto.aes_blocks_per_op",
            per_op(crypto.aes_block),
            has_crypto,
            crypto_note,
        ),
        timed(
            "crypto.keygen_ms",
            s.total_of("crypto", &["RsaPrivateKey::generate", "PrivacyCa::new"]),
        ),
        timed(
            "crypto.verify_ms",
            s.total_of(
                "crypto",
                &["SshClient::verify_setup", "Certificate::verify"],
            ),
        ),
        timed("os.boot_ms", s.total("os", "Os::boot")),
        timed(
            "tpm.provision_ms",
            s.total("tpm", "Os::provision_attestation"),
        ),
        count(
            "tpm.cmds_per_op",
            per_op(c.tpm_cmds),
            true,
            "tpm.TPM_* histograms",
        ),
        count(
            "tpm.quote_per_op",
            per_op(c.tpm_quote),
            true,
            "tpm.TPM_Quote",
        ),
        count("tpm.seal_per_op", per_op(c.tpm_seal), true, "tpm.TPM_Seal"),
        count(
            "tpm.unseal_per_op",
            per_op(c.tpm_unseal),
            true,
            "tpm.TPM_Unseal",
        ),
    ];
    for (name, op) in [
        ("apps.rootkit_ms", "rootkit"),
        ("apps.ssh_ms", "ssh"),
        ("apps.distcomp_ms", "distcomp"),
        ("apps.ca_ms", "ca"),
        ("apps.storage_ms", "storage"),
    ] {
        out.push(timed(name, s.total("op", op)));
    }
    out.extend([
        timed("core.slb_build_ms", s.total("core", "SlbImage::build")),
        timed("verifier.verify_ms", s.total("verifier", "verify_program")),
        timed("core.session_ms", run_session),
        count(
            "core.sessions_per_op",
            per_op(c.sessions),
            true,
            "SessionStart events",
        ),
        count("palvm.insns_per_op", per_op(c.vm_insns), true, "vm.insns"),
        Metric {
            // Only `pal_bytecode` times the sessions that retire the
            // instructions; elsewhere the quotient mixes unrelated work.
            applicable: r.workload == crate::pal_bytecode::NAME && c.vm_insns > 0,
            ..metric(
                "palvm.ns_per_insn",
                ratio(run_session.ns as f64, c.vm_insns as f64),
                "ns",
                Clock::Host,
                "run_session host ns / vm.insns".into(),
            )
        },
        count(
            "trace.events_per_op",
            per_op(c.events),
            true,
            "flight-record events",
        ),
        count(
            "trace.spans_per_op",
            per_op(c.spans),
            true,
            "virtual-clock spans",
        ),
        count(
            "trace.dropped_events",
            c.dropped_events as f64,
            true,
            "ring-buffer evictions",
        ),
        timed(
            "trace.audit_ms",
            s.total_of("trace", &["audit::audit_trace", "FarmReport::audit_shards"]),
        ),
        timed(
            "trace.attribute_ms",
            s.total("trace", "FarmReport::attribution+evaluate_slo"),
        ),
        timed(
            "trace.profile_ms",
            s.total("trace", "profile::build+folded"),
        ),
        Metric {
            applicable: is_farm,
            ..metric(
                "farm.queue_wait_ms_p50",
                farm.queue_wait_ms_p50(),
                "ms",
                Clock::Host,
                format!("{} samples", farm.queue_wait_ms.len()),
            )
        },
        Metric {
            applicable: is_farm,
            ..metric(
                "farm.worker_busy_pct",
                farm.worker_busy_pct(),
                "%",
                Clock::Host,
                "attempt time / (machines x window)".into(),
            )
        },
        count(
            "farm.retries_per_op",
            per_op(farm.retries),
            is_farm,
            farm_note,
        ),
        count("farm.requeues", farm.requeues as f64, is_farm, farm_note),
        count(
            "farm.quarantines",
            farm.quarantines as f64,
            is_farm,
            farm_note,
        ),
    ]);
    out.extend(overhead(&r.e2e, t));
    out
}

/// Tracing overhead: how much the traced phase lost against the untraced
/// phase of the same run, in percent.
fn overhead(e2e: &Phase, traced: &Phase) -> [Metric; 2] {
    let pct = |base: f64, with: f64| ratio(with - base, base) * 100.0;
    [
        metric(
            "overhead.ops_per_s_pct",
            -pct(e2e.ops_per_s(), traced.ops_per_s()),
            "%",
            Clock::HostRef,
            format!(
                "{:.3}/s untraced, {:.3}/s traced",
                e2e.ops_per_s(),
                traced.ops_per_s()
            ),
        ),
        metric(
            "overhead.cpu_ms_per_op_pct",
            pct(e2e.cpu_ms_per_op(), traced.cpu_ms_per_op()),
            "%",
            Clock::HostRef,
            format!(
                "{:.4} ms untraced, {:.4} ms traced",
                e2e.cpu_ms_per_op(),
                traced.cpu_ms_per_op()
            ),
        ),
    ]
}

/// Prints the table and the JSON result line (last line of stdout).
pub fn print(r: &RunResult, seed: u64, seconds: f64, trace: bool, env: &EnvStamp) {
    println!(
        "hostbench workload={} seed={seed} seconds={seconds} trace={}",
        r.workload,
        u8::from(trace)
    );
    println!("env: {env}");
    if let Some(d) = &r.digest {
        let verdict = match r.reference {
            Some(reference) if reference == d => "matches the reference".to_string(),
            Some(reference) => format!("DIFFERS from the reference {reference}"),
            None => "no reference for this seed".to_string(),
        };
        println!("sim_digest: {d} ({verdict})");
    }
    let e2e = end_to_end(r);
    let layers = per_layer(r);
    print_table("end-to-end (no benchmark timers)", &e2e);
    if trace {
        print_table("per-layer (traced half of the run)", &layers);
    }
    let rates: Vec<String> = r
        .e2e
        .windows
        .iter()
        .map(|w| format!("{:.1}", w.ok as f64 / w.secs))
        .collect();
    println!(
        "sub-window ops/s at the reference speed: {}",
        rates.join(" ")
    );
    let speeds: Vec<String> = r.e2e.speed.iter().map(|f| format!("{f:.2}")).collect();
    println!(
        "machine speed factor (reference kernel {:.2} ms / measured): {}",
        crate::speed::REFERENCE_S * 1e3,
        speeds.join(" ")
    );
    let (attempted, failed) = r.totals();
    for phase in std::iter::once(&r.e2e).chain(r.traced.as_ref()) {
        for f in &phase.failures {
            println!("failure: {f}");
        }
    }
    let reported = if trace { &layers } else { &e2e };
    println!("{}", result_line(attempted, failed, reported));
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let value = if m.applicable {
            format!("{:.4}", m.value)
        } else {
            "n/a".to_string()
        };
        println!(
            "  {:<28} {:>14} {:<6} {:<8} {}",
            m.name,
            value,
            m.unit,
            m.clock.name(),
            m.note
        );
    }
}

/// The JSON result: `correct`, `attempted`, `failed` and every metric
/// marked for the result, with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_result)
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
