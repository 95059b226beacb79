//! Tests of the benchmark itself: determinism of its inputs and counts,
//! tiny runs of every workload, and failure accounting.

use flicker_hostbench::app_mix::{self, AppMix, StoreAction};
use flicker_hostbench::digest::{self, Fnv};
use flicker_hostbench::pal_bytecode::{self, PalBytecode};
use flicker_hostbench::run::{run_phase, ClosedLoop, Counts, DigestPrefix, Phase};
use flicker_hostbench::spans::Spans;
use flicker_hostbench::workload::{self, Config, NAMES};
use flicker_hostbench::{farm_faults, report};
use std::time::{Duration, Instant};

#[test]
fn same_seed_same_op_list() {
    for seed in [0, 7, u64::MAX] {
        let a: Vec<_> = (0..40).map(|i| app_mix::op_spec(seed, i)).collect();
        let b: Vec<_> = (0..40).map(|i| app_mix::op_spec(seed, i)).collect();
        assert_eq!(a, b);
        let a: Vec<_> = (0..40).map(|i| pal_bytecode::op_spec(seed, i)).collect();
        let b: Vec<_> = (0..40).map(|i| pal_bytecode::op_spec(seed, i)).collect();
        assert_eq!(a, b);
        for i in 0..40 {
            let (x, y) = (
                farm_faults::request_spec(seed, i),
                farm_faults::request_spec(seed, i),
            );
            assert_eq!((x.app, x.seed, &x.faults), (y.app, y.seed, &y.faults));
        }
    }
    // Another seed gives other inputs.
    let a: Vec<_> = (0..40).map(|i| pal_bytecode::op_spec(1, i)).collect();
    let b: Vec<_> = (0..40).map(|i| pal_bytecode::op_spec(2, i)).collect();
    assert_ne!(a, b);
    assert_ne!(
        farm_faults::request_spec(1, 0).seed,
        farm_faults::request_spec(2, 0).seed
    );
}

#[test]
fn trial_division_ranges_span_the_stated_widths() {
    let widths: Vec<u32> = (0..2_000)
        .filter_map(|i| match pal_bytecode::op_spec(3, i) {
            pal_bytecode::Op::TrialDivision { lo, hi, .. } => Some(hi - lo),
            pal_bytecode::Op::Hello => None,
        })
        .collect();
    let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
    assert!(
        *min >= pal_bytecode::MIN_WIDTH && *min < 100,
        "min width {min}"
    );
    assert!(
        *max <= pal_bytecode::MAX_WIDTH && *max > 50_000,
        "max width {max}"
    );
    assert!(widths.len() < 2_000, "some sessions run hello_world");
}

/// One traced round of `setup`'s workload: its counts and digest.
fn one_round<W: ClosedLoop>(setup: fn(u64, &mut Spans) -> W, seed: u64) -> (Counts, String) {
    let mut spans = Spans::new(true);
    let mut w = setup(seed, &mut spans);
    let mut next = 0;
    let mut prefix = DigestPrefix {
        ops: u64::MAX,
        fnv: Fnv::default(),
    };
    let phase = run_phase(&mut w, &mut spans, &mut next, 0.0, &mut prefix, true);
    assert_eq!(phase.failed, 0, "failures: {:?}", phase.failures);
    (phase.counts, prefix.fnv.hex())
}

#[test]
fn counts_and_digest_repeat_exactly() {
    let (a, da) = one_round(AppMix::setup, 5);
    let (b, db) = one_round(AppMix::setup, 5);
    assert_eq!(a, b);
    assert_eq!(da, db);
    let crypto = a.crypto.expect("client-thread counters");
    assert!(
        crypto.modmul > 10_000 * app_mix::ROUND,
        "modmul {}",
        crypto.modmul
    );
    assert!(a.tpm_quote > 0 && a.tpm_seal > 0 && a.tpm_unseal > 0);

    let (p, dp) = one_round(PalBytecode::setup, 5);
    let (q, dq) = one_round(PalBytecode::setup, 5);
    assert_eq!(p, q);
    assert_eq!(dp, dq);
    assert_eq!(p.crypto.expect("client-thread counters").modmul, 0);
    assert_eq!(p.sessions, pal_bytecode::ROUND);
    // Per operation: a round of each workload has a different length.
    assert!(p.vm_insns * app_mix::ROUND > a.vm_insns * pal_bytecode::ROUND);

    // The digest follows the seed's inputs.
    let (_, other) = one_round(PalBytecode::setup, 6);
    assert_ne!(dp, other);
}

#[test]
fn recorded_reference_digests_match() {
    for name in [app_mix::NAME, pal_bytecode::NAME] {
        let mut seeds = digest::REFERENCE.iter().filter(|(w, _, _)| *w == name);
        let (_, seed, want) = seeds.next().expect("reference digests recorded");
        assert!(seeds.count() >= 9, "{name}: reference digests recorded");
        // The shortest run folds exactly the digest's operations.
        let cfg = Config {
            workload: name.to_string(),
            seed: *seed,
            seconds: 0.0,
            trace: false,
        };
        let r = workload::run(&cfg, Instant::now()).expect("known workload");
        assert_eq!(r.digest.as_deref(), Some(*want), "{name} seed {seed}");
        assert_eq!(r.reference, Some(*want));
        assert_eq!(r.totals().1, 0, "{:?}", r.e2e.failures);
    }
}

#[test]
fn tiny_run_of_every_workload_is_error_free() {
    for name in NAMES {
        let cfg = Config {
            workload: name.to_string(),
            seed: 1,
            seconds: 0.0,
            trace: name == pal_bytecode::NAME,
        };
        let r = workload::run(&cfg, Instant::now()).expect("known workload");
        let (attempted, failed) = r.totals();
        assert!(attempted > 0, "{name}");
        assert_eq!(failed, 0, "{name}: {:?}", r.e2e.failures);
        assert_eq!(r.e2e.error_rate(), 0.0);
        let e2e = report::end_to_end(&r);
        assert_eq!(e2e.len(), 8, "{name}");
        let line = report::result_line(attempted, failed, &e2e);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(!line.contains("error_rate"), "{line}");
        if cfg.trace {
            let layers = report::per_layer(&r);
            let folded = r.spans.folded();
            let parsed = flicker_trace::profile::parse_folded(&folded).expect("folded parses");
            assert!(parsed.keys().any(|k| k.ends_with(";core;run_session")));
            assert!(layers
                .iter()
                .any(|m| m.name == "palvm.ns_per_insn" && m.value > 0.0));
        }
    }
}

/// `app_mix`'s storage protocol with the sealed blob corrupted between
/// the update and the read.
struct Tampered(AppMix);

impl ClosedLoop for Tampered {
    fn round_len(&self) -> u64 {
        1
    }

    fn op(
        &mut self,
        _index: u64,
        spans: &mut Spans,
        _digest: Option<&mut Fnv>,
    ) -> Result<Duration, String> {
        let init =
            self.0
                .storage_session(spans, StoreAction::Init(b"state-v1".to_vec()), Vec::new())?;
        let mut blob = init.outputs;
        let mid = blob.len() / 2;
        blob[mid] ^= 0x5A;
        self.0.storage_session(spans, StoreAction::Read, blob)?;
        Ok(Duration::ZERO)
    }

    fn end_round(&mut self, spans: &mut Spans, counts: Option<&mut Counts>) -> Result<(), String> {
        self.0.end_round(spans, counts)
    }
}

#[test]
fn corrupted_sealed_blob_counts_as_failed() {
    let mut spans = Spans::new(false);
    let mut w = Tampered(AppMix::setup(1, &mut spans));
    let mut next = 0;
    let mut prefix = DigestPrefix {
        ops: 0,
        fnv: Fnv::default(),
    };
    let phase: Phase = run_phase(&mut w, &mut spans, &mut next, 0.0, &mut prefix, false);
    assert_eq!((phase.attempted, phase.failed), (1, 1));
    assert!(
        phase.failures[0].contains("storage"),
        "{:?}",
        phase.failures
    );
    assert_eq!(phase.error_rate(), 1.0);
}

/// Fails operation 3 and, when asked, its round's verification.
struct Flaky {
    fail_round: bool,
}

impl ClosedLoop for Flaky {
    fn round_len(&self) -> u64 {
        4
    }

    fn op(
        &mut self,
        index: u64,
        _spans: &mut Spans,
        _digest: Option<&mut Fnv>,
    ) -> Result<Duration, String> {
        if index == 3 {
            Err("op 3 fails".into())
        } else {
            Ok(Duration::ZERO)
        }
    }

    fn end_round(&mut self, _: &mut Spans, _: Option<&mut Counts>) -> Result<(), String> {
        if self.fail_round {
            Err("round fails".into())
        } else {
            Ok(())
        }
    }
}

#[test]
fn folded_ok_counts_only_passing_folded_ops() {
    let mut spans = Spans::new(false);
    let mut prefix = DigestPrefix {
        ops: 6,
        fnv: Fnv::default(),
    };
    let mut w = Flaky { fail_round: false };
    let mut next = 0;
    // Ops 0..4: op 3 fails, so three folded ops passed.
    let phase = run_phase(&mut w, &mut spans, &mut next, 0.0, &mut prefix, false);
    assert_eq!((phase.failed, phase.folded_ok), (1, 3));
    // Ops 4..8: only 4 and 5 are folded.
    let phase = run_phase(&mut w, &mut spans, &mut next, 0.0, &mut prefix, false);
    assert_eq!((phase.failed, phase.folded_ok), (0, 2));
    // A round that does not verify vouches for none of its ops.
    let mut w = Flaky { fail_round: true };
    let mut next = 0;
    let phase = run_phase(&mut w, &mut spans, &mut next, 0.0, &mut prefix, false);
    assert_eq!((phase.failed, phase.folded_ok), (4, 0));
}
