//! `app_mix`: one closed-loop client running the five §6 application
//! protocols round-robin on one provisioned platform.
//!
//! An operation is one protocol iteration: rootkit detection (alternately
//! the native and the verified bytecode detector), SSH with a fresh server
//! per connection, a distributed-computing start and slice, CA init plus
//! the signing of a 512-bit CSR, and sealed storage init → update → read.
//! Every operation ends with a correctness check, and every round with the
//! flight-record audit and profile.

use crate::digest::Fnv;
use crate::run::{ClosedLoop, Counts};
use crate::spans::Spans;
use crate::{host_divisors, mix, platform_config};
use flicker_apps::{
    known_good_hash, Administrator, BoincClient, Csr, FlickerCa, IssuancePolicy, PasswdEntry,
    SshClient, SshServer, WorkUnit,
};
use flicker_core::{
    run_session, FlickerResult, NativePal, PalContext, PalPayload, ReplayProtectedStorage,
    SessionParams, SessionRecord, SlbImage, SlbOptions,
};
use flicker_crypto::rng::{CryptoRng, XorShiftRng};
use flicker_crypto::{RsaPrivateKey, RsaPublicKey};
use flicker_os::{NetLink, Os};
use flicker_tpm::{AikCertificate, PrivacyCa, SealedBlob};
use flicker_trace::{audit, profile, Trace};
use std::sync::Arc;
use std::time::Duration;

/// Workload name.
pub const NAME: &str = "app_mix";

/// Operations per round: two rotations, so each round covers both
/// rootkit detectors.
pub const ROUND: u64 = 10;

/// Operations folded into the simulation digest: the first round, so
/// that the shortest run (`--seconds 0`) prints the whole digest.
pub const DIGEST_OPS: u64 = ROUND;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Privacy-CA signing key size.
pub const PRIVACY_CA_KEY_BITS: usize = 1024;

/// Subject key size of the CSRs the CA signs.
pub const CSR_KEY_BITS: usize = 512;

/// Seed of the Privacy CA's key generation (fixed, like the platform).
const PRIVACY_CA_SEED: u64 = 0x00CA_5EED;

/// Virtual length of one distributed-computing slice.
const SLICE: Duration = Duration::from_millis(50);

/// NV index of the storage protocol's replay counter. Each platform has
/// its own TPM, so the index need not differ from those other harnesses
/// use.
const NV_INDEX: u32 = 0x0001_7000;

const SSH_USER: &str = "alice";
const SSH_PASSWORD: &[u8] = b"hostbench-hunter2";

/// One operation of a seed's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Remote rootkit detection with the native or the bytecode detector.
    Rootkit {
        /// Launch the verified bytecode detector.
        bytecode: bool,
    },
    /// SSH connection setup, attestation check and password login.
    Ssh {
        /// Attestation nonce of the setup PAL.
        nonce: [u8; 20],
        /// Seed of the client's password encryption.
        client_seed: u64,
    },
    /// Distributed-computing start and one slice.
    Distcomp {
        /// The work unit.
        unit: WorkUnit,
    },
    /// CA initialisation and the signing of one CSR.
    Ca {
        /// Certificate subject.
        subject: String,
        /// Seed of the CSR's subject key.
        key_seed: u64,
    },
    /// Sealed storage init → update → read.
    Storage {
        /// Initial state.
        v1: Vec<u8>,
        /// Updated state, which the read must return.
        v2: Vec<u8>,
    },
}

impl Op {
    /// Operation name (the span and per-app metric name).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Rootkit { .. } => "rootkit",
            Op::Ssh { .. } => "ssh",
            Op::Distcomp { .. } => "distcomp",
            Op::Ca { .. } => "ca",
            Op::Storage { .. } => "storage",
        }
    }
}

/// Operation `index` of `seed`'s list.
pub fn op_spec(seed: u64, index: u64) -> Op {
    let mut rng = XorShiftRng::new(mix(seed, index));
    match index % 5 {
        0 => Op::Rootkit {
            bytecode: (index / 5) % 2 == 1,
        },
        1 => {
            let mut nonce = [0u8; 20];
            rng.fill_bytes(&mut nonce);
            Op::Ssh {
                nonce,
                client_seed: rng.next_u64(),
            }
        }
        2 => {
            let n = 100_000 + rng.next_u64() % 9_900_000;
            let width = 256 + rng.next_u64() % 3_840;
            Op::Distcomp {
                unit: WorkUnit {
                    n,
                    lo: 2,
                    hi: 2 + width,
                },
            }
        }
        3 => Op::Ca {
            subject: format!("host{}.corp.example", rng.next_u64() % 100_000),
            key_seed: rng.next_u64(),
        },
        _ => {
            let mut v1 = vec![0u8; 24];
            let mut v2 = vec![0u8; 24];
            rng.fill_bytes(&mut v1);
            rng.fill_bytes(&mut v2);
            Op::Storage { v1, v2 }
        }
    }
}

/// A step of the storage protocol.
#[derive(Debug, Clone)]
pub enum StoreAction {
    /// Define the replay counter and seal the initial state.
    Init(Vec<u8>),
    /// Unseal the blob given as input and seal new state.
    Update(Vec<u8>),
    /// Unseal the blob given as input and output its state.
    Read,
}

struct StoragePal {
    action: StoreAction,
}

impl NativePal for StoragePal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let store = ReplayProtectedStorage::new(NV_INDEX);
        match &self.action {
            StoreAction::Init(data) => {
                store.setup(ctx, &[0u8; 20])?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Update(data) => {
                let old = SealedBlob::from_bytes(ctx.inputs().to_vec());
                store.unseal(ctx, &old)?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Read => {
                let blob = SealedBlob::from_bytes(ctx.inputs().to_vec());
                let data = store.unseal(ctx, &blob)?;
                ctx.write_output(&data)
            }
        }
    }
}

/// The set-up platform and the client's state.
pub struct AppMix {
    seed: u64,
    os: Os,
    trace: Trace,
    cert: AikCertificate,
    admin: Administrator,
    ssh_link: NetLink,
    ssh_client: SshClient,
}

fn linked(seed: u64, os: &Os, trace: &Trace) -> NetLink {
    let mut link = NetLink::paper_verifier_link(seed);
    link.set_tracer(trace.clone());
    link.set_clock(os.clock());
    link
}

impl AppMix {
    /// Boots and provisions the platform and sets up the client. The
    /// platform and the Privacy CA are the same for every seed; the seed
    /// drives the network links and the operation list.
    pub fn setup(seed: u64, spans: &mut Spans) -> AppMix {
        let mut os = spans.call("os", "Os::boot", || Os::boot(platform_config()));
        let mut rng = XorShiftRng::new(PRIVACY_CA_SEED);
        let mut pca = spans.call("crypto", "PrivacyCa::new", || {
            PrivacyCa::new(PRIVACY_CA_KEY_BITS, &mut rng)
        });
        spans
            .call("tpm", "Os::provision_attestation", || {
                os.provision_attestation(&mut pca, "hostbench").map(|_| ())
            })
            .expect("provisioning a fault-free platform succeeds");
        let cert = os.aik_certificate().expect("just provisioned").clone();
        let ca_public: RsaPublicKey = pca.public_key().clone();
        let trace = Trace::new();
        os.set_tracer(trace.clone());
        let known_good = spans.call("os", "known_good_hash", || known_good_hash(&os));
        let admin = Administrator::new(ca_public.clone(), known_good, linked(seed, &os, &trace));
        let ssh_link = linked(mix(seed, u64::MAX), &os, &trace);
        AppMix {
            seed,
            os,
            trace,
            cert,
            admin,
            ssh_link,
            ssh_client: SshClient::new(ca_public),
        }
    }

    /// Runs one storage-protocol session: builds the storage PAL for
    /// `action` and runs it with `inputs`. A PAL fault is an `Err`.
    pub fn storage_session(
        &mut self,
        spans: &mut Spans,
        action: StoreAction,
        inputs: Vec<u8>,
    ) -> Result<SessionRecord, String> {
        let slb = spans
            .call("core", "SlbImage::build", || {
                SlbImage::build(
                    PalPayload::Native {
                        identity: b"hostbench-storage-pal".to_vec(),
                        program: Arc::new(StoragePal { action }),
                    },
                    SlbOptions::default(),
                )
            })
            .map_err(|e| format!("storage SLB: {e}"))?;
        let os = &mut self.os;
        let rec = spans
            .call("core", "run_session", || {
                run_session(os, &slb, &SessionParams::with_inputs(inputs))
            })
            .map_err(|e| format!("storage session: {e}"))?;
        rec.pal_result
            .clone()
            .map_err(|e| format!("storage PAL: {e}"))?;
        Ok(rec)
    }

    fn run(&mut self, op: &Op, spans: &mut Spans, fold: &mut Fnv) -> Result<(), String> {
        let os = &mut self.os;
        match op {
            Op::Rootkit { bytecode } => {
                let (admin, cert) = (&mut self.admin, &self.cert);
                let report = if *bytecode {
                    spans.call("apps", "Administrator::query_bytecode", || {
                        admin.query_bytecode(os, cert)
                    })
                } else {
                    spans.call("apps", "Administrator::query", || admin.query(os, cert))
                }
                .map_err(|e| format!("rootkit query: {e}"))?;
                fold.session(&report.session);
                if !report.clean {
                    return Err("pristine kernel reported compromised".into());
                }
            }
            Op::Ssh { nonce, client_seed } => {
                let mut server =
                    SshServer::new(vec![PasswdEntry::new(SSH_USER, SSH_PASSWORD, b"fl1ck3r")]);
                let link = &mut self.ssh_link;
                let transcript = spans
                    .call("apps", "SshServer::connection_setup", || {
                        server.connection_setup(os, link, *nonce)
                    })
                    .map_err(|e| format!("ssh setup: {e}"))?;
                fold.session(&transcript.session);
                let (client, cert) = (&mut self.ssh_client, &self.cert);
                spans
                    .call("crypto", "SshClient::verify_setup", || {
                        client.verify_setup(cert, &transcript)
                    })
                    .map_err(|e| format!("ssh attestation: {e}"))?;
                let login_nonce = server.issue_nonce();
                let mut rng = XorShiftRng::new(*client_seed);
                let ciphertext = spans
                    .call("apps", "SshClient::encrypt_password", || {
                        client.encrypt_password(SSH_PASSWORD, &login_nonce, &mut rng)
                    })
                    .map_err(|e| format!("ssh encrypt: {e}"))?;
                let outcome = spans
                    .call("apps", "SshServer::login", || {
                        server.login(os, link, SSH_USER, &ciphertext, login_nonce)
                    })
                    .map_err(|e| format!("ssh login: {e}"))?;
                fold.session(&outcome.session);
                if !outcome.accepted {
                    return Err("ssh: correct password rejected".into());
                }
            }
            Op::Distcomp { unit } => {
                let (mut client, rec) = spans
                    .call("apps", "BoincClient::start", || {
                        BoincClient::start(os, unit.clone())
                    })
                    .map_err(|e| format!("distcomp start: {e}"))?;
                fold.session(&rec);
                let report = spans
                    .call("apps", "BoincClient::run_slice", || {
                        client.run_slice(os, SLICE)
                    })
                    .map_err(|e| format!("distcomp slice: {e}"))?;
                fold.session(&report.session);
                let state = client.state();
                let expected = host_divisors(unit.n, unit.lo, state.cursor);
                if state.divisors != expected {
                    return Err(format!(
                        "distcomp: divisors {:?} of {} below {}, host finds {expected:?}",
                        state.divisors, unit.n, state.cursor
                    ));
                }
            }
            Op::Ca { subject, key_seed } => {
                let policy = IssuancePolicy {
                    allowed_suffixes: vec![".corp.example".into()],
                    max_certificates: 8,
                };
                let (mut ca, rec) = spans
                    .call("apps", "FlickerCa::init", || FlickerCa::init(os, policy))
                    .map_err(|e| format!("ca init: {e}"))?;
                fold.session(&rec);
                let mut rng = XorShiftRng::new(*key_seed);
                let (key, _) = spans.call("crypto", "RsaPrivateKey::generate", || {
                    RsaPrivateKey::generate(CSR_KEY_BITS, &mut rng)
                });
                let csr = Csr {
                    subject: subject.clone(),
                    public_key: key.public_key().clone(),
                };
                let report = spans
                    .call("apps", "FlickerCa::sign", || ca.sign(os, &csr))
                    .map_err(|e| format!("ca sign: {e}"))?;
                fold.session(&report.session);
                let cert = &report.certificate;
                spans
                    .call("crypto", "Certificate::verify", || {
                        cert.verify(&ca.public_key)
                    })
                    .map_err(|e| format!("ca certificate: {e}"))?;
                if cert.subject != csr.subject || cert.public_key != csr.public_key {
                    return Err("ca: certificate does not match the CSR".into());
                }
            }
            Op::Storage { v1, v2 } => {
                let init =
                    self.storage_session(spans, StoreAction::Init(v1.clone()), Vec::new())?;
                fold.session(&init);
                let update =
                    self.storage_session(spans, StoreAction::Update(v2.clone()), init.outputs)?;
                fold.session(&update);
                let read = self.storage_session(spans, StoreAction::Read, update.outputs)?;
                fold.session(&read);
                if &read.outputs != v2 {
                    return Err("storage: read-back differs from the last update".into());
                }
            }
        }
        Ok(())
    }
}

impl ClosedLoop for AppMix {
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
        let mut fold = Fnv::default();
        let start = self.os.clock().now();
        spans.op(op.name(), |spans| self.run(&op, spans, &mut fold))?;
        let virt = self.os.clock().now().saturating_sub(start);
        if let Some(digest) = digest {
            digest.bytes(&index.to_le_bytes());
            digest.duration(virt);
            digest.bytes(&fold.hex().into_bytes());
        }
        Ok(virt)
    }

    fn end_round(&mut self, spans: &mut Spans, counts: Option<&mut Counts>) -> Result<(), String> {
        let trace = &self.trace;
        let result = spans.op("verify", |spans| {
            if let Some(counts) = counts {
                counts.absorb_trace(trace);
            }
            let verdict = spans.call("trace", "audit::audit_trace", || audit::audit_trace(trace));
            let reconciliation = spans.call("trace", "profile::build+folded", || {
                let p = profile::build(trace);
                std::hint::black_box(p.folded());
                p.reconciliation_error()
            });
            if !verdict.is_clean() {
                return Err(format!("flight-record audit: {verdict}"));
            }
            if reconciliation >= 0.01 {
                return Err(format!(
                    "profile reconciliation error {reconciliation:.4} (gate 0.01)"
                ));
            }
            Ok(())
        });
        self.trace.reset();
        result
    }
}
