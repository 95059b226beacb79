//! RSA key generation and raw (textbook) modular operations.
//!
//! The paper's applications use 1024-bit RSA keys inside PALs (secure
//! channel, CA signing) and the TPM itself holds 2048-bit keys (SRK, AIK,
//! sealing keys). Padding lives in [`crate::pkcs1`]; this module supplies
//! keys and the raw `m^e mod n` primitives, using CRT for the private
//! operation like every production implementation.

use crate::mpint::Mpint;
use crate::prime::{generate_prime, PrimeSearchStats};
use crate::rng::CryptoRng;
use crate::CryptoError;

/// Default public exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;
/// Miller-Rabin rounds used during key generation (error < 2^-80).
pub const MR_ROUNDS: u32 = 40;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: Mpint,
    e: Mpint,
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Mpint,
    p: Mpint,
    q: Mpint,
    d_p: Mpint,
    d_q: Mpint,
    q_inv: Mpint,
}

impl core::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

/// Cost accounting for a key generation, consumed by the timing model.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeygenStats {
    /// Search statistics for the first prime.
    pub p_stats: PrimeSearchStats,
    /// Search statistics for the second prime.
    pub q_stats: PrimeSearchStats,
}

impl RsaPublicKey {
    /// Constructs a public key from raw components.
    pub fn new(n: Mpint, e: Mpint) -> Self {
        RsaPublicKey { n, e }
    }

    /// The modulus `n`.
    pub fn n(&self) -> &Mpint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn e(&self) -> &Mpint {
        &self.e
    }

    /// Modulus length in bytes (k in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw public operation `m^e mod n`.
    ///
    /// Returns [`CryptoError::OutOfRange`] if `m >= n`.
    pub fn raw_encrypt(&self, m: &Mpint) -> Result<Mpint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::OutOfRange("message >= modulus"));
        }
        Ok(m.mod_exp(&self.e, &self.n))
    }

    /// Serializes as `len(n) || n || len(e) || e` (big-endian u32 lengths).
    ///
    /// This is the wire format the secure-channel protocol sends to remote
    /// parties and the format measured into PCR 17 as PAL output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the [`RsaPublicKey::to_bytes`] format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let take = |bytes: &[u8], off: &mut usize| -> Result<Vec<u8>, CryptoError> {
            if bytes.len() < *off + 4 {
                return Err(CryptoError::Encoding("truncated length"));
            }
            let len =
                u32::from_be_bytes(bytes[*off..*off + 4].try_into().expect("4 bytes")) as usize;
            *off += 4;
            if bytes.len() < *off + len {
                return Err(CryptoError::Encoding("truncated field"));
            }
            let v = bytes[*off..*off + len].to_vec();
            *off += len;
            Ok(v)
        };
        let mut off = 0;
        let n = take(bytes, &mut off)?;
        let e = take(bytes, &mut off)?;
        if off != bytes.len() {
            return Err(CryptoError::Encoding("trailing bytes"));
        }
        Ok(RsaPublicKey::new(
            Mpint::from_bytes_be(&n),
            Mpint::from_bytes_be(&e),
        ))
    }
}

impl RsaPrivateKey {
    /// Generates a fresh keypair with modulus length `bits`.
    ///
    /// Returns the key and [`KeygenStats`] so callers can charge the
    /// simulated clock for the work actually performed.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not an even number >= 64.
    pub fn generate<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> (Self, KeygenStats) {
        assert!(
            bits >= 64 && bits.is_multiple_of(2),
            "unsupported RSA modulus size"
        );
        let e = Mpint::from(PUBLIC_EXPONENT);
        loop {
            let (p, p_stats) = generate_prime(bits / 2, MR_ROUNDS, rng);
            let (q, q_stats) = generate_prime(bits / 2, MR_ROUNDS, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = Mpint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            // e must be invertible mod phi(n).
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let d_p = d.rem(&p1);
            let d_q = d.rem(&q1);
            let q_inv = q.mod_inverse(&p).expect("p, q distinct primes");
            let key = RsaPrivateKey {
                public: RsaPublicKey::new(n, e.clone()),
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
            };
            return (key, KeygenStats { p_stats, q_stats });
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw private operation `c^d mod n`, computed via CRT.
    ///
    /// Returns [`CryptoError::OutOfRange`] if `c >= n`.
    pub fn raw_decrypt(&self, c: &Mpint) -> Result<Mpint, CryptoError> {
        if c >= &self.public.n {
            return Err(CryptoError::OutOfRange("ciphertext >= modulus"));
        }
        // CRT: m1 = c^dP mod p, m2 = c^dQ mod q,
        // h = qInv (m1 - m2) mod p, m = m2 + h q. Adding p before the
        // subtraction keeps it non-negative whichever of m1, m2 is larger
        // (and m2 may exceed p when q > p), so there is one path.
        let m1 = c.mod_exp(&self.d_p, &self.p);
        let m2 = c.mod_exp(&self.d_q, &self.q);
        let diff = m1.add(&self.p).sub(&m2.rem(&self.p)).rem(&self.p);
        let h = self.q_inv.mul_mod(&diff, &self.p);
        Ok(m2.add(&h.mul(&self.q)))
    }

    /// The private exponent (exposed for serialization into TPM key blobs).
    pub fn d(&self) -> &Mpint {
        &self.d
    }

    /// Serializes the full private key (used only inside simulated TPM
    /// storage, which models a hardware-protected boundary).
    pub fn to_bytes(&self) -> Vec<u8> {
        let fields = [
            self.public.n.to_bytes_be(),
            self.public.e.to_bytes_be(),
            self.d.to_bytes_be(),
            self.p.to_bytes_be(),
            self.q.to_bytes_be(),
        ];
        let mut out = Vec::new();
        for f in fields {
            out.extend_from_slice(&(f.len() as u32).to_be_bytes());
            out.extend_from_slice(&f);
        }
        out
    }

    /// Reconstructs a private key serialized by [`RsaPrivateKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut off = 0usize;
        let mut fields = Vec::with_capacity(5);
        for _ in 0..5 {
            if bytes.len() < off + 4 {
                return Err(CryptoError::Encoding("truncated length"));
            }
            let len = u32::from_be_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            off += 4;
            if bytes.len() < off + len {
                return Err(CryptoError::Encoding("truncated field"));
            }
            fields.push(Mpint::from_bytes_be(&bytes[off..off + len]));
            off += len;
        }
        if off != bytes.len() {
            return Err(CryptoError::Encoding("trailing bytes"));
        }
        let [n, e, d, p, q]: [Mpint; 5] = fields.try_into().expect("5 fields");
        let one = Mpint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let d_p = d.rem(&p1);
        let d_q = d.rem(&q1);
        let q_inv = q
            .mod_inverse(&p)
            .ok_or(CryptoError::Encoding("q not invertible mod p"))?;
        Ok(RsaPrivateKey {
            public: RsaPublicKey::new(n, e),
            d,
            p,
            q,
            d_p,
            d_q,
            q_inv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    fn test_key(bits: usize, seed: u64) -> RsaPrivateKey {
        let mut rng = XorShiftRng::new(seed);
        RsaPrivateKey::generate(bits, &mut rng).0
    }

    #[test]
    fn keygen_produces_working_keypair() {
        let key = test_key(512, 11);
        assert_eq!(key.public_key().n().bit_len(), 512);
        let m = Mpint::from(0x1234_5678_9abc_def0u64);
        let c = key.public_key().raw_encrypt(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(key.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn decrypt_encrypt_composes_both_ways() {
        // Sign direction: decrypt (private op) then encrypt (public op).
        let key = test_key(512, 12);
        let m = Mpint::from_hex("deadbeefcafebabe0123456789").unwrap();
        let s = key.raw_decrypt(&m).unwrap();
        assert_eq!(key.public_key().raw_encrypt(&s).unwrap(), m);
    }

    #[test]
    fn rejects_oversized_inputs() {
        let key = test_key(256, 13);
        let too_big = key.public_key().n().clone();
        assert!(key.public_key().raw_encrypt(&too_big).is_err());
        assert!(key.raw_decrypt(&too_big).is_err());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let key = test_key(256, 14);
        let bytes = key.public_key().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, key.public_key());
    }

    #[test]
    fn public_key_rejects_malformed() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 200, 1]).is_err());
        let key = test_key(256, 15);
        let mut bytes = key.public_key().to_bytes();
        bytes.push(0);
        assert!(RsaPublicKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn private_key_serialization_round_trip() {
        let key = test_key(256, 16);
        let back = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        let m = Mpint::from(42u64);
        let c = key.public_key().raw_encrypt(&m).unwrap();
        assert_eq!(back.raw_decrypt(&c).unwrap(), m);
        assert_eq!(back.public_key(), key.public_key());
    }

    #[test]
    fn keygen_stats_populated() {
        let mut rng = XorShiftRng::new(17);
        let (_, stats) = RsaPrivateKey::generate(256, &mut rng);
        assert!(stats.p_stats.candidates_tried >= 1);
        assert!(stats.q_stats.candidates_tried >= 1);
        assert!(stats.p_stats.mr_rounds >= MR_ROUNDS as u64);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = test_key(256, 18);
        let b = test_key(256, 19);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn debug_does_not_leak_private_material() {
        let key = test_key(256, 20);
        let s = format!("{key:?}");
        assert!(!s.contains(&crate::hex::encode(&key.d().to_bytes_be())));
        assert!(s.contains("bits"));
    }

    /// The key with `p` and `q` exchanged (the CRT parameters are
    /// re-derived), so one of the pair has `q > p`.
    fn with_primes_swapped(key: &RsaPrivateKey) -> RsaPrivateKey {
        let mut bytes = Vec::new();
        for f in [&key.public.n, &key.public.e, &key.d, &key.q, &key.p] {
            let f = f.to_bytes_be();
            bytes.extend_from_slice(&(f.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&f);
        }
        RsaPrivateKey::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn crt_handles_m1_less_than_m2() {
        // Round-trip varied ciphertexts under both prime orders. With
        // q > p, m2 = c^dQ mod q can reach or exceed p, which the
        // recombination must reduce before subtracting.
        let mut rng = XorShiftRng::new(22);
        let (mut m1_below_m2, mut m2_at_least_p) = (0, 0);
        for seed in [21, 23, 24] {
            let key = test_key(256, seed);
            for key in [with_primes_swapped(&key), key] {
                for _ in 0..20 {
                    let m = Mpint::random_below(&mut rng, key.public_key().n());
                    let c = key.public_key().raw_encrypt(&m).unwrap();
                    let m1 = c.mod_exp(&key.d_p, &key.p);
                    let m2 = c.mod_exp(&key.d_q, &key.q);
                    m1_below_m2 += usize::from(m1 < m2);
                    m2_at_least_p += usize::from(m2 >= key.p);
                    assert_eq!(key.raw_decrypt(&c).unwrap(), m);
                }
            }
        }
        assert!(m1_below_m2 > 0 && m2_at_least_p > 0);
    }

    /// Keygens recorded from the binary-exponentiation kernel with
    /// division-based Miller-Rabin squarings: the search statistics, the
    /// SHA-1 of the key bytes and the RNG's next draw after keygen. Any
    /// bignum-kernel change must reproduce them bit for bit, because the
    /// statistics drive the simulated keygen time.
    #[test]
    fn keygen_goldens_are_bit_identical() {
        use crate::digest::Digest;
        type Golden = (usize, u64, (u64, u64), (u64, u64), &'static str, u64);
        const GOLDENS: [Golden; 3] = [
            (
                256,
                101,
                (105, 62),
                (75, 58),
                "e5cba957c1bb01eec54bcfb1137a03e1ac5707bc",
                0xb2c3_d53f_3bc6_6821,
            ),
            (
                512,
                102,
                (241, 90),
                (37, 47),
                "af8d2c51fa05ed6fe8fc79a5f0f85b18dc7acb08",
                0x31ba_4389_7698_4ef4,
            ),
            (
                1024,
                103,
                (45, 49),
                (54, 55),
                "a64624157be526676a6c90cf813c66c82e1ed15a",
                0xf423_69c0_eedb_5b96,
            ),
        ];
        for (bits, seed, (pc, pr), (qc, qr), sha1, next) in GOLDENS {
            let mut rng = XorShiftRng::new(seed);
            let (key, stats) = RsaPrivateKey::generate(bits, &mut rng);
            let stats_of = |candidates_tried, mr_rounds| PrimeSearchStats {
                candidates_tried,
                mr_rounds,
            };
            assert_eq!(stats.p_stats, stats_of(pc, pr), "{bits}-bit p search");
            assert_eq!(stats.q_stats, stats_of(qc, qr), "{bits}-bit q search");
            let digest = crate::sha1::Sha1::digest(&key.to_bytes());
            assert_eq!(crate::hex::encode(&digest), sha1, "{bits}-bit key bytes");
            assert_eq!(rng.next_u64(), next, "{bits}-bit RNG draws");
        }
    }
}
