//! Multi-precision unsigned integer arithmetic.
//!
//! This is the reproduction of the paper's "multi-precision integer
//! library" (Figure 6, Crypto module): the arbitrary-precision arithmetic
//! underneath RSA key generation, encryption/decryption, and signing inside
//! the PAL. Numbers are stored as little-endian `u64` limbs with no sign —
//! RSA needs only non-negative integers, and the one signed computation
//! (the extended Euclidean algorithm in [`Mpint::mod_inverse`]) tracks signs
//! explicitly.
//!
//! Division is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1), the same
//! algorithm every serious bignum library uses. Modular exponentiation
//! over odd moduli is fixed-window Montgomery exponentiation
//! ([`crate::montgomery`]); the division-based left-to-right binary
//! [`Mpint::mod_exp_plain`] is the reference it is tested against and the
//! fallback for even moduli.

use crate::rng::CryptoRng;
use crate::CryptoError;

/// An arbitrary-precision unsigned integer.
///
/// The invariant maintained by every constructor and operation is that
/// `limbs` has no trailing zero limbs (so `limbs.is_empty()` iff the value
/// is zero), keeping comparisons and bit-length computations O(1) in the
/// limb count.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Mpint {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl core::fmt::Debug for Mpint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Mpint(0x{})", crate::hex::encode(&self.to_bytes_be()))
    }
}

impl Ord for Mpint {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            if a != b {
                return a.cmp(b);
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl PartialOrd for Mpint {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for Mpint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Mpint::zero()
        } else {
            Mpint { limbs: vec![v] }
        }
    }
}

impl Mpint {
    /// Returns zero.
    pub fn zero() -> Self {
        Mpint { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        Mpint::from(1u64)
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    fn trim(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Mpint { limbs }
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Self::trim(limbs)
    }

    /// Serializes as a minimal big-endian byte string (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serializes as a fixed-width big-endian byte string, left-padded with
    /// zeros.
    ///
    /// Returns [`CryptoError::MessageTooLong`] if the value does not fit.
    pub fn to_bytes_be_padded(&self, width: usize) -> Result<Vec<u8>, CryptoError> {
        let raw = self.to_bytes_be();
        if raw.len() > width {
            return Err(CryptoError::MessageTooLong);
        }
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix; odd lengths allowed).
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let padded = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        Ok(Self::from_bytes_be(&crate::hex::decode(&padded)?))
    }

    /// Number of significant bits (zero has bit length 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order over the whole integer).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to 1, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Mpint) -> Mpint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        #[expect(clippy::needless_range_loop, reason = "two-array lockstep")]
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::trim(out)
    }

    /// Returns `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &Mpint) -> Option<Mpint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Self::trim(out))
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`; use [`Mpint::checked_sub`] when underflow
    /// is a legitimate outcome.
    pub fn sub(&self, other: &Mpint) -> Mpint {
        self.checked_sub(other)
            .expect("mpint subtraction underflow")
    }

    /// Returns `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &Mpint) -> Mpint {
        if self.is_zero() || other.is_zero() {
            return Mpint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Self::trim(out)
    }

    /// Returns `self << bits`.
    pub fn shl(&self, bits: usize) -> Mpint {
        if self.is_zero() || bits == 0 {
            let mut v = self.clone();
            if bits > 0 {
                v = Self::trim(
                    std::iter::repeat_n(0, bits / 64)
                        .chain(v.limbs.iter().copied())
                        .collect(),
                );
            }
            return v;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::trim(out)
    }

    /// Returns `self >> bits`.
    pub fn shr(&self, bits: usize) -> Mpint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Mpint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&n| n << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        Self::trim(out)
    }

    /// Returns `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &Mpint) -> (Mpint, Mpint) {
        assert!(!divisor.is_zero(), "mpint division by zero");
        if self < divisor {
            return (Mpint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_limb(divisor.limbs[0]);
        }
        self.div_rem_knuth(divisor)
    }

    fn div_rem_limb(&self, d: u64) -> (Mpint, Mpint) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Self::trim(q), Mpint::from(rem as u64))
    }

    /// Knuth Algorithm D for multi-limb divisors (TAOCP 4.3.1D).
    fn div_rem_knuth(&self, divisor: &Mpint) -> (Mpint, Mpint) {
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // extra high limb u[m+n]

        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;

        // D2-D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / v[n - 1] as u128;
            let mut rhat = top % v[n - 1] as u128;
            while qhat >= b || qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }

            // D4: multiply and subtract qhat * v from u[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            borrow = t >> 64;

            q[j] = qhat as u64;

            // D5/D6: if we subtracted too much (probability ~2/2^64), add back.
            if borrow != 0 {
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = t as u64;
                    carry = t >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }

        // D8: denormalize the remainder.
        let rem = Self::trim(u[..n].to_vec()).shr(shift);
        (Self::trim(q), rem)
    }

    /// Returns `self % modulus`.
    pub fn rem(&self, modulus: &Mpint) -> Mpint {
        self.div_rem(modulus).1
    }

    /// Returns `self % d` for a single-limb divisor, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "mpint division by zero");
        self.limbs.iter().rev().fold(0u64, |rem, &limb| {
            ((((rem as u128) << 64) | limb as u128) % d as u128) as u64
        })
    }

    /// Returns `(self * other) % modulus`.
    pub fn mul_mod(&self, other: &Mpint, modulus: &Mpint) -> Mpint {
        self.mul(other).rem(modulus)
    }

    /// The little-endian limbs (no trailing zeros).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds a value from little-endian limbs (trailing zeros allowed).
    pub(crate) fn from_limbs_le(limbs: Vec<u64>) -> Mpint {
        Self::trim(limbs)
    }

    /// Returns `self^exponent mod modulus`.
    ///
    /// Odd moduli (every RSA modulus and prime) dispatch to Montgomery
    /// multiplication ([`crate::montgomery`]); even moduli fall back to
    /// the division-based [`Mpint::mod_exp_plain`].
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn mod_exp(&self, exponent: &Mpint, modulus: &Mpint) -> Mpint {
        assert!(!modulus.is_zero(), "mpint modular exponentiation mod 0");
        match crate::montgomery::MontgomeryCtx::new(modulus) {
            Some(ctx) => ctx.mod_exp(self, exponent),
            None => self.mod_exp_plain(exponent, modulus),
        }
    }

    /// Division-based modular exponentiation (the reference
    /// implementation [`Mpint::mod_exp`] is checked against, and the
    /// fallback for even moduli).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn mod_exp_plain(&self, exponent: &Mpint, modulus: &Mpint) -> Mpint {
        assert!(!modulus.is_zero(), "mpint modular exponentiation mod 0");
        if modulus.is_one() {
            return Mpint::zero();
        }
        let base = self.rem(modulus);
        if exponent.is_zero() {
            return Mpint::one();
        }
        let mut acc = Mpint::one();
        for i in (0..exponent.bit_len()).rev() {
            acc = acc.mul_mod(&acc, modulus);
            if exponent.bit(i) {
                acc = acc.mul_mod(&base, modulus);
            }
        }
        acc
    }

    /// Returns `gcd(self, other)` (binary-free Euclid; division is fast
    /// enough here).
    pub fn gcd(&self, other: &Mpint) -> Mpint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Returns the multiplicative inverse of `self` modulo `modulus`, or
    /// `None` if `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &Mpint) -> Option<Mpint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid with explicit sign tracking for the Bezout
        // coefficient of `self`.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (Mpint::zero(), false); // (magnitude, negative?)
        let mut t1 = (Mpint::one(), false);

        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 with sign tracking.
            let qt1 = q.mul(&t1.0);
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0 >= qt1 {
                        (t0.0.sub(&qt1), false)
                    } else {
                        (qt1.sub(&t0.0), true)
                    }
                }
                (true, true) => {
                    if qt1 >= t0.0 {
                        (qt1.sub(&t0.0), false)
                    } else {
                        (t0.0.sub(&qt1), true)
                    }
                }
                (false, true) => (t0.0.add(&qt1), false),
                (true, false) => (t0.0.add(&qt1), true),
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }

        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let inv = if neg {
            modulus.sub(&mag.rem(modulus)).rem(modulus)
        } else {
            mag.rem(modulus)
        };
        Some(inv)
    }

    /// Returns a uniformly random integer in `[0, bound)` (rejection
    /// sampling over `bound.bit_len()`-bit candidates).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: CryptoRng + ?Sized>(rng: &mut R, bound: &Mpint) -> Mpint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let excess_bits = (bytes * 8 - bits) as u32;
        loop {
            let mut buf = vec![0u8; bytes];
            rng.fill_bytes(&mut buf);
            buf[0] &= 0xffu8.checked_shr(excess_bits).unwrap_or(0);
            let candidate = Mpint::from_bytes_be(&buf);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Returns a random integer of exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits<R: CryptoRng + ?Sized>(rng: &mut R, bits: usize) -> Mpint {
        assert!(bits > 0, "random_bits of zero width");
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        let excess_bits = (bytes * 8 - bits) as u32;
        buf[0] &= 0xffu8.checked_shr(excess_bits).unwrap_or(0);
        let mut v = Mpint::from_bytes_be(&buf);
        v.set_bit(bits - 1);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use proptest::prelude::*;

    fn mp(v: u128) -> Mpint {
        let bytes = v.to_be_bytes();
        Mpint::from_bytes_be(&bytes)
    }

    #[test]
    fn zero_and_one() {
        assert!(Mpint::zero().is_zero());
        assert!(Mpint::one().is_one());
        assert!(Mpint::zero().is_even());
        assert!(!Mpint::one().is_even());
        assert_eq!(Mpint::zero().bit_len(), 0);
        assert_eq!(Mpint::one().bit_len(), 1);
    }

    #[test]
    fn byte_round_trip() {
        let v = Mpint::from_hex("0123456789abcdef0011223344556677deadbeef").unwrap();
        assert_eq!(
            crate::hex::encode(&v.to_bytes_be()),
            "0123456789abcdef0011223344556677deadbeef"
        );
        // Leading zeros are stripped on parse.
        let w = Mpint::from_bytes_be(&[0, 0, 1, 2]);
        assert_eq!(w.to_bytes_be(), vec![1, 2]);
    }

    #[test]
    fn padded_serialization() {
        let v = Mpint::from(0x1234u64);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert!(matches!(
            v.to_bytes_be_padded(1),
            Err(CryptoError::MessageTooLong)
        ));
    }

    #[test]
    fn add_with_carry_chain() {
        let a = mp(u128::MAX);
        let one = Mpint::one();
        let sum = a.add(&one);
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(sum.sub(&one), a);
    }

    #[test]
    fn sub_underflow_detected() {
        assert!(Mpint::from(3u64).checked_sub(&Mpint::from(5u64)).is_none());
        assert_eq!(
            Mpint::from(5u64).checked_sub(&Mpint::from(3u64)).unwrap(),
            Mpint::from(2u64)
        );
    }

    #[test]
    fn mul_known_values() {
        // 2^64 * 2^64 = 2^128.
        let b64 = Mpint::one().shl(64);
        assert_eq!(b64.mul(&b64), Mpint::one().shl(128));
        assert_eq!(
            mp(0xffff_ffff).mul(&mp(0xffff_ffff)),
            mp(0xffff_fffe_0000_0001)
        );
    }

    #[test]
    fn shifts() {
        let v = Mpint::from_hex("deadbeefcafebabe1122334455667788").unwrap();
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shl(13).shr(13), v);
        assert_eq!(v.shr(200), Mpint::zero());
        assert_eq!(Mpint::zero().shl(100), Mpint::zero());
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = mp(1000).div_rem(&mp(7));
        assert_eq!(q, mp(142));
        assert_eq!(r, mp(6));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = Mpint::from_hex("deadbeefcafebabe112233445566778899aabbccddeeff00").unwrap();
        let b = Mpint::from_hex("0123456789abcdef0fedcba987654321").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_knuth_addback_path() {
        // Crafted so the qhat estimate overshoots and the D6 add-back runs:
        // dividend with a top limb pattern just below the divisor's.
        let a =
            Mpint::from_hex("80000000000000000000000000000000000000000000000000000000").unwrap();
        let b = Mpint::from_hex("800000000000000000000000000000ff").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Mpint::one().div_rem(&Mpint::zero());
    }

    #[test]
    fn mod_exp_small_cases() {
        // 4^13 mod 497 = 445 (classic example).
        assert_eq!(mp(4).mod_exp(&mp(13), &mp(497)), mp(445));
        assert_eq!(mp(2).mod_exp(&mp(0), &mp(7)), Mpint::one());
        assert_eq!(mp(2).mod_exp(&mp(10), &Mpint::one()), Mpint::zero());
    }

    #[test]
    fn mod_exp_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        let p = mp(1_000_000_007);
        for a in [2u128, 3, 65537, 123456789] {
            assert_eq!(mp(a).mod_exp(&p.sub(&Mpint::one()), &p), Mpint::one());
        }
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(mp(48).gcd(&mp(36)), mp(12));
        assert_eq!(mp(17).gcd(&mp(31)), Mpint::one());
        assert_eq!(mp(0).gcd(&mp(5)), mp(5));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11.
        assert_eq!(mp(3).mod_inverse(&mp(11)).unwrap(), mp(4));
        // 65537 inverse mod a larger modulus round-trips.
        let m = Mpint::from_hex("c4f8e9e15dcadf2b96c763d981006a644ffb4415030a16ed1283883340f2aa0e")
            .unwrap();
        let e = mp(65537);
        let inv = e.mod_inverse(&m).unwrap();
        assert_eq!(e.mul_mod(&inv, &m), Mpint::one());
        // Non-coprime has no inverse.
        assert!(mp(6).mod_inverse(&mp(9)).is_none());
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = XorShiftRng::new(99);
        let bound = Mpint::from_hex("ffee00").unwrap();
        for _ in 0..200 {
            assert!(Mpint::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = XorShiftRng::new(5);
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 512, 1024] {
            assert_eq!(Mpint::random_bits(&mut rng, bits).bit_len(), bits);
        }
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(
                Mpint::from(a).add(&Mpint::from(b)),
                mp(a as u128 + b as u128)
            );
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(
                Mpint::from(a).mul(&Mpint::from(b)),
                mp(a as u128 * b as u128)
            );
        }

        #[test]
        fn prop_div_rem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
            let (q, r) = mp(a).div_rem(&mp(b));
            prop_assert_eq!(q, mp(a / b));
            prop_assert_eq!(r, mp(a % b));
        }

        #[test]
        fn prop_div_rem_reconstructs(
            a in proptest::collection::vec(any::<u8>(), 1..64),
            b in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let a = Mpint::from_bytes_be(&a);
            let b = Mpint::from_bytes_be(&b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn prop_add_sub_round_trip(
            a in proptest::collection::vec(any::<u8>(), 0..48),
            b in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let a = Mpint::from_bytes_be(&a);
            let b = Mpint::from_bytes_be(&b);
            prop_assert_eq!(a.add(&b).sub(&b), a);
        }

        #[test]
        fn prop_mul_commutes_and_distributes(
            a in proptest::collection::vec(any::<u8>(), 0..24),
            b in proptest::collection::vec(any::<u8>(), 0..24),
            c in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            let a = Mpint::from_bytes_be(&a);
            let b = Mpint::from_bytes_be(&b);
            let c = Mpint::from_bytes_be(&c);
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_shift_round_trip(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            s in 0usize..200,
        ) {
            let a = Mpint::from_bytes_be(&a);
            prop_assert_eq!(a.shl(s).shr(s), a);
        }

        #[test]
        fn prop_mod_exp_matches_naive(
            base in any::<u64>(),
            exp in 0u32..64,
            modulus in 2..=u64::MAX,
        ) {
            // Naive repeated multiplication in u128 for the reference.
            let m = modulus as u128;
            let mut expected = 1u128;
            for _ in 0..exp {
                expected = expected * (base as u128 % m) % m;
            }
            prop_assert_eq!(
                Mpint::from(base).mod_exp(&Mpint::from(exp as u64), &Mpint::from(modulus)),
                mp(expected)
            );
        }

        #[test]
        fn prop_mod_inverse_is_inverse(a in 1..=u64::MAX, m in 2..=u64::MAX) {
            let am = Mpint::from(a);
            let mm = Mpint::from(m);
            if let Some(inv) = am.mod_inverse(&mm) {
                prop_assert_eq!(am.mul_mod(&inv, &mm), Mpint::one());
                prop_assert!(inv < mm);
            } else {
                // No inverse implies gcd > 1.
                prop_assert!(!am.gcd(&mm).is_one());
            }
        }

        #[test]
        fn prop_byte_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
            let v = Mpint::from_bytes_be(&bytes);
            let round = Mpint::from_bytes_be(&v.to_bytes_be());
            prop_assert_eq!(v, round);
        }
    }
}
