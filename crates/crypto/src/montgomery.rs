//! Montgomery-form modular multiplication and exponentiation.
//!
//! RSA-1024/2048 exponentiation with plain multiply-then-divide reduction
//! spends most of its time in Knuth division. Montgomery's method (CIOS
//! variant — Koç, Acar, Kaliski, "Analyzing and Comparing Montgomery
//! Multiplication Algorithms") replaces every reduction with shifts and
//! adds. [`crate::mpint::Mpint::mod_exp`] switches to this path for odd
//! moduli (every RSA modulus and prime is odd); the `mont_vs_division`
//! Criterion bench quantifies the win.
//!
//! The kernel is built for the host's hot path, RSA key generation:
//!
//! - a context costs one Knuth division (`R² = 2^(128·k) mod n`);
//! - `MontgomeryCtx::mont_mul_into` works in caller-owned buffers, so
//!   an exponentiation allocates a fixed handful of buffers and a product
//!   allocates nothing;
//! - exponentiation uses fixed 4-bit windows over a 16-entry table. Every
//!   window costs 4 squarings and 1 multiply whatever its bits, and the
//!   table entry is read by a masked scan of the whole table, so neither
//!   the sequence of products nor the memory access pattern depends on the
//!   exponent's bits — only on its bit length. The final subtraction of
//!   each product is a masked select, not a branch;
//! - Miller–Rabin ([`crate::prime`]) keeps a witness's square chain in
//!   Montgomery form (`MontgomeryCtx::pow_mont` and `square_mont`).

use crate::mpint::Mpint;

/// Bits per exponent window.
const WINDOW_BITS: usize = 4;
/// Entries in the window table: `base^0 .. base^15`.
const TABLE_LEN: usize = 1 << WINDOW_BITS;

/// Precomputed context for arithmetic modulo an odd `n`.
pub struct MontgomeryCtx {
    /// The modulus (odd, > 1); its `k` limbs have no leading zero limb.
    n: Mpint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n` where `R = 2^(64·k)`, for conversion into Montgomery
    /// form; `k` limbs.
    r2: Vec<u64>,
    /// `R mod n`: 1 in Montgomery form; `k` limbs.
    one: Vec<u64>,
}

/// Computes `-n⁻¹ mod 2⁶⁴` for odd `n` via Newton iteration (5 rounds
/// double the precision each time: 2 → 4 → 8 → 16 → 32 → 64 bits).
fn neg_inv_u64(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    let mut inv: u64 = n0; // correct mod 2^3 for odd n0 (n*n ≡ 1 mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// All-ones if `a == b`, else zero, without a data-dependent branch.
fn eq_mask(a: usize, b: usize) -> u64 {
    let d = (a ^ b) as u64;
    // The top bit of `d | -d` is set iff `d != 0`.
    ((d | d.wrapping_neg()) >> 63).wrapping_sub(1)
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; `None` for even or trivial
    /// moduli.
    pub fn new(modulus: &Mpint) -> Option<MontgomeryCtx> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let k = modulus.limbs().len();
        let mut ctx = MontgomeryCtx {
            n: modulus.clone(),
            n_prime: neg_inv_u64(modulus.limbs()[0]),
            r2: Self::pad(&Mpint::one().shl(128 * k).rem(modulus), k),
            one: Vec::new(),
        };
        // R mod n = R² · R⁻¹.
        ctx.one = ctx.out_of_mont(&ctx.r2);
        Some(ctx)
    }

    /// Limb count `k` of the modulus.
    fn k(&self) -> usize {
        self.r2.len()
    }

    /// A zeroed scratch buffer for `mont_mul_into`.
    fn scratch(&self) -> Vec<u64> {
        vec![0u64; self.k() + 2]
    }

    fn pad(v: &Mpint, k: usize) -> Vec<u64> {
        let mut limbs = v.limbs().to_vec();
        limbs.resize(k, 0);
        limbs
    }

    /// CIOS Montgomery multiplication: writes `a·b·R⁻¹ mod n` to `out`.
    ///
    /// `a`, `b` and `out` have `k` limbs and `b < n`, which keeps the
    /// pre-subtraction result below `2n`; `scratch` holds at least `k + 2`
    /// limbs and its contents on entry are ignored. Nothing is allocated,
    /// and the final conditional subtraction of `n` is a masked select, so
    /// the running time does not depend on the operands' values.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        crate::cost::count(crate::cost::Primitive::ModMul);
        let n = self.n.limbs();
        let k = n.len();
        let (a, b, out) = (&a[..k], &b[..k], &mut out[..k]);
        let t = &mut scratch[..k + 2];
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry: u128 = 0;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n' mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry: u128 = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + ((s >> 64) as u64);
        }
        // Here t < 2n. Compute t - n into `out`, then keep it iff it did
        // not underflow, i.e. iff the overflow limb is set or the k-limb
        // subtraction ended without a borrow.
        let mut borrow = 0u64;
        for ((o, &ti), &ni) in out.iter_mut().zip(&t[..k]).zip(n) {
            let (d1, b1) = ti.overflowing_sub(ni);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        let keep_diff = (t[k] | (borrow ^ 1)).wrapping_neg();
        for (o, &ti) in out.iter_mut().zip(&t[..k]) {
            *o = (*o & keep_diff) | (ti & !keep_diff);
        }
    }

    /// `base^exp` in Montgomery form (`base^exp · R mod n`, `k` limbs).
    ///
    /// Fixed 4-bit windows: a 16-entry table of `base^0 .. base^15`, then
    /// per window 4 squarings and 1 multiply by the entry picked with a
    /// full-table masked scan. The top window seeds the accumulator.
    pub(crate) fn pow_mont(&self, base: &Mpint, exp: &Mpint) -> Vec<u64> {
        let k = self.k();
        if exp.is_zero() {
            return self.one.clone();
        }
        let mut t = self.scratch();
        // table[i] = base^i · R mod n, entries of k limbs back to back.
        let mut table = vec![0u64; TABLE_LEN * k];
        table[..k].copy_from_slice(&self.one);
        table[k..2 * k].copy_from_slice(&self.to_mont(base));
        for i in 2..TABLE_LEN {
            let (done, rest) = table.split_at_mut(i * k);
            self.mont_mul_into(
                &done[(i - 1) * k..],
                &done[k..2 * k],
                &mut t,
                &mut rest[..k],
            );
        }

        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        let window = |w: usize| {
            (0..WINDOW_BITS).fold(0, |acc, b| {
                acc | (exp.bit(w * WINDOW_BITS + b) as usize) << b
            })
        };
        let mut acc = vec![0u64; k];
        let mut tmp = vec![0u64; k];
        let mut entry = vec![0u64; k];
        Self::select(&table, window(windows - 1), &mut acc);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mont_mul_into(&acc, &acc, &mut t, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            Self::select(&table, window(w), &mut entry);
            self.mont_mul_into(&acc, &entry, &mut t, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc
    }

    /// Copies `table[index]` into `out` by reading every entry and masking
    /// all but the wanted one, so the memory access pattern does not
    /// depend on `index`.
    fn select(table: &[u64], index: usize, out: &mut [u64]) {
        out.fill(0);
        for (i, entry) in table.chunks_exact(out.len()).enumerate() {
            let mask = eq_mask(i, index);
            for (o, &e) in out.iter_mut().zip(entry) {
                *o |= e & mask;
            }
        }
    }

    /// `x` in Montgomery form (`x·R mod n`, `k` limbs); `x` may be `>= n`.
    pub(crate) fn to_mont(&self, x: &Mpint) -> Vec<u64> {
        let x = if x < &self.n {
            Self::pad(x, self.k())
        } else {
            Self::pad(&x.rem(&self.n), self.k())
        };
        let mut out = vec![0u64; self.k()];
        self.mont_mul_into(&x, &self.r2, &mut self.scratch(), &mut out);
        out
    }

    /// 1 in Montgomery form (`R mod n`).
    pub(crate) fn one_mont(&self) -> &[u64] {
        &self.one
    }

    /// Replaces Montgomery-form `x` by `x²` (still in Montgomery form),
    /// using `buf` (at least `2k + 2` limbs) as scratch.
    pub(crate) fn square_mont(&self, x: &mut [u64], buf: &mut [u64]) {
        let (out, t) = buf.split_at_mut(self.k());
        self.mont_mul_into(x, x, t, out);
        x.copy_from_slice(out);
    }

    /// `x · R⁻¹ mod n` (out of Montgomery form): `montmul(x, 1)`.
    fn out_of_mont(&self, x: &[u64]) -> Vec<u64> {
        let mut unit = vec![0u64; self.k()];
        unit[0] = 1;
        let mut out = vec![0u64; self.k()];
        self.mont_mul_into(x, &unit, &mut self.scratch(), &mut out);
        out
    }

    /// Modular exponentiation `base^exp mod n` by fixed-window Montgomery
    /// exponentiation: 4 squarings and 1 table multiply per 4-bit window
    /// of `exp`, whatever its bits.
    pub fn mod_exp(&self, base: &Mpint, exp: &Mpint) -> Mpint {
        Mpint::from_limbs_le(self.out_of_mont(&self.pow_mont(base, exp)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use proptest::prelude::*;

    fn mp(v: u128) -> Mpint {
        Mpint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn neg_inv_correct_for_odd_values() {
        for n in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(n);
            assert_eq!(n.wrapping_mul(ninv), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&mp(10)).is_none());
        assert!(MontgomeryCtx::new(&Mpint::one()).is_none());
        assert!(MontgomeryCtx::new(&Mpint::zero()).is_none());
        assert!(MontgomeryCtx::new(&mp(9)).is_some());
    }

    #[test]
    fn matches_plain_mod_exp_small() {
        let m = mp(497);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.mod_exp(&mp(4), &mp(13)), mp(445));
        assert_eq!(ctx.mod_exp(&mp(2), &mp(0)), Mpint::one());
        assert_eq!(ctx.mod_exp(&mp(0), &mp(5)), Mpint::zero());
    }

    #[test]
    fn matches_plain_mod_exp_large() {
        let mut rng = XorShiftRng::new(77);
        for _ in 0..10 {
            let mut m = Mpint::random_bits(&mut rng, 512);
            m.set_bit(0); // odd
            let base = Mpint::random_below(&mut rng, &m);
            let exp = Mpint::random_bits(&mut rng, 128);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // 2^126 primes-ish check with a known prime: 2^127 - 1.
        let p = Mpint::one().shl(127).sub(&Mpint::one());
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let pm1 = p.sub(&Mpint::one());
        for a in [2u128, 3, 65537] {
            assert_eq!(ctx.mod_exp(&mp(a), &pm1), Mpint::one());
        }
    }

    proptest! {
        #[test]
        fn prop_matches_plain(
            base in any::<u128>(),
            exp in any::<u64>(),
            modulus in any::<u128>(),
        ) {
            let m = mp(modulus | 1); // force odd
            prop_assume!(!m.is_one());
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let b = mp(base);
            let e = Mpint::from(exp);
            prop_assert_eq!(ctx.mod_exp(&b, &e), b.mod_exp_plain(&e, &m));
        }

        #[test]
        fn prop_mont_mul_reduces(seed in any::<u64>()) {
            let mut rng = XorShiftRng::new(seed);
            let mut m = Mpint::random_bits(&mut rng, 256);
            m.set_bit(0);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let a = Mpint::random_below(&mut rng, &m);
            let b = Mpint::random_below(&mut rng, &m);
            let r = ctx.mod_exp(&a, &b);
            prop_assert!(r < m, "result fully reduced");
        }
    }

    /// Exponent bit lengths at the 4-bit window boundaries: 0, 1, and
    /// `4w - 1`, `4w`, `4w + 1` for `w` windows.
    fn window_edge_exponent(rng: &mut XorShiftRng, kind: usize, windows: usize) -> Mpint {
        let bits = match kind {
            0 => return Mpint::zero(),
            1 => 1,
            2 => 4 * windows - 1,
            3 => 4 * windows,
            _ => 4 * windows + 1,
        };
        Mpint::random_bits(rng, bits)
    }

    /// Bases 0, 1, `n`, `n + r` (both `>= n`) and a random reduced value.
    fn edge_base(rng: &mut XorShiftRng, kind: usize, m: &Mpint) -> Mpint {
        match kind {
            0 => Mpint::zero(),
            1 => Mpint::one(),
            2 => m.clone(),
            3 => m.add(&Mpint::random_below(rng, m)),
            _ => Mpint::random_below(rng, m),
        }
    }

    #[test]
    fn full_length_exponent_at_2048_bits() {
        let mut rng = XorShiftRng::new(2048);
        let mut m = Mpint::random_bits(&mut rng, 2048);
        m.set_bit(0);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = Mpint::random_below(&mut rng, &m);
        let exp = Mpint::random_bits(&mut rng, 2048);
        assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
    }

    #[test]
    fn product_count_depends_only_on_exponent_length() {
        let mut rng = XorShiftRng::new(9);
        let mut m = Mpint::random_bits(&mut rng, 512);
        m.set_bit(0);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = Mpint::random_below(&mut rng, &m);
        let products = |exp: &Mpint| {
            let before = crate::cost::snapshot();
            ctx.mod_exp(&base, exp);
            crate::cost::snapshot().since(&before).modmul
        };
        let sparse = Mpint::one().shl(255);
        let dense = Mpint::one().shl(256).sub(&Mpint::one());
        assert_eq!(products(&sparse), products(&dense));
        assert_eq!(
            products(&sparse),
            products(&Mpint::random_bits(&mut rng, 256))
        );
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]
        #[test]
        fn prop_matches_plain_at_window_edges(
            seed in any::<u64>(),
            modulus_bits in 64usize..=2048,
            exp_kind in 0usize..5,
            windows in 1usize..48,
            base_kind in 0usize..5,
        ) {
            let mut rng = XorShiftRng::new(seed);
            let mut m = Mpint::random_bits(&mut rng, modulus_bits);
            m.set_bit(0);
            let exp = window_edge_exponent(&mut rng, exp_kind, windows);
            let base = edge_base(&mut rng, base_kind, &m);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
            prop_assert_eq!(base.mod_exp(&exp, &m), base.mod_exp_plain(&exp, &m));
        }
    }
}
