//! The simulation digest: a fingerprint of the virtual-clock outputs of a
//! run's first operations.
//!
//! A host-only change must leave every virtual output unchanged. The
//! digest folds, for each of the first operations of a seed's list, the
//! operation's virtual latency and each Flicker session's
//! [`SessionTimings`], final PCR 17 and output bytes. [`REFERENCE`] holds
//! the digests recorded for the default seeds; a run whose digest differs
//! from its seed's reference counts the folded operations as failed.
//!
//! FNV-1a is used rather than the simulated SHA-1 so that computing the
//! digest does not show up in the crypto layer's counters.

use flicker_core::{SessionRecord, SessionTimings};
use std::time::Duration;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed byte string (so concatenations differ).
    pub fn field(&mut self, data: &[u8]) {
        self.bytes(&(data.len() as u64).to_le_bytes());
        self.bytes(data);
    }

    /// Folds a duration at nanosecond resolution.
    pub fn duration(&mut self, d: Duration) {
        self.bytes(&d.as_nanos().to_le_bytes());
    }

    /// Folds one session's virtual outputs.
    pub fn session(&mut self, rec: &SessionRecord) {
        let SessionTimings {
            suspend,
            skinit,
            stub_measure,
            pal,
            cleanup,
            resume,
            total,
        } = &rec.timings;
        for d in [suspend, skinit, stub_measure, pal, cleanup, resume, total] {
            self.duration(*d);
        }
        self.field(&rec.pcr17_final);
        self.field(&rec.outputs);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Reference digests: `(workload, seed, digest)` for the default seeds
/// 0–99, recorded from the `sim_digest` line of
/// `hostbench --workload W --seed N --seconds 0 --trace 0`.
pub const REFERENCE: &[(&str, u64, &str)] = &[
    ("app_mix", 0, "949b5b903270711f"),
    ("app_mix", 1, "c910c50c2cfa26e6"),
    ("app_mix", 2, "b1851ce2ad461407"),
    ("app_mix", 3, "ca0529e5bc2e909f"),
    ("app_mix", 4, "69a8792be2d644e6"),
    ("app_mix", 5, "c89c9ed013755384"),
    ("app_mix", 6, "25d020241645fd30"),
    ("app_mix", 7, "5e64e08e11751f1e"),
    ("app_mix", 8, "4da35a25cafd101d"),
    ("app_mix", 9, "2d716433f852ec4b"),
    ("app_mix", 10, "676d3c0c92488588"),
    ("app_mix", 11, "f39b04f2764d3189"),
    ("app_mix", 12, "62d28f4763e928c7"),
    ("app_mix", 13, "ffdec892bcfa5143"),
    ("app_mix", 14, "2bf10dd294bd6294"),
    ("app_mix", 15, "cec46408933cc875"),
    ("app_mix", 16, "38f7ffeab4dad335"),
    ("app_mix", 17, "7919d92f849815eb"),
    ("app_mix", 18, "9c14b01249a4447f"),
    ("app_mix", 19, "7ad423045be457b1"),
    ("app_mix", 20, "e5e336df1fc9fe92"),
    ("app_mix", 21, "16b97c6ea9b08cab"),
    ("app_mix", 22, "d2762718418f8e17"),
    ("app_mix", 23, "c9b4e2ab8725420a"),
    ("app_mix", 24, "b7dedfe7a27b0f23"),
    ("app_mix", 25, "4082c327e00d6f85"),
    ("app_mix", 26, "5265ebcf63568ad2"),
    ("app_mix", 27, "2910ffb5ded32ea6"),
    ("app_mix", 28, "35cd3aa397e437df"),
    ("app_mix", 29, "896b6efcb5190c92"),
    ("app_mix", 30, "36c2ee0f9eee242f"),
    ("app_mix", 31, "e7171a2c26f56636"),
    ("app_mix", 32, "3e2957b43e45d977"),
    ("app_mix", 33, "f742335ac19a743b"),
    ("app_mix", 34, "4e98d4f60f000a7e"),
    ("app_mix", 35, "ab334288e7754dda"),
    ("app_mix", 36, "2befc64a5b02c2db"),
    ("app_mix", 37, "703843b23812d790"),
    ("app_mix", 38, "e6c90425b4fd3636"),
    ("app_mix", 39, "a401693a3d5a97f8"),
    ("app_mix", 40, "94adfb10b448dc1b"),
    ("app_mix", 41, "238549434384b5ea"),
    ("app_mix", 42, "3745eb8c0c2b55e2"),
    ("app_mix", 43, "2ee29bf117c3de9b"),
    ("app_mix", 44, "4a95f8061bea5db2"),
    ("app_mix", 45, "eb91968a3698eee5"),
    ("app_mix", 46, "4eba7f26f6d4e7ca"),
    ("app_mix", 47, "b50d21b84bde6c4c"),
    ("app_mix", 48, "cfef42b77e793c74"),
    ("app_mix", 49, "6cb1a72418d4ed7e"),
    ("app_mix", 50, "e78bdbf6445afbca"),
    ("app_mix", 51, "f879aa87d9caea68"),
    ("app_mix", 52, "582b96a90f9ced9d"),
    ("app_mix", 53, "75c98bf45b4a23fe"),
    ("app_mix", 54, "400b3c0a9d8b37cb"),
    ("app_mix", 55, "3b10b3c58458c978"),
    ("app_mix", 56, "db7db16f31825108"),
    ("app_mix", 57, "a7203a89f1c7bc47"),
    ("app_mix", 58, "bd008a1404df91df"),
    ("app_mix", 59, "3589cf6e9d70b49f"),
    ("app_mix", 60, "5fdba7cc7bad8bfa"),
    ("app_mix", 61, "ef7c35a50586b6d1"),
    ("app_mix", 62, "6e9ab11cd25d8ed4"),
    ("app_mix", 63, "ed89e40d4e43f0c3"),
    ("app_mix", 64, "117e71b46bab0de3"),
    ("app_mix", 65, "a29c99e2bc01487a"),
    ("app_mix", 66, "064933ca84f78a42"),
    ("app_mix", 67, "24abc0268387fad9"),
    ("app_mix", 68, "4c32fb84b1f43870"),
    ("app_mix", 69, "1673ec0a65bf7d7a"),
    ("app_mix", 70, "5583c71593318ac9"),
    ("app_mix", 71, "4204dda0e704b505"),
    ("app_mix", 72, "0c8b8dd5a9cc6963"),
    ("app_mix", 73, "f98d95a09fc8483f"),
    ("app_mix", 74, "17fec36523bdce5a"),
    ("app_mix", 75, "02cdd6ca9f68914a"),
    ("app_mix", 76, "de1336d8de9569b9"),
    ("app_mix", 77, "919e6084a0a75247"),
    ("app_mix", 78, "90648918a89ef5a0"),
    ("app_mix", 79, "21de6c68d7848b87"),
    ("app_mix", 80, "002eb7b1d96c38d5"),
    ("app_mix", 81, "394af53a6e218547"),
    ("app_mix", 82, "0d5ab783993d17a8"),
    ("app_mix", 83, "077f3b6756559622"),
    ("app_mix", 84, "1201ee9058fada50"),
    ("app_mix", 85, "a8e1622cab5a1dc0"),
    ("app_mix", 86, "6c9b229b7bb2344a"),
    ("app_mix", 87, "3ce9bc0ddced514a"),
    ("app_mix", 88, "a061baaaa42005af"),
    ("app_mix", 89, "607bf0bc31a6bb81"),
    ("app_mix", 90, "dfca9d12446ac4e6"),
    ("app_mix", 91, "e92cafa515b07231"),
    ("app_mix", 92, "5ffc35bc13952f6c"),
    ("app_mix", 93, "a72b6a883eaad818"),
    ("app_mix", 94, "cf2ec13b58692627"),
    ("app_mix", 95, "5e6073778c20d95b"),
    ("app_mix", 96, "a6bb432957760714"),
    ("app_mix", 97, "07f3890c5b6da313"),
    ("app_mix", 98, "7ede7b73c6cbbbf3"),
    ("app_mix", 99, "1360b35f6dfb7568"),
    ("pal_bytecode", 0, "eb06764004f5e37e"),
    ("pal_bytecode", 1, "ef51621d8460f959"),
    ("pal_bytecode", 2, "6fd81d5de703d70f"),
    ("pal_bytecode", 3, "a1416313bba412ab"),
    ("pal_bytecode", 4, "a54e26f062cb3a04"),
    ("pal_bytecode", 5, "b78c1a8791216166"),
    ("pal_bytecode", 6, "35e064705aae62be"),
    ("pal_bytecode", 7, "e0efce7ed582704f"),
    ("pal_bytecode", 8, "ecd0308d8f1ef062"),
    ("pal_bytecode", 9, "2ca7e55e1d988734"),
    ("pal_bytecode", 10, "a2a033ba8019bc3c"),
    ("pal_bytecode", 11, "74ea566eef03074b"),
    ("pal_bytecode", 12, "75ce88b0f84499fa"),
    ("pal_bytecode", 13, "55ef025f9938d83b"),
    ("pal_bytecode", 14, "2fd3338f04f3118d"),
    ("pal_bytecode", 15, "04e8c56baa2a151a"),
    ("pal_bytecode", 16, "f407328d4f9127c5"),
    ("pal_bytecode", 17, "c9c41394b19ddb6e"),
    ("pal_bytecode", 18, "d01bde8dda8f2065"),
    ("pal_bytecode", 19, "184a99122efb8bee"),
    ("pal_bytecode", 20, "96f1ea595815fe9f"),
    ("pal_bytecode", 21, "bdd833763879f7f3"),
    ("pal_bytecode", 22, "ff59e667f2944c8f"),
    ("pal_bytecode", 23, "4571ab971ed2e99b"),
    ("pal_bytecode", 24, "1f49244622505be3"),
    ("pal_bytecode", 25, "1b01b3a6d7784e1e"),
    ("pal_bytecode", 26, "9269db1393c9f488"),
    ("pal_bytecode", 27, "d0a50dd5cb598a28"),
    ("pal_bytecode", 28, "2f1ff4aaf9937f5f"),
    ("pal_bytecode", 29, "aff847b5714484f1"),
    ("pal_bytecode", 30, "8e51db2b1ce890db"),
    ("pal_bytecode", 31, "da829723bd5b8f76"),
    ("pal_bytecode", 32, "aa1004773bb0b905"),
    ("pal_bytecode", 33, "ec29ce274ab75710"),
    ("pal_bytecode", 34, "29dfec4c7760bb03"),
    ("pal_bytecode", 35, "df194e60571d1bf1"),
    ("pal_bytecode", 36, "bdf2f5aaf5353b31"),
    ("pal_bytecode", 37, "bdd7a0648a36d8a1"),
    ("pal_bytecode", 38, "84eda5a67de63a24"),
    ("pal_bytecode", 39, "954b8c71a09ebf7f"),
    ("pal_bytecode", 40, "0a39fe91ce319c39"),
    ("pal_bytecode", 41, "b3d9d3ab5218edc2"),
    ("pal_bytecode", 42, "497bf4946ec8e891"),
    ("pal_bytecode", 43, "be5f7947d7a3afdb"),
    ("pal_bytecode", 44, "090150c700511dc5"),
    ("pal_bytecode", 45, "48d91db882224de8"),
    ("pal_bytecode", 46, "ef5af4b177ed6363"),
    ("pal_bytecode", 47, "116482e6fc02250c"),
    ("pal_bytecode", 48, "ddd9232e94a08c2d"),
    ("pal_bytecode", 49, "c008f371f0c786be"),
    ("pal_bytecode", 50, "cd5fd1f19adc0ad7"),
    ("pal_bytecode", 51, "d076d0d56e7b6282"),
    ("pal_bytecode", 52, "388450d1c010ffe3"),
    ("pal_bytecode", 53, "95ad2331d61f0889"),
    ("pal_bytecode", 54, "23248a6473ee22b9"),
    ("pal_bytecode", 55, "000d92c2e5a00093"),
    ("pal_bytecode", 56, "aff07524adcf13e4"),
    ("pal_bytecode", 57, "81cb31a32651b63b"),
    ("pal_bytecode", 58, "95274fbd581733aa"),
    ("pal_bytecode", 59, "1a5d18b41097c9cf"),
    ("pal_bytecode", 60, "625408c6de7eda16"),
    ("pal_bytecode", 61, "d91ea60ee6a12b5c"),
    ("pal_bytecode", 62, "da9e8309cb271eca"),
    ("pal_bytecode", 63, "e379c80f7df0f064"),
    ("pal_bytecode", 64, "26d955502a0a04af"),
    ("pal_bytecode", 65, "42d423f528e8711d"),
    ("pal_bytecode", 66, "6311b6b7e71a4203"),
    ("pal_bytecode", 67, "81a4a4df7662b0e8"),
    ("pal_bytecode", 68, "6e074aa09a18d9b7"),
    ("pal_bytecode", 69, "472a79e54a86f8cc"),
    ("pal_bytecode", 70, "89d55fbd68fa1f93"),
    ("pal_bytecode", 71, "0d0cae29e0327a21"),
    ("pal_bytecode", 72, "c425c052f8c5a70a"),
    ("pal_bytecode", 73, "12c42b99b600b218"),
    ("pal_bytecode", 74, "f79937a42abc4d63"),
    ("pal_bytecode", 75, "589da12917721fdb"),
    ("pal_bytecode", 76, "5e882e8976ffb8bf"),
    ("pal_bytecode", 77, "73b206c77ad48204"),
    ("pal_bytecode", 78, "91937a6b921982bc"),
    ("pal_bytecode", 79, "a514d7c65fd8e4e1"),
    ("pal_bytecode", 80, "78fcac06a5aa36e0"),
    ("pal_bytecode", 81, "ba48d9a3f6463a03"),
    ("pal_bytecode", 82, "2a2d47b0acfad0a9"),
    ("pal_bytecode", 83, "1cedbdf1c1139c8f"),
    ("pal_bytecode", 84, "793c2eb5b2014ec7"),
    ("pal_bytecode", 85, "2dfec431467274b2"),
    ("pal_bytecode", 86, "08b738923680eb32"),
    ("pal_bytecode", 87, "c8d1e6bc8b19d1a1"),
    ("pal_bytecode", 88, "befd475c4ce3028d"),
    ("pal_bytecode", 89, "021ab1844e37654d"),
    ("pal_bytecode", 90, "446ebe8b33a05330"),
    ("pal_bytecode", 91, "b6b38160cfa34cd2"),
    ("pal_bytecode", 92, "b6cd1dc92710c24a"),
    ("pal_bytecode", 93, "d110dc3fb4accd78"),
    ("pal_bytecode", 94, "65a5663aa71c6d75"),
    ("pal_bytecode", 95, "57b69e84974151d8"),
    ("pal_bytecode", 96, "ee43e113f341f01e"),
    ("pal_bytecode", 97, "256ea3add039b10f"),
    ("pal_bytecode", 98, "7c345a32c0eff6ac"),
    ("pal_bytecode", 99, "3f5d6b47855c4244"),
];

/// The recorded digest of `workload` at `seed`, if it is a default seed.
pub fn reference(workload: &str, seed: u64) -> Option<&'static str> {
    REFERENCE
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}
