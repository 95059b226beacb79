//! Host-time spans recorded by the traced run.
//!
//! The benchmark wraps each call into a layer's public API in
//! [`Spans::call`]. With recording off (the end-to-end run) a call is a
//! plain function call and nothing is timed. With recording on, each call
//! is timed with [`Instant`] and charged twice: to a per-`(layer, call)`
//! total, from which the per-layer metrics are read, and as self time to
//! the folded stack `op;layer;call`, where `op` is the operation the call
//! ran under. An operation's own stack (`op`) receives the time its calls
//! do not cover: the benchmark's glue and checks.
//!
//! The folded text is the format `flicker_trace::profile::parse_folded`
//! reads, so two commits' host profiles compare with `diff_folded`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one `(layer, call)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotal {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent in them.
    pub ns: u64,
}

impl CallTotal {
    /// Mean host milliseconds per call (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// The span recorder. One per process; passed by `&mut` to every
/// workload step.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    /// Name of the operation calls are charged to.
    op: &'static str,
    /// Host ns of calls made inside the current operation (its non-self
    /// part).
    op_child_ns: u64,
    totals: BTreeMap<(&'static str, &'static str), CallTotal>,
    folded: BTreeMap<String, u64>,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Spans {
    /// A recorder that times every call when `enabled`, and nothing
    /// otherwise (the end-to-end run).
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            op: "unscoped",
            op_child_ns: 0,
            totals: BTreeMap::new(),
            folded: BTreeMap::new(),
        }
    }

    /// Turns recording on or off between phases of one run.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` as operation `op`: calls made inside are charged to
    /// `op;layer;call`, and the rest of `f`'s time to `op` itself.
    pub fn op<T>(&mut self, op: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let outer = std::mem::replace(&mut self.op, op);
        let outer_child = std::mem::take(&mut self.op_child_ns);
        let start = Instant::now();
        let out = f(self);
        let total = elapsed_ns(start);
        let own = total.saturating_sub(self.op_child_ns);
        let t = self.totals.entry(("op", op)).or_default();
        t.calls += 1;
        t.ns += total;
        *self.folded.entry(op.to_string()).or_insert(0) += own;
        self.op = outer;
        self.op_child_ns = outer_child;
        out
    }

    /// Runs `f`, one call into `layer`'s public API named `call`.
    pub fn call<T>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        let t = self.totals.entry((layer, call)).or_default();
        t.calls += 1;
        t.ns += ns;
        self.op_child_ns += ns;
        *self
            .folded
            .entry(format!("{};{layer};{call}", self.op))
            .or_insert(0) += ns;
        out
    }

    /// Accumulated time of `(layer, call)`; operations are recorded under
    /// the layer `"op"`.
    pub fn total(&self, layer: &str, call: &str) -> CallTotal {
        self.totals
            .iter()
            .find(|((l, c), _)| *l == layer && *c == call)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Sum of every call recorded under `layer` and one of `calls`.
    pub fn total_of(&self, layer: &str, calls: &[&str]) -> CallTotal {
        calls.iter().fold(CallTotal::default(), |acc, c| {
            let t = self.total(layer, c);
            CallTotal {
                calls: acc.calls + t.calls,
                ns: acc.ns + t.ns,
            }
        })
    }

    /// The folded stacks, one `stack weight_ns` line each, sorted by stack.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, ns) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.op("x", |s| s.call("core", "f", || 7));
        assert_eq!(v, 7);
        assert!(s.folded().is_empty());
        assert_eq!(s.total("core", "f"), CallTotal::default());
    }

    #[test]
    fn on_folds_op_layer_call() {
        let mut s = Spans::new(true);
        s.op("ssh", |s| {
            s.call("apps", "connect", || std::hint::black_box(1));
            s.call("crypto", "verify", || std::hint::black_box(2));
        });
        let folded = flicker_trace::profile::parse_folded(&s.folded()).expect("parses");
        assert!(folded.contains_key("ssh;apps;connect"));
        assert!(folded.contains_key("ssh;crypto;verify"));
        assert!(folded.contains_key("ssh"));
        assert_eq!(s.total("apps", "connect").calls, 1);
        assert_eq!(s.total("op", "ssh").calls, 1);
    }
}
