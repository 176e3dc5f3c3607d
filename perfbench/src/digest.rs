//! Output digests: what a served query answered, folded into one `u64`.
//!
//! A query's digest covers its health (with the failed step ids) and
//! every declared output's format and JSON projection, or the pipeline
//! error when nothing ran. Workload digests fold per-query digests in a
//! fixed order, so they compare equal exactly when every answer does.

use std::collections::BTreeMap;

use workflow::{RunHealth, StepId, Value};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// A length-prefixed string, so concatenations cannot collide.
    pub fn str(self, s: &str) -> Fnv {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn health_label(health: &RunHealth) -> &'static str {
    match health {
        RunHealth::Ok => "ok",
        RunHealth::Degraded { .. } => "degraded",
        RunHealth::Failed { .. } => "failed",
    }
}

/// Digest of one executed query.
pub fn run_digest(health: &RunHealth, outputs: &BTreeMap<StepId, Value>) -> u64 {
    let mut h = Fnv::default().str(health_label(health));
    for step in health.failed_steps() {
        h = h.str(&step.0);
    }
    for (step, value) in outputs {
        h = h.str(&step.0).str(&format!("{:?}", value.format)).str(&value.json().to_json_string());
    }
    h.finish()
}

/// Digest of a query the pipeline refused to serve.
pub fn error_digest(error: &str) -> u64 {
    Fnv::default().str("error").str(error).finish()
}

/// Folds digests in order.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(Fnv::default(), Fnv::u64).finish()
}
