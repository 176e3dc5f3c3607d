//! Folding per-query layer measurements into the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::serving::Layers;

/// The tool functions reported one by one.
pub const TOOLS: [&str; 7] = [
    "bgp.updates",
    "bgp.detect_moas",
    "xaminer.control_plane_impact",
    "traceroute.campaign",
    "traceroute.detect_anomaly",
    "nautilus.map_links",
    "xaminer.event_impact",
];

/// The three planning agents, by `Prompt::task` prefix.
pub const AGENTS: [&str; 3] = ["querymind", "workflowscout", "solutionweaver"];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sums of [`Layers`] over the traced queries of a phase.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub queries: u64,
    pub sums: Layers,
    pub degraded_runs: u64,
}

impl LayerTotals {
    /// Adds one traced query.
    pub fn add(&mut self, layers: &Layers) {
        self.absorb(layers);
        self.queries += 1;
        self.degraded_runs += u64::from(layers.degraded);
    }

    /// Adds another phase's totals.
    pub fn merge(&mut self, other: &LayerTotals) {
        self.absorb(&other.sums);
        self.queries += other.queries;
        self.degraded_runs += other.degraded_runs;
    }

    /// Sums every time and count of `layers` into `self.sums`.
    fn absorb(&mut self, layers: &Layers) {
        let s = &mut self.sums;
        s.plan += layers.plan;
        for (agent, (calls, time)) in &layers.model.by_agent {
            let slot = s.model.by_agent.entry(agent.clone()).or_default();
            slot.0 += calls;
            slot.1 += *time;
        }
        s.repairs += layers.repairs;
        s.exec += layers.exec;
        for (function, t) in &layers.tools {
            let slot = s.tools.entry(function.clone()).or_default();
            slot.calls += t.calls;
            slot.time += t.time;
        }
        s.steps += layers.steps;
        s.retries += layers.retries;
        s.failed_steps += layers.failed_steps;
        s.poisoned_steps += layers.poisoned_steps;
        s.chaos.injected_failures += layers.chaos.injected_failures;
        s.resilience.shed += layers.resilience.shed;
        s.resilience.fallback_invocations += layers.resilience.fallback_invocations;
        s.artifact_hits += layers.artifact_hits;
        s.artifact_misses += layers.artifact_misses;
    }

    /// Total tool time.
    pub fn tool_time(&self) -> Duration {
        self.sums.tools.values().map(|t| t.time).sum()
    }

    /// Artifact-store builds, and cacheable calls per build.
    pub fn artifacts(&self) -> [(String, f64); 2] {
        let (hits, misses) = (self.sums.artifact_hits, self.sums.artifact_misses);
        [
            ("toolkit.artifacts_built".to_string(), misses as f64),
            ("toolkit.artifact_reuse".to_string(), (hits + misses) as f64 / misses.max(1) as f64),
        ]
    }

    /// The per-query means of every layer metric: times in ms per query,
    /// counts per query.
    pub fn per_query(&self) -> BTreeMap<String, f64> {
        let n = self.queries.max(1) as f64;
        let s = &self.sums;
        let mut m = BTreeMap::new();
        let model = s.model.total();
        m.insert("plan.ms".to_string(), ms(s.plan) / n);
        m.insert("plan.model_ms".to_string(), ms(model) / n);
        m.insert("plan.agent_side_ms".to_string(), ms(s.plan.saturating_sub(model)) / n);
        for agent in AGENTS {
            let time = s.model.by_agent.get(agent).map(|(_, t)| *t).unwrap_or_default();
            m.insert(format!("plan.model_ms.{agent}"), ms(time) / n);
        }
        m.insert("plan.model_calls".to_string(), s.model.calls() as f64 / n);
        m.insert("plan.repairs".to_string(), s.repairs as f64 / n);
        let tools = self.tool_time();
        m.insert("exec.ms".to_string(), ms(s.exec) / n);
        m.insert("exec.overhead_ms".to_string(), ms(s.exec.saturating_sub(tools)) / n);
        m.insert("exec.steps".to_string(), s.steps as f64 / n);
        m.insert("exec.retries".to_string(), s.retries as f64 / n);
        m.insert("exec.failed_steps".to_string(), s.failed_steps as f64 / n);
        m.insert("exec.poisoned_steps".to_string(), s.poisoned_steps as f64 / n);
        m.insert("exec.degraded_runs".to_string(), self.degraded_runs as f64 / n);
        m.insert("tool.ms".to_string(), ms(tools) / n);
        for function in TOOLS {
            let t = s.tools.get(function).copied().unwrap_or_default();
            m.insert(format!("tool.{function}.ms"), ms(t.time) / n);
            m.insert(format!("tool.{function}.calls"), t.calls as f64 / n);
        }
        m.insert("chaos.injected".to_string(), s.chaos.injected_failures as f64 / n);
        m.insert("resilience.shed".to_string(), s.resilience.shed as f64 / n);
        m.insert("resilience.fallbacks".to_string(), s.resilience.fallback_invocations as f64 / n);
        m
    }
}
