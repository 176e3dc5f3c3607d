//! Serving one query, untraced through `Session::run` or traced through
//! a replica of `Session::execute`'s runtime stack built from public
//! parts, with a [`TimingRuntime`] innermost.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arachnet::{Engine, LanguageModel, Session};
use chaos::{ChaosRuntime, ChaosStats, FaultKind, FaultPlan};
use llm::protocol::QueryContext;
use registry::Registry;
use telemetry::Recorder;
use toolkit::{ResilienceConfig, ResilienceStats, ResilientRuntime, StandardRuntime};
use workflow::{
    execute_with, ExecOptions, ExecutionReport, RetryPolicy, RunHealth, Value, Workflow,
};

use crate::digest::{error_digest, run_digest};
use crate::timing::{begin_model_timing, end_model_timing, ModelTimes, TimingRuntime, ToolTime};

/// How an engine is wired. The benchmark keeps its own copy because the
/// engine does not expose its retry and resilience settings, and the
/// traced replica needs them.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    pub exec_workers: usize,
    pub retry: RetryPolicy,
    pub faults: Option<FaultPlan>,
    pub resilience: Option<ResilienceConfig>,
}

/// The critical tool that fails transiently once per invocation under
/// the fault plan: CS2's disaster compiler, on roughly a fifth of the
/// interactive traffic.
pub const TRANSIENT_FAULT_TOOL: &str = "util.compile_disasters";

/// The non-critical enrichment that fails persistently under the fault
/// plan, degrading CS5 runs.
pub const PERSISTENT_FAULT_TOOL: &str = "bgp.valley_violations";

impl ServingConfig {
    /// Healthy serving: no faults, no retries, no breakers.
    pub fn healthy() -> ServingConfig {
        ServingConfig {
            exec_workers: 1,
            retry: RetryPolicy::default(),
            faults: None,
            resilience: None,
        }
    }

    /// The fault drill of the `interactive_faults` workload, seeded.
    pub fn faulted(seed: u64) -> ServingConfig {
        let plan = FaultPlan::new(seed)
            .with_background_failures(20_000)
            .with_fault(PERSISTENT_FAULT_TOOL, FaultKind::Persistent)
            .with_fault(TRANSIENT_FAULT_TOOL, FaultKind::Transient { failures: 1 });
        ServingConfig {
            exec_workers: 1,
            retry: RetryPolicy::with_retries(2),
            faults: Some(plan),
            resilience: Some(ResilienceConfig::default()),
        }
    }

    /// An engine wired this way.
    pub fn engine(&self, model: Arc<dyn LanguageModel>, registry: Registry) -> Engine {
        let mut engine = Engine::new(model, registry)
            .with_exec_workers(self.exec_workers)
            .with_retry_policy(self.retry);
        if let Some(plan) = &self.faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        if let Some(resilience) = &self.resilience {
            engine = engine.with_resilience(resilience.clone());
        }
        engine
    }
}

/// What one served query answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub digest: u64,
    /// Errored, panicked or ended `RunHealth::Failed`.
    pub failed: bool,
}

impl Outcome {
    fn of_report(report: &ExecutionReport) -> Outcome {
        Outcome {
            digest: run_digest(&report.health, &report.outputs),
            failed: matches!(report.health, RunHealth::Failed { .. }),
        }
    }

    pub(crate) fn of_error(error: &str) -> Outcome {
        Outcome { digest: error_digest(error), failed: true }
    }
}

/// Serves a query through `Session::run`, as a client would.
pub fn serve(session: &Session, query: &str, context: &QueryContext) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| session.run(query, context))) {
        Ok(Ok(run)) => Outcome::of_report(&run.report),
        Ok(Err(e)) => Outcome::of_error(&e.to_string()),
        Err(_) => Outcome::of_error("panic"),
    }
}

/// Per-query layer measurements of one traced query.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub plan: Duration,
    pub model: ModelTimes,
    pub repairs: u64,
    pub exec: Duration,
    pub tools: BTreeMap<String, ToolTime>,
    pub steps: u64,
    pub retries: u64,
    pub failed_steps: u64,
    pub poisoned_steps: u64,
    pub degraded: bool,
    pub chaos: ChaosStats,
    pub resilience: ResilienceStats,
    pub artifact_hits: u64,
    pub artifact_misses: u64,
}

/// What the replicated runtime stack produced.
pub struct TracedExec {
    pub report: ExecutionReport,
    pub tools: BTreeMap<String, ToolTime>,
    pub chaos: ChaosStats,
    pub resilience: ResilienceStats,
    pub artifact_hits: u64,
    pub artifact_misses: u64,
}

/// `Session::execute`, rebuilt from public parts: the session's runtime
/// under a [`TimingRuntime`], then the fault plan's `ChaosRuntime`, then
/// `ResilientRuntime` outermost, driven by `workflow::execute_with`. A
/// recorder on the standard runtime counts artifact-cache probes only.
pub fn execute_traced(
    config: &ServingConfig,
    session: &Session,
    workflow: &Workflow,
    query_args: &BTreeMap<String, Value>,
) -> TracedExec {
    let options = ExecOptions { workers: config.exec_workers, retry: config.retry, recorder: None };
    let registry = session.registry();
    let probes = Arc::new(Recorder::new());
    let base: StandardRuntime = session.runtime().with_recorder(Arc::clone(&probes));
    let timing = TimingRuntime::new(base);
    let (report, tools, chaos, resilience) = match (&config.faults, &config.resilience) {
        (None, None) => {
            let report = execute_with(workflow, registry, &timing, query_args, &options);
            (report, timing.times(), ChaosStats::default(), ResilienceStats::default())
        }
        (Some(plan), None) => {
            let rt = ChaosRuntime::new(timing, plan.clone());
            let report = execute_with(workflow, registry, &rt, query_args, &options);
            (report, rt.inner().times(), rt.stats(), ResilienceStats::default())
        }
        (None, Some(resilience)) => {
            let rt = ResilientRuntime::new(timing, resilience.clone());
            let report = execute_with(workflow, registry, &rt, query_args, &options);
            (report, rt.inner().times(), ChaosStats::default(), rt.stats())
        }
        (Some(plan), Some(resilience)) => {
            let rt =
                ResilientRuntime::new(ChaosRuntime::new(timing, plan.clone()), resilience.clone());
            let report = execute_with(workflow, registry, &rt, query_args, &options);
            (report, rt.inner().inner().times(), rt.inner().stats(), rt.stats())
        }
    };
    let counters = probes.metrics_snapshot();
    TracedExec {
        report,
        tools,
        chaos,
        resilience,
        artifact_hits: counters.counter("artifact_cache.hit"),
        artifact_misses: counters.counter("artifact_cache.miss"),
    }
}

/// Serves a query as `Session::run` does, timing each layer: generation
/// (with the model's share, when the engine's model is a
/// [`crate::timing::TimingModel`]) and the replicated execution stack.
pub fn serve_traced(
    config: &ServingConfig,
    session: &Session,
    query: &str,
    context: &QueryContext,
) -> (Outcome, Layers) {
    let mut layers = Layers::default();
    let traced = catch_unwind(AssertUnwindSafe(|| {
        begin_model_timing();
        let start = Instant::now();
        let generated = session.generate(query, context);
        layers.plan = start.elapsed();
        layers.model = end_model_timing();
        let solution = generated?;
        layers.repairs = solution.repair_attempts as u64;
        let start = Instant::now();
        let exec = execute_traced(config, session, &solution.workflow, &solution.query_args());
        layers.exec = start.elapsed();
        Ok::<TracedExec, arachnet::PipelineError>(exec)
    }));
    let exec = match traced {
        Ok(Ok(exec)) => exec,
        Ok(Err(e)) => return (Outcome::of_error(&e.to_string()), layers),
        Err(_) => {
            end_model_timing();
            return (Outcome::of_error("panic"), layers);
        }
    };
    let report = &exec.report;
    layers.steps = report.executed as u64;
    layers.retries = report.retries as u64;
    layers.failed_steps = report.failed as u64;
    layers.poisoned_steps = report.poisoned as u64;
    layers.degraded = report.health.is_degraded();
    layers.chaos = exec.chaos;
    layers.resilience = exec.resilience;
    layers.artifact_hits = exec.artifact_hits;
    layers.artifact_misses = exec.artifact_misses;
    let outcome = Outcome::of_report(report);
    layers.tools = exec.tools;
    (outcome, layers)
}
