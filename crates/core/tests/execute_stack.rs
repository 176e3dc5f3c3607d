//! `Session::execute` serves through one fixed runtime stack: the
//! standard runtime, then `ChaosRuntime` when the engine has a fault
//! plan, then `ResilientRuntime` outermost when it has resilience wiring.
//! These tests pin it against that stack built by hand from public parts,
//! for all four (fault plan, resilience) combinations with a recorder
//! attached: the report, the trace and the metrics must be byte-identical.

use std::sync::Arc;

use arachnet::{
    BreakerConfig, ChaosRuntime, DeterministicExpertModel, Engine, FaultKind, FaultPlan, Recorder,
    ResilienceConfig, ResilientRuntime, RetryPolicy, Session,
};
use toolkit::{catalog, scenarios};
use workflow::{execute_with, ExecOptions, ExecutionReport, ToolRuntime, Value, Workflow};

const WORKERS: usize = 2;

fn retry() -> RetryPolicy {
    RetryPolicy::with_retries(2)
}

/// A valley-detector outage outlasting the retry budget.
fn plan() -> FaultPlan {
    FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Transient { failures: 10 })
}

/// A breaker that trips on the outage and sheds the next call.
fn resilience() -> ResilienceConfig {
    ResilienceConfig::new(BreakerConfig { trip_after: 2, cooldown_invocations: 1 })
}

fn engine(plan: Option<FaultPlan>, resilience: Option<ResilienceConfig>) -> Engine {
    let mut engine =
        Engine::new(Arc::new(DeterministicExpertModel::new()), catalog::standard_registry())
            .with_exec_workers(WORKERS)
            .with_retry_policy(retry());
    if let Some(plan) = plan {
        engine = engine.with_fault_plan(plan);
    }
    if let Some(config) = resilience {
        engine = engine.with_resilience(config);
    }
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    engine
}

/// The stack spelled out per combination, over `session`'s standard
/// runtime (which carries the session's recorder).
fn execute_by_hand(
    session: &Session,
    recorder: &Arc<Recorder>,
    plan: Option<&FaultPlan>,
    resilience: Option<&ResilienceConfig>,
    workflow: &Workflow,
    args: &std::collections::BTreeMap<String, Value>,
) -> ExecutionReport {
    let options =
        ExecOptions { workers: WORKERS, retry: retry(), recorder: Some(Arc::clone(recorder)) };
    let run = |runtime: &dyn ToolRuntime| {
        execute_with(workflow, session.registry(), runtime, args, &options)
    };
    let standard = session.runtime();
    match (plan, resilience) {
        (None, None) => run(&standard),
        (Some(plan), None) => {
            run(&ChaosRuntime::new(standard, plan.clone()).with_recorder(Arc::clone(recorder)))
        }
        (None, Some(config)) => {
            run(&ResilientRuntime::new(standard, config.clone())
                .with_recorder(Arc::clone(recorder)))
        }
        (Some(plan), Some(config)) => {
            let chaos =
                ChaosRuntime::new(standard, plan.clone()).with_recorder(Arc::clone(recorder));
            run(&ResilientRuntime::new(chaos, config.clone()).with_recorder(Arc::clone(recorder)))
        }
    }
}

fn check(plan: Option<FaultPlan>, resilience: Option<ResilienceConfig>) {
    let engine = engine(plan.clone(), resilience.clone());
    let session = engine.session("cs5").expect("cs5 registered");
    let scenario = session.scenario();
    let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
    let context = catalog::query_context(&scenario.world, scenario.now, horizon_days);
    let solution = session.generate(scenarios::CS5_QUERY, &context).expect("cs5 plans");
    let args = solution.query_args();

    // Warm the scenario's and the world's artifact stores with a healthy,
    // unrecorded run, so both recorded runs below see the same cache state.
    workflow::execute(&solution.workflow, session.registry(), &session.runtime(), &args);

    let served = Arc::new(Recorder::new());
    let report = engine
        .session("cs5")
        .unwrap()
        .with_recorder(Arc::clone(&served))
        .execute(&solution.workflow, &args);

    let built = Arc::new(Recorder::new());
    let session = engine.session("cs5").unwrap().with_recorder(Arc::clone(&built));
    let expected = execute_by_hand(
        &session,
        &built,
        plan.as_ref(),
        resilience.as_ref(),
        &solution.workflow,
        &args,
    );

    assert_eq!(report, expected);
    assert_eq!(served.trace_json(), built.trace_json());
    assert_eq!(served.metrics_snapshot(), built.metrics_snapshot());

    // The plan injects and degrades the run, and under it the breakers
    // trip. Without faults the breakers have nothing to act on.
    let metrics = served.metrics_snapshot();
    assert_eq!(metrics.counter("events.fault_injected") > 0, plan.is_some());
    if plan.is_some() {
        assert!(report.health.is_degraded(), "health: {:?}", report.health);
    }
    if plan.is_some() && resilience.is_some() {
        assert!(metrics.counter("events.breaker_transition") > 0);
    }
}

#[test]
fn healthy_stack_matches_the_standard_runtime() {
    check(None, None);
}

#[test]
fn fault_plan_stack_matches_chaos_over_standard() {
    check(Some(plan()), None);
}

#[test]
fn resilience_stack_matches_breakers_over_standard() {
    check(None, Some(resilience()));
}

#[test]
fn full_stack_matches_breakers_over_chaos_over_standard() {
    check(Some(plan()), Some(resilience()));
}
