//! The traced run measures the program the end-to-end run measures: the
//! replicated runtime stack reports exactly what `Session::execute`
//! reports, healthy and under the `interactive_faults` plan.

use std::sync::Arc;

use arachnet::DeterministicExpertModel;
use perfbench::pool::{build_pool, Template};
use perfbench::serving::{execute_traced, serve, serve_traced, ServingConfig};
use perfbench::timing::TimingModel;

/// A few queries of every template.
fn small_pool(cables: &[String]) -> Vec<perfbench::pool::PoolQuery> {
    let pool = build_pool(11, cables);
    Template::ALL
        .iter()
        .flat_map(|&t| pool.iter().filter(move |q| q.template == t).take(3).cloned())
        .collect()
}

fn check(config: ServingConfig) {
    let model = Arc::new(TimingModel::new(Arc::new(DeterministicExpertModel::new())));
    let engine = config.engine(model, toolkit::standard_registry());
    let mut contexts = Vec::new();
    for template in Template::ALL {
        let scenario =
            engine.register_scenario(template.scenario_key(), template.scenario()).scenario;
        let days = scenario.horizon.duration().as_seconds() / 86_400;
        contexts.push(toolkit::query_context(&scenario.world, scenario.now, days));
    }
    let pool = small_pool(&contexts[0].cable_names);
    let mut executed = 0;
    for query in &pool {
        let session = engine.session(query.template.scenario_key()).unwrap();
        let context = &contexts[query.template as usize];
        if let Ok(solution) = session.generate(&query.text, context) {
            let args = solution.query_args();
            let replica = execute_traced(&config, &session, &solution.workflow, &args);
            let direct = session.execute(&solution.workflow, &args);
            assert!(replica.report == direct, "{:?}: replica report differs", query.text);
            executed += 1;
        }
        assert_eq!(
            serve_traced(&config, &session, &query.text, context).0,
            serve(&session, &query.text, context),
            "{:?}",
            query.text
        );
    }
    assert!(executed >= 12, "most of the small pool plans");
}

#[test]
fn replica_matches_session_execute_when_healthy() {
    check(ServingConfig::healthy());
}

#[test]
fn replica_matches_session_execute_under_the_fault_plan() {
    let config = ServingConfig::faulted(5);
    check(config.clone());
    // The drill actually drills: the plan injects, retries and degrades.
    let model = Arc::new(TimingModel::new(Arc::new(DeterministicExpertModel::new())));
    let engine = config.engine(model, toolkit::standard_registry());
    let scenario = engine.register_scenario("cs5", Template::Cs5.scenario()).scenario;
    let context = toolkit::query_context(&scenario.world, scenario.now, 10);
    let session = engine.session("cs5").unwrap();
    let (outcome, layers) =
        serve_traced(&config, &session, toolkit::scenarios::CS5_QUERY, &context);
    assert!(!outcome.failed);
    assert!(layers.degraded, "the persistent valley-violations fault degrades CS5");
    assert!(layers.chaos.injected_failures > 0);
}
