//! Property-based tests on the pipeline's cross-crate invariants.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use arachnet::{DeterministicExpertModel, Engine, Session};
use llm::protocol::QueryContext;
use toolkit::{catalog, scenarios};
use workflow::check;

/// A serving session over the full catalog. Planning reads only the
/// registry and the query context, so any registered scenario will do.
fn session() -> Session {
    let engine =
        Engine::new(Arc::new(DeterministicExpertModel::new()), catalog::standard_registry());
    engine.register_scenario("cs1", scenarios::cs1_scenario());
    engine.session("cs1").expect("scenario registered")
}

/// Queries assembled from the domain vocabulary: whatever the user asks,
/// a generated workflow must always typecheck against the registry.
fn arbitrary_query() -> impl Strategy<Value = String> {
    let verbs = prop_oneof![
        Just("Identify the impact of"),
        Just("Analyze the cascading effects of"),
        Just("Determine if a submarine cable failure caused"),
        Just("Assess the resilience risk of"),
    ];
    let subjects = prop_oneof![
        Just("SeaMeWe-5 cable failure"),
        Just("AAE-1 cable failure"),
        Just("severe earthquakes globally assuming a 7% infra failure probability"),
        Just("hurricanes near coastal landing stations"),
        Just("submarine cable failures between Europe and Asia"),
        Just("a sudden increase in latency from European probes starting two days ago"),
    ];
    let scopes = prop_oneof![
        Just(" at a country level"),
        Just(" for major content providers"),
        Just(""),
    ];
    (verbs, subjects, scopes).prop_map(|(v, s, sc)| format!("{v} {s}{sc}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every successfully generated workflow passes static validation and
    /// renders to deterministic, non-trivial source.
    #[test]
    fn generated_workflows_always_typecheck(query in arbitrary_query()) {
        let registry = catalog::standard_registry();
        let context = QueryContext {
            cable_names: vec!["SeaMeWe-5".into(), "AAE-1".into(), "FALCON".into()],
            now: 10 * 86_400,
            horizon_days: 10,
        };
        let session = session();
        // Some queries may be unplannable (that is a legitimate outcome);
        // the invariant applies to every solution that IS produced.
        if let Ok(solution) = session.generate(&query, &context) {
            let errors = check(&solution.workflow, &registry);
            prop_assert!(errors.is_empty(), "query {query:?}: {errors:?}");
            prop_assert!(solution.loc > 40);
            let again = session.generate(&query, &context).expect("deterministic");
            prop_assert_eq!(solution.source_code, again.source_code);
        }
    }

    /// Conflict resolution is total over non-empty claim sets with positive
    /// reliability, and confidence is a valid probability.
    #[test]
    fn conflict_resolution_is_total(
        verdicts in proptest::collection::vec(0u8..4, 1..8),
        reliabilities in proptest::collection::vec(0.05f64..1.0, 8),
    ) {
        use arachnet::conflict::{resolve, Claim};
        let claims: Vec<Claim> = verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| Claim {
                source: format!("s{i}"),
                reliability: reliabilities[i % reliabilities.len()],
                verdict: format!("v{v}"),
            })
            .collect();
        let r = resolve(&claims).expect("non-empty positive claims resolve");
        prop_assert!(r.confidence > 0.0 && r.confidence <= 1.0);
        prop_assert_eq!(r.conflicted, claims.iter().any(|c| c.verdict != r.verdict));
    }
}

/// The registry JSON round-trip preserves every entry (serde stability of
/// the whole catalog, including curated composites).
#[test]
fn full_catalog_roundtrips_through_json() {
    let registry = catalog::standard_registry();
    let json = registry.to_json().expect("serializes");
    let back = registry::Registry::from_json(&json).expect("parses");
    assert_eq!(back.len(), registry.len());
    for entry in registry.iter() {
        let other = back.get(&entry.id).expect("entry survives");
        assert_eq!(other, entry);
    }
}

/// Query arguments resolved by QueryMind always satisfy the generated
/// workflow's declared argument set.
#[test]
fn provided_args_cover_workflow_requirements() {
    let context = QueryContext {
        cable_names: vec!["SeaMeWe-5".into()],
        now: 10 * 86_400,
        horizon_days: 10,
    };
    let solution = session()
        .generate(
            "Identify the impact at a country level due to SeaMeWe-5 cable failure",
            &context,
        )
        .expect("generation succeeds");
    let args: BTreeMap<_, _> = solution.query_args();
    for (name, _) in solution.workflow.query_args() {
        assert!(args.contains_key(&name), "unresolved query arg {name}");
    }
}
