//! # toolkit — binding ArachNet to the measurement substrates
//!
//! The registry describes *what* tools can do; this crate supplies the
//! *how*, declaring each tool once:
//!
//! * [`catalog`] — the tool table: per function, the registry signature
//!   (capability, typed inputs and output, cost, reliability, tags,
//!   constraint) and its handler, over all four measurement frameworks
//!   (Nautilus, Xaminer, BGP, traceroute) plus utility/QA functions.
//!   `standard_registry()` and `restricted_registry()` derive from it;
//! * [`runtime`] — [`StandardRuntime`], the [`workflow::ToolRuntime`]
//!   that looks each call up in the table, decodes its arguments against
//!   the declared inputs and runs the handler, with artifact caching;
//! * [`data`] — the JSON payload schemas flowing between steps;
//! * [`analysis`] — the analytical utilities the generated workflows rely
//!   on (latency anomaly detection, suspect-cable scoring, evidence
//!   correlation and synthesis, unified timelines);
//! * [`disasters`] — the global disaster-zone catalog used for what-if
//!   disaster compilation;
//! * [`scenarios`] — the standard case-study scenarios (CS1–CS4, the CS5
//!   prefix hijack and a forensic negative control).

pub mod analysis;
pub mod catalog;
pub mod data;
pub mod disasters;
pub mod metrics;
pub mod resilience;
pub mod runtime;
pub mod scenarios;

pub use catalog::{query_context, standard_registry};
pub use metrics::QueryMetrics;
pub use resilience::{
    BreakerConfig, BreakerPhase, ResilienceConfig, ResilienceStats, ResilientRuntime,
};
pub use runtime::{ArtifactStore, StandardRuntime};

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use catalog::TOOLS;
    use registry::FunctionId;
    use runtime::Args;
    use workflow::{ToolError, ToolRuntime, Value};

    #[test]
    fn tool_ids_are_unique() {
        let ids: BTreeSet<&str> = TOOLS.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), TOOLS.len());
        assert_eq!(standard_registry().len(), TOOLS.len());
    }

    #[test]
    fn every_declared_input_is_checked_before_the_handler_runs() {
        let runtime = StandardRuntime::new(scenarios::cs1_scenario());
        for tool in TOOLS {
            for (omit, &(name, _)) in tool.inputs.iter().enumerate() {
                let args: BTreeMap<String, Value> = tool
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != omit)
                    .map(|(_, &(n, f))| (n.to_string(), Value::new(f, serde_json::Value::Null)))
                    .collect();
                match runtime.invoke(&FunctionId::from(tool.id), &args) {
                    Err(ToolError::BadArgument { function, message }) => {
                        assert_eq!(function.0, tool.id);
                        assert_eq!(message, format!("missing argument {name}"), "{}", tool.id);
                    }
                    other => panic!("{} without {name}: {other:?}", tool.id),
                }
            }
        }
        let err = runtime.invoke(&FunctionId::from("nope.nothing"), &Default::default());
        assert!(matches!(err, Err(ToolError::Unbound(_))));
    }

    #[test]
    fn undeclared_positional_reads_are_bad_arguments() {
        let tool = catalog::tool(&FunctionId::from("xaminer.impact_report")).unwrap();
        let function = FunctionId::from(tool.id);
        let named = BTreeMap::from([(
            "impact".to_string(),
            Value::new(registry::DataFormat::FailureImpact, serde_json::json!({})),
        )]);
        let horizon = scenarios::cs1_scenario().horizon;
        let args = Args::decode(tool, &function, &named, horizon).unwrap();
        assert!(args.value(0).is_ok());
        for err in [args.value(1).err(), args.de::<u32>(1).err(), args.region(7).err()] {
            match err {
                Some(ToolError::BadArgument { message, .. }) => {
                    assert!(message.contains("is not declared"), "{message}")
                }
                other => panic!("expected BadArgument, got {other:?}"),
            }
        }
        // A declared slot of the wrong shape names the declared parameter.
        match args.de::<u32>(0) {
            Err(ToolError::BadArgument { message, .. }) => {
                assert!(message.starts_with("argument impact: "), "{message}")
            }
            other => panic!("expected BadArgument, got {other:?}"),
        }
    }
}
