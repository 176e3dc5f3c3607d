//! The coordinated pipeline: QueryMind → WorkflowScout → SolutionWeaver,
//! with RegistryCurator evolving the registry between runs.

use std::collections::BTreeMap;

use llm::protocol::*;
use llm::LanguageModel;
use registry::{CapabilityEntry, DataFormat, FunctionId, Implementation, Registry};
use workflow::{check, to_source, Binding, Step, TypedValue, Workflow};

use crate::agents::{AgentError, QueryMind, RegistryCurator, SolutionWeaver, WorkflowScout};

/// An optional expert hook rewriting one intermediate artifact.
pub type AdjustHook<T> = Option<Box<dyn Fn(T) -> T + Send + Sync>>;

/// An optional expert hook reviewing the final workflow.
pub type ReviewHook = Option<Box<dyn Fn(&Workflow) -> Vec<String> + Send + Sync>>;

/// Expert-mode hooks: specialists can review and adjust outputs between
/// agents before the pipeline proceeds (§3, "expert mode").
#[derive(Default)]
pub struct ExpertHooks {
    /// Adjust scope/constraints after QueryMind.
    pub adjust_decomposition: AdjustHook<Decomposition>,
    /// Steer the architecture after WorkflowScout.
    pub adjust_architecture: AdjustHook<ArchitecturePlan>,
    /// Review the final workflow; returned notes are attached to the
    /// solution.
    pub review_workflow: ReviewHook,
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    Agent(AgentError),
    /// The generated workflow failed validation even after repair rounds.
    Validation { errors: Vec<String>, repair_attempts: usize },
    /// The request itself was invalid (empty ensemble, unknown scenario
    /// key, …) — a caller error, not an agent failure.
    Invalid(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Agent(e) => write!(f, "agent failure: {e}"),
            PipelineError::Validation { errors, repair_attempts } => write!(
                f,
                "workflow failed validation after {repair_attempts} repair attempt(s): {}",
                errors.join("; ")
            ),
            PipelineError::Invalid(message) => write!(f, "invalid request: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Agent(e) => Some(e),
            PipelineError::Validation { .. } | PipelineError::Invalid(_) => None,
        }
    }
}

impl From<AgentError> for PipelineError {
    fn from(e: AgentError) -> Self {
        PipelineError::Agent(e)
    }
}

/// A complete generated solution.
#[derive(Debug, Clone)]
pub struct GeneratedSolution {
    pub query: String,
    pub decomposition: Decomposition,
    pub architecture: ArchitecturePlan,
    /// The executable workflow program.
    pub workflow: Workflow,
    /// Rendered Python-like source (the artifact users read and run).
    pub source_code: String,
    /// Non-empty source lines — the paper's LoC metric.
    pub loc: usize,
    pub frameworks: Vec<String>,
    pub qa_measures: Vec<String>,
    /// Validation-repair rounds that were needed.
    pub repair_attempts: usize,
    /// Expert-mode review notes, if any.
    pub expert_notes: Vec<String>,
}

impl GeneratedSolution {
    /// Query-argument values for executing the workflow, resolved by
    /// QueryMind during decomposition.
    pub fn query_args(&self) -> BTreeMap<String, TypedValue> {
        self.decomposition
            .provided_args
            .iter()
            .map(|(name, a)| (name.clone(), TypedValue::new(a.format, a.value.clone())))
            .collect()
    }

    /// Summary for the curator corpus.
    pub fn summary(&self, success: bool) -> WorkflowSummary {
        WorkflowSummary {
            id: self.workflow.id.clone(),
            functions: self.workflow.steps.iter().map(|s| s.function.0.clone()).collect(),
            success,
        }
    }
}

/// Result of a curation pass.
#[derive(Debug, Clone, Default)]
pub struct CurationOutcome {
    /// Composites added to the registry.
    pub added: Vec<FunctionId>,
    /// Patterns rejected, with reasons.
    pub rejected: Vec<(String, String)>,
}

/// How many repair rounds SolutionWeaver gets when validation fails.
const MAX_REPAIRS: usize = 2;

/// The three-agent generation pipeline over an explicit registry snapshot.
///
/// This is the core behind every [`crate::Session`] generation: the
/// registry is read-only for the whole run, so any number of pipelines
/// can execute concurrently against one shared (epoch) snapshot.
pub(crate) fn run_pipeline(
    model: &dyn LanguageModel,
    registry: &Registry,
    query: &str,
    context: &QueryContext,
    variant: u64,
    hooks: &ExpertHooks,
) -> Result<GeneratedSolution, PipelineError> {
    // Stage 1: QueryMind.
    let querymind = QueryMind::new(model);
    let mut decomposition = querymind.run(query, context, registry)?;
    if let Some(hook) = &hooks.adjust_decomposition {
        decomposition = hook(decomposition);
    }

    // Stage 2: WorkflowScout.
    let scout = WorkflowScout::new(model);
    let mut architecture = scout.run(&decomposition, registry, variant)?;
    if let Some(hook) = &hooks.adjust_architecture {
        architecture = hook(architecture);
    }

    // Stage 3: SolutionWeaver, with a validation-repair loop.
    let weaver = SolutionWeaver::new(model);
    let mut feedback: Vec<String> = Vec::new();
    let mut repair_attempts = 0usize;
    let (workflow, implementation) = loop {
        let implementation =
            weaver.run(&decomposition, &architecture, registry, feedback.clone())?;
        let wf = to_workflow(query, &decomposition, &implementation, registry);
        let errors = check(&wf, registry);
        if errors.is_empty() {
            break (wf, implementation);
        }
        repair_attempts += 1;
        if repair_attempts > MAX_REPAIRS {
            return Err(PipelineError::Validation {
                errors: errors.iter().map(|e| e.to_string()).collect(),
                repair_attempts,
            });
        }
        feedback = errors.iter().map(|e| e.to_string()).collect();
    };

    let source_code = to_source(&workflow, registry);
    let loc = workflow::loc(&source_code);
    let frameworks = workflow.frameworks_used(registry);
    let expert_notes = hooks
        .review_workflow
        .as_ref()
        .map(|hook| hook(&workflow))
        .unwrap_or_default();

    Ok(GeneratedSolution {
        query: query.to_string(),
        decomposition,
        architecture,
        workflow,
        source_code,
        loc,
        frameworks,
        qa_measures: implementation.qa_measures,
        repair_attempts,
        expert_notes,
    })
}

/// Runs RegistryCurator against `registry` and registers the validated
/// composites — the core behind [`crate::Engine::curate`]'s
/// epoch-publishing curation.
pub(crate) fn run_curation(
    model: &dyn LanguageModel,
    registry: &mut Registry,
    corpus: &[WorkflowSummary],
    min_uses: usize,
) -> Result<CurationOutcome, PipelineError> {
    let curator = RegistryCurator::new(model);
    let proposal = curator.run(corpus, registry, min_uses)?;

    let mut outcome = CurationOutcome {
        rejected: proposal.rejected.clone(),
        ..Default::default()
    };
    for composite in proposal.composites {
        let sequence: Vec<FunctionId> =
            composite.sequence.iter().map(|s| FunctionId::from(s.as_str())).collect();
        // Derive the composite's signature from its parts: the inputs
        // of the whole chain that are not satisfied internally, and the
        // final function's output.
        let Some(last) = sequence.last().and_then(|id| registry.get(id)) else {
            outcome
                .rejected
                .push((composite.id.clone(), "sequence references unknown functions".into()));
            continue;
        };
        let output = last.output;
        let mut inputs: Vec<registry::Param> = Vec::new();
        let mut produced: Vec<DataFormat> = Vec::new();
        for fid in &sequence {
            let entry = registry.get(fid).expect("validated in curate()");
            for p in entry.required_inputs() {
                let satisfied_internally =
                    produced.iter().any(|f| f.compatible_with(p.format));
                let already_declared = inputs.iter().any(|q| q.name == p.name);
                if !satisfied_internally && !already_declared {
                    inputs.push(p.clone());
                }
            }
            produced.push(entry.output);
        }
        let entry = CapabilityEntry {
            id: FunctionId::from(composite.id.as_str()),
            framework: "composite".to_string(),
            capability: composite.capability.clone(),
            inputs,
            output,
            constraints: vec![format!(
                "mined from {} successful workflow(s)",
                composite.observed_uses
            )],
            tags: vec!["composite".into(), "curated".into()],
            cost: registry::CostClass::Moderate,
            reliability: 0.85,
            implementation: Implementation::Composite { sequence },
        };
        match registry.register(entry) {
            Ok(()) => outcome.added.push(FunctionId::from(composite.id.as_str())),
            Err(e) => outcome.rejected.push((composite.id.clone(), e.to_string())),
        }
    }
    Ok(outcome)
}

/// Converts an implementation plan into the executable workflow IR.
/// Steps whose registry entry is tagged `non-critical` (enrichment
/// detectors) are marked accordingly, so their failures degrade the run
/// instead of failing it.
fn to_workflow(
    query: &str,
    decomposition: &Decomposition,
    plan: &ImplementationPlan,
    registry: &Registry,
) -> Workflow {
    let mut wf = Workflow::new(&plan.workflow_id, query);
    for planned in &plan.steps {
        let mut step = Step::new(&planned.id, &planned.function).because(&planned.rationale);
        let non_critical = registry
            .get(&step.function)
            .is_some_and(|entry| entry.tags.iter().any(|t| t == "non-critical"));
        if non_critical {
            step = step.non_critical();
        }
        for (param, binding) in &planned.bindings {
            let b = match binding {
                PlannedBinding::FromStep(sid) => Binding::Step(workflow::StepId(sid.clone())),
                PlannedBinding::FromArg(name) => {
                    let format = decomposition
                        .provided_args
                        .get(name)
                        .map(|a| a.format)
                        .unwrap_or(DataFormat::Any);
                    Binding::QueryArg { name: name.clone(), format }
                }
                PlannedBinding::Const { format, value } => {
                    Binding::Const { format: *format, value: value.clone() }
                }
            };
            step = step.bind(param, b);
        }
        wf.push(step);
    }
    for out in &plan.outputs {
        wf = wf.with_output(out);
    }
    wf
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::{Engine, Session};
    use llm::DeterministicExpertModel;
    use registry::Param;

    fn mini_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "util.compile_disasters",
            "util",
            "compiles disaster specs into failure events",
            vec![
                Param::required("disasters", DataFormat::DisasterSpecs),
                Param::required("failure_probability", DataFormat::Scalar),
            ],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.event_impact",
            "xaminer",
            "processes failure events into a country impact table",
            vec![Param::required("event", DataFormat::FailureEventSpec)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "qa.verify_output",
            "qa",
            "verifies a final result",
            vec![Param::required("value", DataFormat::Any)],
            DataFormat::QaReport,
        ))
        .unwrap();
        r
    }

    fn context() -> QueryContext {
        QueryContext { cable_names: vec![], now: 864_000, horizon_days: 10 }
    }

    fn engine() -> Engine {
        let engine = Engine::new(Arc::new(DeterministicExpertModel::new()), mini_registry());
        engine.register_scenario("cs2", toolkit::scenarios::cs2_scenario());
        engine
    }

    fn session(engine: &Engine) -> Session {
        engine.session("cs2").unwrap()
    }

    const CS2_QUERY: &str = "Identify the impact of severe earthquakes and hurricanes \
                             globally assuming a 10% infra failure probability";

    #[test]
    fn pipeline_generates_valid_workflow() {
        let session = session(&engine());
        let solution = session.generate(CS2_QUERY, &context()).unwrap();
        assert!(check(&solution.workflow, session.registry()).is_empty());
        assert!(solution.loc > 50, "loc {}", solution.loc);
        assert_eq!(solution.repair_attempts, 0);
        // QA step woven in.
        assert!(solution.workflow.steps.iter().any(|s| s.function.0 == "qa.verify_output"));
        // Restraint: one analysis framework plus plumbing.
        assert!(solution.frameworks.contains(&"xaminer".to_string()));
    }

    #[test]
    fn expert_hooks_adjust_and_review() {
        let session = session(&engine());
        let hooks = ExpertHooks {
            adjust_decomposition: Some(Box::new(|mut d: Decomposition| {
                d.constraints.push("expert: restrict to coastal assets".into());
                d
            })),
            adjust_architecture: None,
            review_workflow: Some(Box::new(|wf: &Workflow| {
                vec![format!("reviewed {} steps", wf.steps.len())]
            })),
        };
        let solution = session.generate_expert(CS2_QUERY, &context(), &hooks).unwrap();
        assert!(solution
            .decomposition
            .constraints
            .iter()
            .any(|c| c.contains("expert: restrict")));
        assert_eq!(solution.expert_notes.len(), 1);
    }

    #[test]
    fn curation_grows_registry_and_rejects_duplicates() {
        let engine = engine();
        let solution = session(&engine).generate(CS2_QUERY, &context()).unwrap();
        let corpus = vec![solution.summary(true), solution.summary(true)];

        let before = engine.registry().len();
        let outcome = engine.curate(&corpus, 2).unwrap();
        assert_eq!(outcome.added.len(), 1, "rejected: {:?}", outcome.rejected);
        assert_eq!(engine.registry().len(), before + 1);

        // Second pass proposes nothing new.
        let outcome2 = engine.curate(&corpus, 2).unwrap();
        assert!(outcome2.added.is_empty());
        assert!(outcome2
            .rejected
            .iter()
            .any(|(_, why)| why.contains("already registered") || why.contains("duplicate")));
    }

    #[test]
    fn composite_signature_is_derived_correctly() {
        let engine = engine();
        let solution = session(&engine).generate(CS2_QUERY, &context()).unwrap();
        let corpus = vec![solution.summary(true), solution.summary(true)];
        let outcome = engine.curate(&corpus, 2).unwrap();
        let id = &outcome.added[0];
        let registry = engine.registry();
        let entry = registry.get(id).unwrap();
        // The composite takes the chain's external inputs and returns the
        // final output.
        assert_eq!(entry.output, DataFormat::CountryImpactTable);
        let input_names: Vec<&str> = entry.inputs.iter().map(|p| p.name.as_str()).collect();
        assert!(input_names.contains(&"disasters"));
        assert!(input_names.contains(&"failure_probability"));
        assert!(!input_names.contains(&"event"), "internally satisfied input must not leak");
    }

    #[test]
    fn generated_workflow_uses_composites_after_curation() {
        let engine = engine();
        let s1 = session(&engine).generate(CS2_QUERY, &context()).unwrap();
        let corpus = vec![s1.summary(true), s1.summary(true)];
        engine.curate(&corpus, 2).unwrap();

        // Regenerate in a fresh session: the planner can now reach the
        // target through the cheaper composite, shrinking the workflow.
        let s2 = session(&engine).generate(CS2_QUERY, &context()).unwrap();
        assert!(
            s2.workflow.steps.len() <= s1.workflow.steps.len(),
            "curated registry should not grow the plan ({} vs {})",
            s2.workflow.steps.len(),
            s1.workflow.steps.len()
        );
    }
}
