//! Timing wrappers around the program's public seams.
//!
//! [`TimingModel`] wraps the [`LanguageModel`] handed to `Engine::new`;
//! [`TimingRuntime`] wraps a session's `StandardRuntime` at the bottom of
//! the replicated runtime stack. Neither changes what it wraps: calls
//! and results pass through untouched, and only wall time is recorded.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use llm::{Completion, LanguageModel, LlmError, Prompt};
use registry::FunctionId;
use workflow::exec::{InvokeContext, ToolError, ToolRuntime, Value};

/// Model time and calls per agent task (`Prompt::task` up to the dot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelTimes {
    pub by_agent: BTreeMap<String, (u64, Duration)>,
}

impl ModelTimes {
    pub fn calls(&self) -> u64 {
        self.by_agent.values().map(|(calls, _)| calls).sum()
    }

    pub fn total(&self) -> Duration {
        self.by_agent.values().map(|(_, time)| *time).sum()
    }
}

thread_local! {
    /// The calling thread's model-time accumulator, present only while
    /// that thread serves a traced query.
    static MODEL_TIMES: RefCell<Option<ModelTimes>> = const { RefCell::new(None) };
}

/// Starts accumulating this thread's model time (agents call the model
/// synchronously on the thread that runs `Session::generate`).
pub fn begin_model_timing() {
    MODEL_TIMES.with(|t| *t.borrow_mut() = Some(ModelTimes::default()));
}

/// Stops accumulating and returns what this thread's model calls took.
pub fn end_model_timing() -> ModelTimes {
    MODEL_TIMES.with(|t| t.borrow_mut().take()).unwrap_or_default()
}

/// A pass-through model that times completions on threads that asked
/// for it, and optionally stamps the start of every query (its first
/// agent call) so per-query wall time can be read off serving loops the
/// benchmark does not own.
pub struct TimingModel {
    inner: Arc<dyn LanguageModel>,
    query_marks: Option<Mutex<Vec<(ThreadId, Instant)>>>,
}

/// The task tag of the first agent call of every query.
const FIRST_TASK: &str = "querymind.decompose";

impl TimingModel {
    pub fn new(inner: Arc<dyn LanguageModel>) -> TimingModel {
        TimingModel { inner, query_marks: None }
    }

    /// Also stamp each query's first agent call with its thread and time.
    pub fn with_query_marks(mut self) -> TimingModel {
        self.query_marks = Some(Mutex::new(Vec::new()));
        self
    }

    /// The stamps so far, grouped by thread in call order.
    pub fn take_query_marks(&self) -> HashMap<ThreadId, Vec<Instant>> {
        let mut by_thread: HashMap<ThreadId, Vec<Instant>> = HashMap::new();
        if let Some(marks) = &self.query_marks {
            let marks = std::mem::take(&mut *marks.lock().expect("query marks lock poisoned"));
            for (thread, at) in marks {
                by_thread.entry(thread).or_default().push(at);
            }
        }
        by_thread
    }
}

impl LanguageModel for TimingModel {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        if let Some(marks) = &self.query_marks {
            if prompt.task == FIRST_TASK {
                let mark = (std::thread::current().id(), Instant::now());
                marks.lock().expect("query marks lock poisoned").push(mark);
            }
        }
        let timed = MODEL_TIMES.with(|t| t.borrow().is_some());
        if !timed {
            return self.inner.complete(prompt);
        }
        let start = Instant::now();
        let result = self.inner.complete(prompt);
        let elapsed = start.elapsed();
        let agent = prompt.task.split('.').next().unwrap_or_default().to_string();
        MODEL_TIMES.with(|t| {
            if let Some(times) = t.borrow_mut().as_mut() {
                let slot = times.by_agent.entry(agent).or_default();
                slot.0 += 1;
                slot.1 += elapsed;
            }
        });
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Calls and wall time of one tool function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ToolTime {
    pub calls: u64,
    pub time: Duration,
}

/// A pass-through runtime that times every invocation per function.
pub struct TimingRuntime<R> {
    inner: R,
    times: Mutex<BTreeMap<String, ToolTime>>,
}

impl<R: ToolRuntime> TimingRuntime<R> {
    pub fn new(inner: R) -> TimingRuntime<R> {
        TimingRuntime { inner, times: Mutex::new(BTreeMap::new()) }
    }

    /// Per-function calls and time so far.
    pub fn times(&self) -> BTreeMap<String, ToolTime> {
        self.times.lock().expect("tool times lock poisoned").clone()
    }

    fn timed(
        &self,
        function: &FunctionId,
        call: impl FnOnce() -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let start = Instant::now();
        let result = call();
        let elapsed = start.elapsed();
        let mut times = self.times.lock().expect("tool times lock poisoned");
        let slot = times.entry(function.0.clone()).or_default();
        slot.calls += 1;
        slot.time += elapsed;
        result
    }
}

impl<R: ToolRuntime> ToolRuntime for TimingRuntime<R> {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.timed(function, || self.inner.invoke(function, args))
    }

    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.timed(function, || self.inner.invoke_with(ctx, function, args))
    }
}
