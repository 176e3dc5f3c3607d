//! # conformance — workspace static analysis for determinism invariants
//!
//! Every layer of this reproduction stakes correctness on invariants
//! the dynamic suites can only spot-check: bit-identical output at any
//! worker count, pure-function scenario expansion, panic-free serving
//! paths, and dense/reference routing engines that move in lockstep.
//! This crate *proves the source obeys the rules* instead of hoping the
//! 1/2/8-worker suites happened to catch a violation.
//!
//! The engine is self-contained: a hand-rolled lexer ([`lexer`]), a
//! brace-matched item tree over it ([`syntax`]), a file scanner
//! ([`source`]), the crate-dependency graph parsed from every
//! `Cargo.toml` ([`deps`]), inline allow pragmas ([`pragma`]) and a rule
//! framework ([`rules`]). CI gates on the binary, which fails on any
//! finding — reasoned pragmas are the only suppression:
//!
//! ```text
//! cargo run -p conformance -- --json conformance_report.json
//! ```
//!
//! There is one scan path, [`scan`]: loading (read, lex, parse) and the
//! per-file rules are sharded across one `std::thread::scope` worker per
//! CPU, each result landing in its file's own path-order slot, so the
//! result is the same at any worker count.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub mod deps;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod source;
pub mod syntax;

pub use rules::{all_rules, FileRule, Finding, Rule, RuleInfo, Sink};
pub use source::SourceFile;

/// The lexed workspace rules run over.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<Arc<SourceFile>>,
    /// The crate-dependency DAG parsed from the workspace manifests
    /// (`None` when the root has no `Cargo.toml` — fixture workspaces
    /// assembled from strings).
    pub graph: Option<deps::CrateGraph>,
}

impl Workspace {
    /// Loads and lexes every scannable `.rs` file under `root`, and
    /// parses the crate graph from the manifests.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let rels = source::collect_files(root)?;
        let files = in_path_order(&rels, workers(), |rel| SourceFile::load(root, rel))
            .into_iter()
            .map(|file| file.map(Arc::new))
            .collect::<std::io::Result<_>>()?;
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            graph: deps::CrateGraph::load(root),
        })
    }

    /// Looks a file up by workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path).map(|f| f.as_ref())
    }
}

/// The result of running every rule over a workspace.
pub struct Scan {
    pub files_scanned: usize,
    /// Findings that survived pragma filtering.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline allow pragma.
    pub allowed: Vec<Finding>,
    /// The crate graph the `deterministic-closure` rule ran over
    /// (reported in the JSON artifact's `deps` section).
    pub graph: Option<deps::CrateGraph>,
}

/// Runs every active rule (plus the pragma-hygiene checks) over the
/// workspace at `root`.
pub fn scan(root: &Path) -> std::io::Result<Scan> {
    Ok(scan_workspace(&Workspace::load(root)?))
}

/// [`scan`] over an already-loaded workspace (the fixture tests
/// assemble workspaces from strings): the per-file rules sharded in
/// path order, then the workspace rules, pragma filtering, pragma
/// hygiene (syntax + unused) and deterministic ordering.
pub fn scan_workspace(ws: &Workspace) -> Scan {
    let file_findings = in_path_order(&ws.files, workers(), |file| check_file(file)).concat();
    let mut sink = Sink { findings: file_findings, used_allows: Vec::new() };
    for rule in rules::workspace_rules() {
        rule.check(ws, &mut sink);
    }
    let Sink { findings: raw, used_allows } = sink;

    // Pragma filtering. Every pragma that suppresses a finding — or was
    // consumed inside a rule — is "used"; the rest have rotted.
    let mut used: BTreeSet<(String, String, u32)> = used_allows.into_iter().collect();
    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for finding in raw {
        let suppressed = finding.rule != rules::PRAGMA_SYNTAX
            && ws
                .file(&finding.file)
                .is_some_and(|f| f.allowed(finding.rule, finding.line));
        if suppressed {
            used.insert((finding.file.clone(), finding.rule.to_string(), finding.line));
            allowed.push(finding);
        } else {
            findings.push(finding);
        }
    }

    // Malformed pragmas are findings too — a suppression that silently
    // fails to parse must not silently suppress nothing.
    for file in &ws.files {
        for err in &file.pragma_errors {
            findings.push(Finding {
                rule: rules::PRAGMA_SYNTAX,
                file: file.rel_path.clone(),
                line: err.line,
                message: err.message.clone(),
                snippet: file.line_text(err.line).to_string(),
            });
        }
        // A well-formed pragma that suppresses nothing is a finding of
        // its own: the pragma set is shrink-only.
        // (Neither pragma-syntax nor unused-pragma findings can be
        // pragma-allowed — they are emitted after filtering.)
        for a in &file.allows {
            let key = (file.rel_path.clone(), a.rule.clone(), a.target_line);
            if !used.contains(&key) {
                findings.push(Finding {
                    rule: rules::UNUSED_PRAGMA,
                    file: file.rel_path.clone(),
                    line: a.line,
                    message: format!(
                        "`allow({})` suppresses no finding: the violation it \
                         acknowledged is gone — delete the pragma (pragmas are \
                         shrink-only)",
                        a.rule
                    ),
                    snippet: file.line_text(a.line).to_string(),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    allowed.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    Scan {
        files_scanned: ws.files.len(),
        findings,
        allowed,
        graph: ws.graph.clone(),
    }
}

/// Runs every per-file rule over one parsed file.
fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in rules::file_rules() {
        rule.check_file(file, &mut out);
    }
    out
}

/// One scan worker per available CPU.
fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to `width` scoped workers, the caller
/// among them. Workers claim items one at a time from a shared cursor
/// and write each result into that item's own slot, so the output is in
/// input order — the same as a serial map — at any width, and a worker
/// the OS preempts holds back no precomputed share of the work.
fn in_path_order<T: Sync, U: Send + Sync>(
    items: &[T],
    width: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<U>> = items.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(item) = items.get(i) else { break };
        // Each index is claimed once, so its slot is still empty.
        let _ = slots[i].set(f(item));
    };
    std::thread::scope(|s| {
        for _ in 1..width.min(items.len()) {
            s.spawn(work);
        }
        work();
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("every slot claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_keeps_input_order_at_any_width() {
        let items: Vec<u32> = (0..37).collect();
        let serial: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for width in [0, 1, 2, 8, 64] {
            assert_eq!(in_path_order(&items, width, |x| x * 3), serial, "width {width}");
        }
        assert!(in_path_order(&[] as &[u32], 8, |x| *x).is_empty());
    }

    #[test]
    fn workspace_load_and_file_rules_match_at_1_2_8_workers() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let rels = source::collect_files(root).expect("collects");
        let scanned = |width: usize| -> Vec<(String, Vec<Finding>)> {
            let files = in_path_order(&rels, width, |rel| {
                SourceFile::load(root, rel).expect("file loads")
            });
            in_path_order(&files, width, |file| (file.rel_path.clone(), check_file(file)))
        };
        let one = scanned(1);
        assert_eq!(one.len(), rels.len());
        assert!(one.iter().map(|(rel, _)| rel).eq(rels.iter()), "path order");
        for width in [2, 8] {
            assert_eq!(scanned(width), one, "per-file results differ at {width} workers");
        }
    }
}
