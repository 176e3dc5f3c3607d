//! Determinism rules: no unordered iteration in deterministic crates,
//! no wall-clock reads, no unseeded randomness.

use super::{finding_at, FileRule, Finding, SigView};
use crate::source::SourceFile;

/// Crates whose outputs the ROADMAP pins byte-identical across runs,
/// platforms and worker counts. Unordered containers are banned there
/// outright — even an un-iterated `HashMap` invites the next editor to
/// iterate it.
///
/// The list is closed under path dependencies: the
/// `deterministic-closure` rule proves from the parsed crate graph that
/// every path dependency of a member is itself a member (or a reasoned
/// allow entry), and that each member's manifest carries the matching
/// `[package.metadata.conformance] deterministic = true` marker.
pub const DETERMINISTIC_CRATES: [&str; 9] = [
    "world",
    "scenario-forge",
    "bgp-sim",
    "workflow",
    "registry",
    "chaos",
    "campaign",
    "telemetry",
    "net-model",
];

/// `no-unordered-iteration`: `HashMap`/`HashSet` in a deterministic
/// crate. ROADMAP mandates `BTreeMap`/`BTreeSet` or sorted order.
pub struct NoUnorderedIteration;

impl FileRule for NoUnorderedIteration {
    fn id(&self) -> &'static str {
        "no-unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet are banned in deterministic crates (world, scenario-forge, \
         bgp-sim, workflow, registry, chaos, campaign, telemetry, net-model); use \
         BTreeMap/BTreeSet or sorted vectors"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !DETERMINISTIC_CRATES.contains(&file.crate_name()) {
            return;
        }
        let sig = SigView::new(file);
        for i in 0..sig.len() {
            if !sig.is_ident(i) || file.is_test_code(sig.offset(i)) {
                continue;
            }
            let name = sig.text(i);
            if name == "HashMap" || name == "HashSet" {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    format!(
                        "`{name}` in deterministic crate `{}`: iteration order is \
                         unordered; use BTreeMap/BTreeSet or a sorted vector",
                        file.crate_name()
                    ),
                ));
            }
        }
    }
}

/// `no-wall-clock`: `Instant`/`SystemTime` outside test code and
/// measurement context. Scenario expansion, world generation and
/// serving must be pure functions of their inputs; wall-clock reads are
/// hidden inputs. The bench crate *measures* wall time — its one timer
/// carries an explicit `conformance: allow` pragma.
pub struct NoWallClock;

impl FileRule for NoWallClock {
    fn id(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "std::time::Instant/SystemTime are banned outside tests; \
         deterministic code takes time as an explicit SimTime input"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let sig = SigView::new(file);
        for i in 0..sig.len() {
            if !sig.is_ident(i) || file.is_test_code(sig.offset(i)) {
                continue;
            }
            let name = sig.text(i);
            if name == "Instant" || name == "SystemTime" {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    format!(
                        "`{name}` reads the wall clock: deterministic code must take \
                         time as an explicit input (SimTime), not sample it"
                    ),
                ));
            }
        }
    }
}

/// `no-unseeded-rng`: randomness that does not flow from an explicit
/// seed. All generator randomness flows from `StdRng::seed_from_u64`.
pub struct NoUnseededRng;

/// Identifiers that always mean entropy-seeded randomness.
const UNSEEDED: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "ThreadRng"];

impl FileRule for NoUnseededRng {
    fn id(&self) -> &'static str {
        "no-unseeded-rng"
    }

    fn description(&self) -> &'static str {
        "thread_rng/from_entropy/OsRng/rand::random are banned; all randomness \
         must flow from an explicit seed (StdRng::seed_from_u64)"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let sig = SigView::new(file);
        for i in 0..sig.len() {
            if !sig.is_ident(i) || file.is_test_code(sig.offset(i)) {
                continue;
            }
            let name = sig.text(i);
            let qual_w = SigView::width(&["rand", "::"]);
            let hit = UNSEEDED.contains(&name)
                || (name == "random"
                    && i >= qual_w
                    && sig.matches(i - qual_w, &["rand", "::"]));
            if hit {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    format!(
                        "`{name}` draws entropy-seeded randomness: seed an StdRng \
                         from the scenario/world config instead"
                    ),
                ));
            }
        }
    }
}
