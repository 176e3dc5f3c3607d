//! The seeded query pool of the interactive workloads.
//!
//! Every query instantiates one of the five case-study templates, so the
//! traffic mix is fixed by construction: per seed the pool holds one CS1
//! query per cable of the standard world, 24 CS2 queries (three disaster
//! mixes × eight failure probabilities, one from each eighth of 1–64%),
//! 21 CS3 queries (every unordered region pair, including the North
//! America, South America and Middle East pairs that hit the known
//! region-parsing defect), 10 CS4 and 8 CS5 queries over lookback days.
//! The seed picks phrasings, probabilities, lookbacks, pair order and the
//! serving order — never the stratum sizes, nor how often each phrasing
//! is used.

use llm::protocol::Intent;
use world::Scenario;

/// A case-study template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Template {
    /// Country-level impact of one cable failure.
    Cs1,
    /// What-if disaster impact at a failure probability.
    Cs2,
    /// Cascading cable failures between two regions.
    Cs3,
    /// Latency forensics: was a cable cut the cause?
    Cs4,
    /// Control-plane forensics: hijack or leak?
    Cs5,
}

impl Template {
    /// All five, in case-study order.
    pub const ALL: [Template; 5] =
        [Template::Cs1, Template::Cs2, Template::Cs3, Template::Cs4, Template::Cs5];

    /// The engine key the template's scenario is registered under.
    pub fn scenario_key(&self) -> &'static str {
        match self {
            Template::Cs1 => "cs1",
            Template::Cs2 => "cs2",
            Template::Cs3 => "cs3",
            Template::Cs4 => "cs4",
            Template::Cs5 => "cs5",
        }
    }

    /// The scenario the template's queries are asked in.
    pub fn scenario(&self) -> Scenario {
        use toolkit::scenarios;
        match self {
            Template::Cs1 => scenarios::cs1_scenario(),
            Template::Cs2 => scenarios::cs2_scenario(),
            Template::Cs3 => scenarios::cs3_scenario(),
            Template::Cs4 => scenarios::cs4_scenario(),
            Template::Cs5 => scenarios::cs5_hijack_scenario(),
        }
    }

    /// The intent every query of this template must classify to.
    pub fn intent(&self) -> Intent {
        match self {
            Template::Cs1 => Intent::CableImpact,
            Template::Cs2 => Intent::DisasterImpact,
            Template::Cs3 => Intent::CascadeAnalysis,
            Template::Cs4 => Intent::ForensicRootCause,
            Template::Cs5 => Intent::ControlPlaneForensics,
        }
    }
}

/// One pool entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolQuery {
    pub template: Template,
    pub text: String,
}

/// splitmix64: a tiny seeded generator, so the pool depends on nothing
/// but the seed.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e9b5);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `k` distinct values of `range`, in ascending order.
    fn pick_sorted(&mut self, range: std::ops::RangeInclusive<i64>, k: usize) -> Vec<i64> {
        let mut values: Vec<i64> = range.collect();
        self.shuffle(&mut values);
        values.truncate(k);
        values.sort_unstable();
        values
    }
}

const CS1_PHRASES: [&str; 3] = [
    "Identify the impact at a country level due to {cable} cable failure",
    "Assess the country-level impact of a failure of the {cable} cable",
    "Which countries would a {cable} cable failure affect, and by how much?",
];

const CS2_MIXES: [&str; 3] = ["earthquakes", "hurricanes", "earthquakes and hurricanes"];

const CS2_PHRASES: [&str; 2] = [
    "Identify the impact of severe {mix} globally assuming a {p}% infra failure probability",
    "Estimate the country impact of major {mix} worldwide at a {p}% infrastructure failure probability",
];

const CS3_PHRASES: [&str; 2] = [
    "Analyze the cascading effects of submarine cable failures between {a} and {b}",
    "What are the cascading effects of cable failures on the corridor between {a} and {b}?",
];

const CS4_PHRASES: [&str; 2] = [
    "A sudden increase in latency was observed from European probes to Asian destinations \
     starting {n} days ago. Determine if a submarine cable failure caused this, and if so, \
     identify the specific cable.",
    "Latency from Europe to Asia showed a sudden increase starting {n} days ago. Determine if \
     a submarine cable failure caused this and identify the specific cable.",
];

const CS5_PHRASES: [&str; 2] = [
    "Multiple origin ASes were observed announcing the same prefixes starting {n} days ago. \
     Determine whether a prefix hijack or a route leak caused this, and identify the \
     offending AS.",
    "Since {n} days ago, multiple origin ASes announce the same prefixes. Determine whether a \
     prefix hijack or a route leak caused this, and identify the offending AS.",
];

/// Regions by the names a user would type.
const REGIONS: [&str; 7] =
    ["Europe", "Asia", "Africa", "Oceania", "North America", "South America", "the Middle East"];

/// Lookback days as digits or words, chosen by the seed.
fn days_text(rng: &mut SplitMix, n: i64) -> String {
    let words = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        "eleven", "twelve",
    ];
    match usize::try_from(n) {
        Ok(i) if i < words.len() && rng.below(2) == 0 => words[i].to_string(),
        _ => n.to_string(),
    }
}

/// Hands out phrasings round-robin from a seeded offset, so each stratum
/// uses every phrasing equally often whatever the seed.
struct Phrasings<'a> {
    phrases: &'a [&'a str],
    next: usize,
}

impl<'a> Phrasings<'a> {
    fn new(rng: &mut SplitMix, phrases: &'a [&'a str]) -> Phrasings<'a> {
        Phrasings { phrases, next: rng.below(phrases.len()) }
    }

    fn next(&mut self) -> &'a str {
        let phrase = self.phrases[self.next % self.phrases.len()];
        self.next += 1;
        phrase
    }
}

/// The pool for `seed`: a pure function of the seed and the standard
/// world's cable names, in the seeded serving order.
pub fn build_pool(seed: u64, cable_names: &[String]) -> Vec<PoolQuery> {
    let mut rng = SplitMix::new(seed ^ 0x504f_4f4c); // "POOL"
    let mut pool = Vec::new();
    let mut push = |template: Template, text: String| pool.push(PoolQuery { template, text });

    let mut cs1 = Phrasings::new(&mut rng, &CS1_PHRASES);
    for cable in cable_names {
        push(Template::Cs1, cs1.next().replace("{cable}", cable));
    }
    // One probability from each eighth of 1–64%, so every seed spans the
    // same range.
    let probabilities: Vec<i64> = (0..8).map(|bin| 8 * bin + 1 + rng.below(8) as i64).collect();
    let mut cs2 = Phrasings::new(&mut rng, &CS2_PHRASES);
    for mix in CS2_MIXES {
        for p in &probabilities {
            push(Template::Cs2, cs2.next().replace("{mix}", mix).replace("{p}", &p.to_string()));
        }
    }
    let mut cs3 = Phrasings::new(&mut rng, &CS3_PHRASES);
    for i in 0..REGIONS.len() {
        for j in (i + 1)..REGIONS.len() {
            let (a, b) = if rng.below(2) == 0 { (i, j) } else { (j, i) };
            push(Template::Cs3, cs3.next().replace("{a}", REGIONS[a]).replace("{b}", REGIONS[b]));
        }
    }
    let mut cs4 = Phrasings::new(&mut rng, &CS4_PHRASES);
    for n in rng.pick_sorted(1..=12, 10) {
        let days = days_text(&mut rng, n);
        push(Template::Cs4, cs4.next().replace("{n}", &days));
    }
    let mut cs5 = Phrasings::new(&mut rng, &CS5_PHRASES);
    for n in rng.pick_sorted(1..=9, 8) {
        let days = days_text(&mut rng, n);
        push(Template::Cs5, cs5.next().replace("{n}", &days));
    }
    rng.shuffle(&mut pool);
    pool
}

/// Whether a CS3 query names a region the lexicon emits in a form the
/// corridor tool rejects (the known defect recorded in `NOTES.md`).
pub fn names_defective_region(query: &PoolQuery) -> bool {
    query.template == Template::Cs3
        && ["North America", "South America", "Middle East"].iter().any(|r| query.text.contains(r))
}
