//! Keyword search over the registry.
//!
//! A deliberately simple ranked retrieval: tokenize the query, score each
//! entry by weighted keyword overlap (id > tags > capability sentence),
//! return the top hits. One linear pass per query — the linear-scaling
//! property benchmarked in E5. Entry text is tokenized **once, by the
//! first search** after the registry last changed ([`EntryTokens`]); each
//! query only tokenizes itself and probes the cached sorted token sets.

use crate::entry::CapabilityEntry;
use crate::Registry;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit<'a> {
    pub entry: &'a CapabilityEntry,
    pub score: f64,
}

/// Lowercase alphanumeric tokens of `s`.
pub fn tokenize(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// Cached lowercase token sets of one entry (sorted and deduplicated, so
/// membership is a binary search). Built once, by the registry's first
/// search; rankings are identical to re-tokenizing on every score.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryTokens {
    id: Vec<String>,
    tags: Vec<String>,
    capability: Vec<String>,
}

fn sorted_tokens(mut tokens: Vec<String>) -> Vec<String> {
    tokens.sort();
    tokens.dedup();
    tokens
}

impl EntryTokens {
    /// Tokenizes an entry's searchable text.
    pub fn of(entry: &CapabilityEntry) -> EntryTokens {
        EntryTokens {
            id: sorted_tokens(tokenize(&entry.id.0)),
            tags: sorted_tokens(entry.tags.iter().flat_map(|t| tokenize(t)).collect()),
            capability: sorted_tokens(tokenize(&entry.capability)),
        }
    }
}

/// Scores cached entry tokens against pre-tokenized query terms.
fn score(tokens: &EntryTokens, terms: &[String]) -> f64 {
    if terms.is_empty() {
        return 0.0;
    }
    let mut s = 0.0;
    for term in terms {
        if tokens.id.binary_search(term).is_ok() {
            s += 3.0;
        }
        if tokens.tags.binary_search(term).is_ok() {
            s += 2.0;
        }
        if tokens.capability.binary_search(term).is_ok() {
            s += 1.0;
        }
    }
    s / terms.len() as f64
}

/// Ranked search, ties broken by function id for determinism.
pub fn search<'a>(registry: &'a Registry, query: &str, limit: usize) -> Vec<SearchHit<'a>> {
    let terms = tokenize(query);
    let mut hits: Vec<SearchHit<'a>> = registry
        .iter_with_tokens()
        .map(|(entry, tokens)| SearchHit { entry, score: score(tokens, &terms) })
        .filter(|h| h.score > 0.0)
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.entry.id.cmp(&b.entry.id))
    });
    hits.truncate(limit);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Param;
    use crate::DataFormat;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(
            CapabilityEntry::new(
                "nautilus.map_links",
                "nautilus",
                "maps IP links to submarine cables with confidence scores",
                vec![],
                DataFormat::MappingTable,
            )
            .with_tags(&["cable", "mapping", "cross-layer"]),
        )
        .unwrap();
        r.register(
            CapabilityEntry::new(
                "xaminer.process_event",
                "xaminer",
                "processes a failure event into affected links and countries",
                vec![Param::required("event", DataFormat::FailureEventSpec)],
                DataFormat::FailureImpact,
            )
            .with_tags(&["failure", "impact", "event"]),
        )
        .unwrap();
        r.register(
            CapabilityEntry::new(
                "bgp.updates",
                "bgp",
                "fetches BGP updates from collectors for a time window",
                vec![Param::required("window", DataFormat::TimeWindow)],
                DataFormat::BgpUpdates,
            )
            .with_tags(&["bgp", "routing", "updates"]),
        )
        .unwrap();
        r
    }

    #[test]
    fn relevant_entry_ranks_first() {
        let r = registry();
        let hits = r.search("map submarine cables", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].entry.id.0, "nautilus.map_links");
    }

    #[test]
    fn id_tokens_score_highest() {
        let r = registry();
        let hits = r.search("process event", 10);
        assert_eq!(hits[0].entry.id.0, "xaminer.process_event");
    }

    #[test]
    fn irrelevant_query_returns_nothing() {
        let r = registry();
        assert!(r.search("quantum chromodynamics", 10).is_empty());
        assert!(r.search("", 10).is_empty());
    }

    #[test]
    fn limit_truncates() {
        let r = registry();
        let hits = r.search("event updates failure bgp", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn tokenize_drops_punctuation_and_short_tokens() {
        assert_eq!(tokenize("IP-links, to: cables!"), vec!["ip", "links", "to", "cables"]);
        assert_eq!(tokenize("a b c"), Vec::<String>::new());
    }

    fn ranking(hits: &[SearchHit<'_>]) -> Vec<(String, f64)> {
        hits.iter().map(|h| (h.entry.id.0.clone(), h.score)).collect()
    }

    /// A loaded registry starts with an empty token cache; its first
    /// search must rank exactly like the registry it was saved from.
    #[test]
    fn reloaded_registry_searches_identically() {
        let r = registry();
        let back = Registry::from_json(&r.to_json().unwrap()).unwrap();
        for q in ["map submarine cables", "process event", "event updates failure bgp", "bgp"] {
            assert_eq!(ranking(&back.search(q, 10)), ranking(&r.search(q, 10)), "query {q:?}");
        }
    }

    /// `register` after a search must invalidate the token cache, or the
    /// new entry would be scored against stale (misaligned) token sets.
    #[test]
    fn register_after_search_finds_the_new_entry() {
        let mut r = registry();
        assert!(r.search("quasar probe", 10).is_empty());
        // Sorts first, so a stale cache would pair it with another
        // entry's tokens rather than merely dropping it.
        r.register(CapabilityEntry::new(
            "aaa.quasar_probe",
            "aaa",
            "probes quasars",
            vec![],
            DataFormat::Text,
        ))
        .unwrap();
        let hits = r.search("quasar probe", 10);
        assert_eq!(ranking(&hits), vec![("aaa.quasar_probe".to_string(), 3.0)]);
        assert_eq!(r.search("map submarine cables", 1)[0].entry.id.0, "nautilus.map_links");
    }

    /// The lazy token cache must rank exactly like re-tokenizing
    /// every entry per query (the seed behaviour).
    #[test]
    fn cached_scores_match_retokenizing() {
        fn uncached_score(entry: &CapabilityEntry, terms: &[String]) -> f64 {
            if terms.is_empty() {
                return 0.0;
            }
            let id_tokens = tokenize(&entry.id.0);
            let tag_tokens: Vec<String> = entry.tags.iter().flat_map(|t| tokenize(t)).collect();
            let cap_tokens = tokenize(&entry.capability);
            let mut s = 0.0;
            for term in terms {
                if id_tokens.contains(term) {
                    s += 3.0;
                }
                if tag_tokens.contains(term) {
                    s += 2.0;
                }
                if cap_tokens.contains(term) {
                    s += 1.0;
                }
            }
            s / terms.len() as f64
        }

        let r = registry();
        let queries = [
            "map submarine cables",
            "process event",
            "bgp updates window",
            "failure impact cross-layer",
            "quantum chromodynamics",
            "",
            "cable cable cable",
        ];
        for q in queries {
            let terms = tokenize(q);
            for (entry, tokens) in r.iter_with_tokens() {
                assert_eq!(
                    score(tokens, &terms),
                    uncached_score(entry, &terms),
                    "entry {} query {q:?}",
                    entry.id
                );
            }
        }
    }
}
