//! Natural-language query analysis: the entity extraction and intent
//! classification a measurement expert performs when reading a question.
//!
//! Deliberately rule-based and deterministic. The rules encode the same
//! domain vocabulary the paper's prompts teach the LLM: cable systems,
//! regions, disaster types, probabilities, relative time expressions, and
//! the verbs that distinguish impact assessment from cascade analysis from
//! forensic causation.

use crate::protocol::{DisasterEntity, Entities, Intent};

/// Lowercases and keeps alphanumerics/including hyphens for matching.
fn normalize(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// Extracts entities from a query given the known cable names.
pub fn extract_entities(query: &str, cable_names: &[String]) -> Entities {
    let q = normalize(query);
    let mut e = Entities::default();

    // Cable systems: match known names case-insensitively.
    for name in cable_names {
        if q.contains(&normalize(name)) {
            e.cables.push(name.clone());
        }
    }

    // Regions (continent vocabulary, including adjectival forms).
    for (needle, region) in [
        ("europe", "Europe"),
        ("asia", "Asia"),
        ("africa", "Africa"),
        ("north america", "NorthAmerica"),
        ("south america", "SouthAmerica"),
        ("oceania", "Oceania"),
        ("middle east", "MiddleEast"),
    ] {
        if q.contains(needle) {
            e.regions.push(region.to_string());
        }
    }

    // Countries by English name.
    for info in net_model_countries() {
        if q.contains(&normalize(&info.0)) {
            e.countries.push(info.1);
        }
    }

    // Disasters.
    for kind in ["earthquake", "hurricane"] {
        if q.contains(kind) {
            let qualifier = ["severe", "major", "global", "globally"]
                .iter()
                .find(|w| q.contains(**w))
                .map(|w| w.to_string())
                .unwrap_or_default();
            e.disasters.push(DisasterEntity { kind: kind.to_string(), qualifier });
        }
    }

    e.probability = extract_percentage(&q);
    e.lookback_days = extract_lookback_days(&q);

    // Aggregation level.
    for (needle, level) in [
        ("country level", "country"),
        ("country-level", "country"),
        ("per country", "country"),
        ("as level", "as"),
        ("as-level", "as"),
        ("link level", "link"),
    ] {
        if q.contains(needle) {
            e.target_level = Some(level.to_string());
            break;
        }
    }

    e
}

/// `(english name, ISO code)` pairs from the country table.
fn net_model_countries() -> Vec<(String, String)> {
    net_model::country::all_countries()
        .into_iter()
        .map(|c| (c.name.to_string(), c.code.code().to_string()))
        .collect()
}

/// Finds the first "N%" in the query.
pub fn extract_percentage(q: &str) -> Option<f64> {
    let bytes = q.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'%' {
            // Scan digits (and one dot) backwards.
            let mut start = i;
            while start > 0
                && (bytes[start - 1].is_ascii_digit() || bytes[start - 1] == b'.')
            {
                start -= 1;
            }
            if start < i {
                if let Ok(v) = q[start..i].parse::<f64>() {
                    return Some(v / 100.0);
                }
            }
        }
    }
    None
}

/// Parses relative lookbacks: "three days ago", "last 5 days", "2 weeks".
pub fn extract_lookback_days(q: &str) -> Option<i64> {
    let words: Vec<&str> = q
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    for (i, w) in words.iter().enumerate() {
        let unit_scale = match *w {
            "day" | "days" => Some(1),
            "week" | "weeks" => Some(7),
            _ => None,
        };
        if let Some(scale) = unit_scale {
            if i > 0 {
                if let Some(n) = word_to_number(words[i - 1]) {
                    return Some(n.saturating_mul(scale));
                }
            }
        }
    }
    None
}

/// English number words and digits up to twenty.
pub fn word_to_number(w: &str) -> Option<i64> {
    if let Ok(n) = w.parse::<i64>() {
        return Some(n);
    }
    let n = match w {
        "one" => 1,
        "two" => 2,
        "three" => 3,
        "four" => 4,
        "five" => 5,
        "six" => 6,
        "seven" => 7,
        "eight" => 8,
        "nine" => 9,
        "ten" => 10,
        "eleven" => 11,
        "twelve" => 12,
        "fourteen" => 14,
        "twenty" => 20,
        _ => return None,
    };
    Some(n)
}

/// Classifies the query intent from its verbs and entities — the first
/// judgment an expert makes.
pub fn classify_intent(query: &str, entities: &Entities) -> Intent {
    let q = normalize(query);

    if q.contains("cascad") {
        return Intent::CascadeAnalysis;
    }
    // Control-plane vocabulary wins over the generic forensic verbs: a
    // hijack question usually also asks what "caused" the anomaly.
    let control_plane_nouns =
        ["hijack", "route leak", "leaked route", "moas", "multiple origin", "bogus origin"];
    if control_plane_nouns.iter().any(|n| q.contains(n)) {
        return Intent::ControlPlaneForensics;
    }
    let forensic_verbs = ["caused", "cause", "root cause", "determine if", "why", "identify the specific"];
    let anomaly_nouns = ["latency", "anomaly", "increase", "degradation", "slow"];
    if forensic_verbs.iter().any(|v| q.contains(v))
        && anomaly_nouns.iter().any(|n| q.contains(n))
    {
        return Intent::ForensicRootCause;
    }
    if !entities.disasters.is_empty() {
        return Intent::DisasterImpact;
    }
    if (q.contains("impact") || q.contains("affect") || q.contains("effect"))
        && !entities.cables.is_empty()
    {
        return Intent::CableImpact;
    }
    if q.contains("risk") || q.contains("resilien") || q.contains("depend") {
        return Intent::RiskAssessment;
    }
    if q.contains("impact") || q.contains("affect") {
        return Intent::CableImpact;
    }
    Intent::Generic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cables() -> Vec<String> {
        vec!["SeaMeWe-5".to_string(), "AAE-1".to_string(), "FALCON".to_string()]
    }

    #[test]
    fn cs1_query_extraction() {
        let q = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
        let e = extract_entities(q, &cables());
        assert_eq!(e.cables, vec!["SeaMeWe-5"]);
        assert_eq!(e.target_level.as_deref(), Some("country"));
        assert_eq!(classify_intent(q, &e), Intent::CableImpact);
    }

    #[test]
    fn cs2_query_extraction() {
        let q = "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability";
        let e = extract_entities(q, &cables());
        assert_eq!(e.disasters.len(), 2);
        assert_eq!(e.probability, Some(0.10));
        assert_eq!(classify_intent(q, &e), Intent::DisasterImpact);
    }

    #[test]
    fn cs3_query_extraction() {
        let q = "Analyze the cascading effects of submarine cable failures between Europe and Asia";
        let e = extract_entities(q, &cables());
        assert!(e.regions.contains(&"Europe".to_string()));
        assert!(e.regions.contains(&"Asia".to_string()));
        assert_eq!(classify_intent(q, &e), Intent::CascadeAnalysis);
    }

    #[test]
    fn cs4_query_extraction() {
        let q = "A sudden increase in latency was observed from European probes to Asian \
                 destinations starting three days ago. Determine if a submarine cable failure \
                 caused this, and if so, identify the specific cable.";
        let e = extract_entities(q, &cables());
        assert_eq!(e.lookback_days, Some(3));
        assert!(e.regions.contains(&"Europe".to_string()));
        assert_eq!(classify_intent(q, &e), Intent::ForensicRootCause);
    }

    #[test]
    fn percentage_variants() {
        assert_eq!(extract_percentage("assume 10% failure"), Some(0.10));
        assert_eq!(extract_percentage("at 2.5% rate"), Some(0.025));
        assert_eq!(extract_percentage("no percentage here"), None);
    }

    #[test]
    fn lookback_variants() {
        assert_eq!(extract_lookback_days("starting three days ago"), Some(3));
        assert_eq!(extract_lookback_days("over the last 2 weeks"), Some(14));
        assert_eq!(extract_lookback_days("past ten days"), Some(10));
        assert_eq!(extract_lookback_days("recently"), None);
        // Absurd lookbacks saturate instead of overflowing.
        assert_eq!(
            extract_lookback_days("over the last 2000000000000000000 weeks"),
            Some(i64::MAX)
        );
        assert_eq!(
            extract_lookback_days("starting 3000000000000000000 days ago"),
            Some(3_000_000_000_000_000_000)
        );
    }

    #[test]
    fn risk_intent() {
        let q = "How resilient is Singapore to cable failures?";
        let e = extract_entities(q, &cables());
        assert_eq!(e.countries, vec!["SG"]);
        assert_eq!(classify_intent(q, &e), Intent::RiskAssessment);
    }

    #[test]
    fn generic_fallback() {
        let q = "Show me traceroute paths";
        let e = extract_entities(q, &cables());
        assert_eq!(classify_intent(q, &e), Intent::Generic);
    }
}
