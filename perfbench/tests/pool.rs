//! The interactive query pool is a pure function of the seed, and every
//! query classifies to its template's intent.

use llm::lexicon::{classify_intent, extract_entities};
use perfbench::pool::{build_pool, names_defective_region, Template};

fn cable_names() -> Vec<String> {
    toolkit::scenarios::standard_world().cables.iter().map(|c| c.name.clone()).collect()
}

#[test]
fn pool_is_a_pure_function_of_the_seed() {
    let cables = cable_names();
    assert_eq!(build_pool(7, &cables), build_pool(7, &cables));
    assert_ne!(build_pool(7, &cables), build_pool(8, &cables));
}

#[test]
fn strata_have_fixed_sizes_at_every_seed() {
    let cables = cable_names();
    for seed in [1, 2, 42, 1_000_003] {
        let pool = build_pool(seed, &cables);
        let count = |t: Template| pool.iter().filter(|q| q.template == t).count();
        assert_eq!(count(Template::Cs1), cables.len(), "seed {seed}");
        assert_eq!(count(Template::Cs2), 24, "seed {seed}");
        assert_eq!(count(Template::Cs3), 21, "seed {seed}");
        assert_eq!(count(Template::Cs4), 10, "seed {seed}");
        assert_eq!(count(Template::Cs5), 8, "seed {seed}");
        // 15 of the 21 region pairs name North America, South America or
        // the Middle East.
        assert_eq!(pool.iter().filter(|q| names_defective_region(q)).count(), 15);
        let mut texts: Vec<&str> = pool.iter().map(|q| q.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), pool.len(), "seed {seed}: queries are distinct");
    }
}

#[test]
fn every_query_classifies_to_its_template_intent() {
    let cables = cable_names();
    for seed in [1, 2, 3, 42] {
        for query in build_pool(seed, &cables) {
            let entities = extract_entities(&query.text, &cables);
            assert_eq!(
                classify_intent(&query.text, &entities),
                query.template.intent(),
                "seed {seed}: {:?}",
                query.text
            );
        }
    }
}
