//! Ablation: the text pipeline (§2.4's "stop words removal and stemming").
//!
//! Four analyzer configurations are compared on index size, distinct terms,
//! postings volume, and morphological recall — whether a query in one
//! inflection (`searching`) finds text in another (`searched`).

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::SearchOptions;
use gks_datagen::Dataset;
use gks_index::{Corpus, IndexOptions};
use gks_text::AnalyzerOptions;

use crate::table::TextTable;

fn config(stem: bool, stop: bool) -> IndexOptions {
    IndexOptions { analyzer: AnalyzerOptions { remove_stopwords: stop, stem } }
}

/// Runs the experiment.
pub fn run() -> String {
    // DBLP provides the inflected title words for the morphological probes;
    // the Shakespeare plays provide prose full of stop words.
    let corpus = Corpus::from_named_strs([
        ("dblp", Dataset::Dblp.generate(3000, 2016)),
        ("plays", Dataset::Plays.generate(6, 2016)),
    ])
    .expect("corpus");

    let mut t = TextTable::new(&[
        "stemming",
        "stopwords",
        "index bytes",
        "terms",
        "postings",
        "morph. recall",
    ]);
    // The generator uses gerunds in titles ("mining", "matching", …); query
    // them with a different inflection and see if anything comes back.
    let probes = ["mined", "matches", "searches", "clusters", "optimized"];
    for (stem, stop) in [(true, true), (true, false), (false, true), (false, false)] {
        let options = config(stem, stop);
        let engine = Engine::build(&corpus, options).expect("index");
        let bytes = engine.index().to_bytes_v3().unwrap().len();
        let stats = engine.index().stats();
        let recalled = probes
            .iter()
            .filter(|p| {
                let q = Query::parse(p).expect("query");
                !engine.search(&q, SearchOptions::with_s(1)).expect("search").hits().is_empty()
            })
            .count();
        t.row(&[
            stem.to_string(),
            stop.to_string(),
            bytes.to_string(),
            stats.distinct_terms.to_string(),
            stats.total_postings.to_string(),
            format!("{recalled}/{}", probes.len()),
        ]);
    }
    format!(
        "== Ablation: analyzer pipeline (synthetic DBLP + plays) ==\n{}\n\
         expected shape: stemming collapses inflections (fewer distinct terms, full \
         morphological recall); disabling stop-word removal inflates postings without \
         adding recall for content queries.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stemming_enables_morphological_recall() {
        let xml = Dataset::Dblp.generate(800, 4);
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let stemmed = Engine::build(&corpus, config(true, true)).unwrap();
        let unstemmed = Engine::build(&corpus, config(false, true)).unwrap();
        // "mining" occurs in titles; "mined" only matches when stemming
        // folds both to "mine".
        let q = Query::parse("mined").unwrap();
        let with = stemmed.search(&q, SearchOptions::with_s(1)).unwrap();
        let without = unstemmed.search(&q, SearchOptions::with_s(1)).unwrap();
        assert!(!with.hits().is_empty());
        assert!(without.hits().is_empty());
    }

    #[test]
    fn stemming_never_grows_the_vocabulary() {
        // The synthetic pools have few inflection collisions, so the stemmed
        // vocabulary may only tie — but it must never exceed the unstemmed
        // one (stemming is a many-to-one map).
        let xml = Dataset::Dblp.generate(800, 4);
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let stemmed = Engine::build(&corpus, config(true, true)).unwrap();
        let unstemmed = Engine::build(&corpus, config(false, true)).unwrap();
        assert!(stemmed.index().stats().distinct_terms <= unstemmed.index().stats().distinct_terms);
    }

    #[test]
    fn stopword_removal_shrinks_postings() {
        // Shakespeare lines are full of "the"/"of"; removal must cut the
        // posting volume.
        let xml = Dataset::Plays.generate(4, 4);
        let corpus = Corpus::from_named_strs([("p", xml)]).unwrap();
        let with = Engine::build(&corpus, config(true, true)).unwrap();
        let without = Engine::build(&corpus, config(true, false)).unwrap();
        assert!(with.index().stats().total_postings < without.index().stats().total_postings);
    }
}
