//! §7.6: a hybrid query over a merged DBLP + SIGMOD Record corpus whose
//! keywords target two different entity types at once.
//!
//! ```sh
//! cargo run --example hybrid_search
//! ```

use gks::prelude::*;
use gks_core::search::Threshold;
use gks_datagen::merge::{merge_under_root, MergePart};
use gks_datagen::{dblp, sigmod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dblp_out = dblp::generate(&dblp::Config { articles: 400, ..Default::default() }, 11);
    let sigmod_out = sigmod::generate(&sigmod::Config { issues: 20, ..Default::default() }, 12);

    // Merge under a common root, padding the SIGMOD side with two extra
    // connecting nodes (the paper increases its depth deliberately, to show
    // ranking is depth-independent).
    let merged = merge_under_root(&[
        MergePart { wrapper: "dblp", xml: &dblp_out.xml, pad_levels: 0 },
        MergePart { wrapper: "SigmodRecord", xml: &sigmod_out.xml, pad_levels: 2 },
    ]);
    let corpus = Corpus::from_named_strs([("merged", merged)])?;
    let engine = Engine::build(&corpus, IndexOptions::default())?;

    // Two DBLP co-authors + two SIGMOD co-authors.
    let dblp_pair = first_coauthor_pair(dblp_out.records.iter().map(|r| r.authors.as_slice()))
        .ok_or("no multi-author DBLP record")?;
    let sigmod_pair = first_coauthor_pair(sigmod_out.article_authors.iter().map(Vec::as_slice))
        .ok_or("no multi-author SIGMOD record")?;
    let query = Query::from_keywords([
        dblp_pair.0.clone(),
        dblp_pair.1.clone(),
        sigmod_pair.0.clone(),
        sigmod_pair.1.clone(),
    ])?;
    println!("hybrid query: {query}  (s = 2)");

    let response =
        engine.search(&query, SearchOptions { s: Threshold::Fixed(2), ..Default::default() })?;
    println!("{} hit(s):", response.hits().len());
    let mut by_type: std::collections::BTreeMap<String, usize> = Default::default();
    for hit in response.hits() {
        let label = engine.index().node_table().label_name(&hit.node).unwrap_or("?").to_string();
        *by_type.entry(label).or_default() += 1;
        println!("  {}", engine.render_hit(hit, &response));
    }
    println!("\nhits by entity type: {by_type:?}");
    println!(
        "both targeted node types are returned even though one lives two \
         connecting levels deeper — ranking depends on keyword distribution, \
         not absolute depth (paper §7.6)"
    );
    Ok(())
}

/// Finds the first record with ≥ 2 authors and returns its first two.
fn first_coauthor_pair<'a>(
    mut records: impl Iterator<Item = &'a [String]>,
) -> Option<(&'a String, &'a String)> {
    match records.find(|authors| authors.len() >= 2)? {
        [first, second, ..] => Some((first, second)),
        _ => None,
    }
}
