//! The paper's Example 2 on a synthetic DBLP: a four-author query where one
//! author never co-publishes with the others.
//!
//! An LCA-based system returns the DBLP root (useless). GKS with s=1 returns
//! every article by any of the authors, ranked so that articles shared by
//! *more* of the queried authors come first, and mines DI — the venues and
//! years that matter in the context of the query.
//!
//! ```sh
//! cargo run --release --example dblp_search
//! ```

use gks::prelude::*;
use gks_datagen::dblp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2 000 articles, clustered co-authorship.
    let out = dblp::generate(&dblp::Config { articles: 2000, ..Default::default() }, 2016);
    println!(
        "generated synthetic DBLP: {} bytes, {} records",
        out.xml.len(),
        out.records.len()
    );

    let corpus = Corpus::from_named_strs([("dblp", out.xml.clone())])?;
    let engine = Engine::build(&corpus, IndexOptions::default())?;
    let stats = engine.index().stats();
    println!(
        "indexed: {} nodes ({} entities), {} distinct terms, {} ms\n",
        stats.total_nodes, stats.census.entity, stats.distinct_terms, stats.build_millis
    );

    // Three authors from one co-author cluster + one outsider (the paper's
    // "Prithviraj Banerjee" role).
    let cluster = &out.clusters[0];
    let outsider = &out.clusters[out.clusters.len() - 1][0];
    let query = Query::from_keywords([
        cluster[0].clone(),
        cluster[1].clone(),
        cluster[2].clone(),
        outsider.clone(),
    ])?;
    println!("query Qd = {query}");

    let response = engine.search(&query, SearchOptions::with_s(1))?;
    println!(
        "GKS found {} article(s) in {} µs (|SL| = {})",
        response.hits().len(),
        response.elapsed_micros(),
        response.sl_len()
    );
    println!("top 10:");
    for hit in response.hits().iter().take(10) {
        println!("  {}", engine.render_hit(hit, &response));
    }

    // Articles by 3 queried co-authors must outrank the outsider's.
    if let Some(top) = response.hits().first() {
        println!(
            "\ntop hit matches {} of the 4 queried authors — an LCA system \
             would have returned the <dblp> root instead",
            top.keyword_count
        );
    }

    let insights = engine.discover_di(&response, &DiOptions { top_m: 6 });
    println!("\nDI (venues / years / co-authors relevant to the query):");
    for i in &insights {
        println!("  {}   weight={:.2}", i.display(), i.weight);
    }
    Ok(())
}
