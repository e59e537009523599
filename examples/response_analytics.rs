//! Response analytics (the paper's "analytics over raw XML data" future
//! work): run a broad s=1 query, then slice the answer set — hits by entity
//! type, value facets per attribute path, and the Figure 2(b)-style XML
//! chunk of the top hit.
//!
//! ```sh
//! cargo run --release --example response_analytics
//! ```

use gks::prelude::*;
use gks_datagen::{dblp, sigmod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-dataset corpus, so the type group-by has something to group.
    let d = dblp::generate(&dblp::Config { articles: 800, ..Default::default() }, 31);
    let s = sigmod::generate(&sigmod::Config { issues: 30, ..Default::default() }, 32);
    let corpus = Corpus::from_named_strs([("dblp", d.xml.clone()), ("sigmod", s.xml)])?;
    let engine = Engine::build(&corpus, IndexOptions::default())?;

    // Query a common title word — matches across both datasets and types.
    let query = Query::parse("keyword search")?;
    let resp = engine.search(&query, SearchOptions::with_s(1))?;
    println!("query: {query} → {} hit(s)\n", resp.hits().len());

    let analytics = engine.analyze(&resp);
    println!("hits by entity type:");
    for g in &analytics.by_type {
        println!("  {:<16} {:>4} hit(s)   rank mass {:.2}", g.label, g.hits, g.rank_mass);
    }

    println!("\nfacets (value histograms across the answer set):");
    for f in analytics.facets.iter().take(5) {
        println!("  {} (in {} hits):", f.path.join("/"), f.coverage);
        for v in f.values.iter().take(4) {
            println!("    {:<28} ×{}", v.value, v.count);
        }
    }

    println!("\nper-keyword hit counts: {:?}", analytics.keyword_hit_counts);

    if let Some(top) = resp.hits().first() {
        println!("\ntop hit as an XML chunk (paper Figure 2(b) shape):");
        println!("{}", engine.render_xml_chunk(top)?);
    }
    Ok(())
}
