//! Query refinement via DI — the paper's §7.4 QD1 walk-through.
//!
//! Start from a narrow query, discover through DI that one of the returned
//! co-authors dominates the response, refine the query with that name, and
//! find many more joint articles than the original query surfaced.
//!
//! ```sh
//! cargo run --example query_refinement
//! ```

use gks::prelude::*;
use gks_core::refine::suggestion_to_query;
use gks_datagen::dblp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = dblp::generate(&dblp::Config { articles: 800, ..Default::default() }, 77);
    let corpus = Corpus::from_named_strs([("dblp", out.xml.clone())])?;
    let engine = Engine::build(&corpus, IndexOptions::default())?;

    // The QD1 role: one author from a cluster; their most frequent co-author
    // is unknown to the user.
    let author = out.clusters[3][0].clone();
    let query = Query::from_keywords([author.clone()])?;
    println!("initial query: {query}");

    let response = engine.search(&query, SearchOptions::with_s(1))?;
    println!("  {} article(s) returned", response.hits().len());

    // DI over the response: co-authors, venues, years.
    let insights = engine.discover_di(&response, &DiOptions { top_m: 5 });
    println!("  DI:");
    for i in &insights {
        println!("    {}   weight={:.2} support={}", i.display(), i.weight, i.support);
    }

    // Take the top co-author insight and refine the query with it.
    let co_author = insights
        .iter()
        .find(|i| i.path.last().map(String::as_str) == Some("author"))
        .ok_or("no co-author insight")?;
    println!("\nrefining with discovered co-author: {:?}", co_author.value);

    let refined = suggestion_to_query(&[author.clone(), co_author.value.clone()])
        .ok_or("empty refined query")?;
    let refined_resp = engine.search(
        &refined,
        SearchOptions { s: gks_core::search::Threshold::All, ..Default::default() },
    )?;
    println!("refined query {refined} → {} joint article(s):", refined_resp.hits().len());
    for hit in refined_resp.hits().iter().take(10) {
        println!("  {}", engine.render_hit(hit, &refined_resp));
    }

    // Recursive DI: let the engine iterate the loop itself.
    println!("\nrecursive DI (2 rounds):");
    let rounds =
        engine.recursive_di(&query, SearchOptions::with_s(1), &DiOptions { top_m: 3 }, 2)?;
    for (r, round) in rounds.iter().enumerate() {
        println!(
            "  round {r}: query = {} → {} hit(s), insights = {:?}",
            round.query,
            round.response.hits().len(),
            round.insights.iter().map(|i| i.value.as_str()).collect::<Vec<_>>()
        );
    }
    Ok(())
}
