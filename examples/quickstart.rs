//! Quickstart: index a small XML document, run a GKS search, inspect the
//! ranked response and the discovered insights.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gks::prelude::*;
use gks_core::search::Threshold;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The university document of the paper's Figure 2(a).
    let xml = r#"<Dept>
        <Dept_Name>CS</Dept_Name>
        <Area>
            <Name>Databases</Name>
            <Courses>
                <Course><Name>Data Mining</Name><Students>
                    <Student>Karen</Student><Student>Mike</Student><Student>Peter</Student>
                </Students></Course>
                <Course><Name>Algorithms</Name><Students>
                    <Student>Karen</Student><Student>John</Student><Student>Julie</Student>
                </Students></Course>
                <Course><Name>AI</Name><Students>
                    <Student>Karen</Student><Student>Mike</Student><Student>Serena</Student>
                </Students></Course>
            </Courses>
        </Area>
    </Dept>"#;

    // 1. Build the index (one streaming pass: categorization + inverted
    //    index + entity hashes).
    let corpus = Corpus::from_named_strs([("university", xml)])?;
    let engine = Engine::build(&corpus, IndexOptions::default())?;

    // 2. The paper's Example 3: an "imperfect" query — no single course has
    //    all these students, and LCA techniques would answer with a useless
    //    common ancestor. GKS returns every course with ≥ 2 of the keywords.
    let query = Query::parse("student karen mike john harry")?;
    let response =
        engine.search(&query, SearchOptions { s: Threshold::Fixed(2), ..Default::default() })?;

    println!("query: {query}   (s = {}, |SL| = {})", response.s(), response.sl_len());
    println!("{} hit(s):", response.hits().len());
    for hit in response.hits() {
        println!("  {}", engine.render_hit(hit, &response));
    }

    // 3. Deeper Analytical Insights: the course names give the keywords
    //    their context (<Course: Name: Data Mining> …).
    let insights = engine.discover_di(&response, &DiOptions { top_m: 3 });
    println!("\ndeeper analytical insights:");
    for i in &insights {
        println!("  {}   weight={:.2} support={}", i.display(), i.weight, i.support);
    }

    // 4. Refinement: how the query splits over the data, and what matched
    //    nothing at all.
    let refinement = engine.refine(&response, &insights);
    println!("\nrefinement:");
    println!("  sub-queries: {:?}", refinement.sub_queries);
    println!("  unmatched:   {:?}", refinement.unmatched);
    Ok(())
}
