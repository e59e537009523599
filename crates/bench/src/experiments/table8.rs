//! Table 8: the top DI discovered for each workload query at s=1 and
//! s=|Q|/2, plus the §7.4 QD1 refinement walk-through.

use gks_core::di::DiOptions;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};

use crate::table::TextTable;
use crate::workloads::table6_workloads;

/// Runs the experiment.
pub fn run() -> String {
    let di_opts = DiOptions { top_m: 2 };
    let mut t = TextTable::new(&["Query", "DI, s=1", "DI, s=|Q|/2"]);
    let mut qd1_walkthrough = String::new();

    for w in table6_workloads(2016) {
        for q in &w.queries {
            let r1 = w.engine.search(&q.query, SearchOptions::with_s(1)).expect("search");
            let d1 = w.engine.discover_di(&r1, &di_opts);
            let rh = w
                .engine
                .search(&q.query, SearchOptions { s: Threshold::HalfQuery, ..Default::default() })
                .expect("search");
            let dh = w.engine.discover_di(&rh, &di_opts);
            let fmt = |ins: &[gks_core::Insight]| {
                if ins.is_empty() {
                    "NA".to_string()
                } else {
                    ins.iter().map(|i| i.display()).collect::<Vec<_>>().join(", ")
                }
            };
            t.row(&[q.id.clone(), fmt(&d1), fmt(&dh)]);

            // §7.4 walk-through on QD1: refine the pair query with the top
            // co-author insight and compare joint-article counts.
            if q.id == "QD1" {
                if let Some(co) =
                    d1.iter().find(|i| i.path.last().map(String::as_str) == Some("author"))
                {
                    let author0 = q.query.keywords()[0].raw().to_string();
                    let refined =
                        Query::from_keywords([author0.clone(), co.value.clone()]).expect("query");
                    let joint = w
                        .engine
                        .search(&refined, SearchOptions { s: Threshold::All, ..Default::default() })
                        .expect("search");
                    qd1_walkthrough = format!(
                        "QD1 refinement walk-through (§7.4): DI suggests co-author {:?}; \
                         refined query {{{author0:?}, {:?}}} finds {} joint article(s).\n",
                        co.value,
                        co.value,
                        joint.hits().len()
                    );
                }
            }
        }
    }
    format!("== Table 8: DI discovered per query ==\n{}\n{}", t.render(), qd1_walkthrough)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn di_produced_for_most_queries_and_excludes_query_terms() {
        let mut with_di = 0usize;
        let mut total = 0usize;
        for w in table6_workloads(8) {
            for q in &w.queries {
                let r1 = w.engine.search(&q.query, SearchOptions::with_s(1)).unwrap();
                let di = w.engine.discover_di(&r1, &DiOptions::default());
                total += 1;
                if !di.is_empty() {
                    with_di += 1;
                }
                for insight in &di {
                    for kw in q.query.keywords() {
                        assert_ne!(
                            insight.value.to_lowercase(),
                            kw.raw().to_lowercase(),
                            "{} {}: DI restates a query keyword",
                            w.name,
                            q.id
                        );
                    }
                }
            }
        }
        assert!(with_di * 10 >= total * 7, "DI for {with_di}/{total} queries");
    }

    #[test]
    fn di_paths_start_at_an_entity_label() {
        for w in table6_workloads(9) {
            for q in &w.queries {
                let r1 = w.engine.search(&q.query, SearchOptions::with_s(1)).unwrap();
                for i in w.engine.discover_di(&r1, &DiOptions::default()) {
                    assert!(i.path.len() >= 2, "{}: path {:?}", q.id, i.path);
                    assert!(i.weight > 0.0);
                    assert!(i.support >= 1);
                }
            }
        }
    }
}
