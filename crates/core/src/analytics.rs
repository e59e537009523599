//! Analytics over GKS responses (the paper's concluding future work:
//! "extend GKS to enable analytics over raw XML data").
//!
//! A GKS response is a ranked bag of entity nodes; DI (§6.2) already mines
//! the single most relevant keywords from it. This module generalizes DI
//! into *response analytics*: group-bys and faceted value histograms over
//! the LCE hits, so a user can see — without knowing the schema — how the
//! matches distribute over entity types, and how each attribute path's
//! values distribute within the match set (every `<year>` in the response,
//! every `<journal>`, …).

use gks_index::attrstore::AttrSource;
use gks_index::fasthash::FastMap;
use gks_index::GksIndex;

use crate::search::{HitKind, Response};

/// Options for response analytics.
#[derive(Debug, Clone)]
pub struct AnalyticsOptions {
    /// Keep at most this many distinct values per facet (most frequent
    /// first).
    pub top_values: usize,
    /// Keep at most this many facets (highest coverage first).
    pub top_facets: usize,
    /// Include repeating text sources (author lists) as facets.
    pub include_repeating_text: bool,
}

impl Default for AnalyticsOptions {
    fn default() -> Self {
        AnalyticsOptions { top_values: 8, top_facets: 8, include_repeating_text: true }
    }
}

/// Hit count and rank mass for one entity type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeGroup {
    /// Entity element label.
    pub label: String,
    /// Number of LCE hits of this type.
    pub hits: usize,
    /// Sum of their potential-flow ranks.
    pub rank_mass: f64,
}

/// One value of a facet with its frequency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetValue {
    /// The attribute value as written.
    pub value: String,
    /// Number of LCE hits carrying it.
    pub count: usize,
}

/// A value histogram over one attribute path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facet {
    /// Element names from the entity down to the value (with the entity
    /// label first), e.g. `["inproceedings", "year"]`.
    pub path: Vec<String>,
    /// Hits contributing at least one value.
    pub coverage: usize,
    /// Most frequent values, descending.
    pub values: Vec<FacetValue>,
}

/// The full analytics result.
#[derive(Debug, Clone, Default)]
pub struct ResponseAnalytics {
    /// Hits grouped by entity type, by descending rank mass.
    pub by_type: Vec<TypeGroup>,
    /// Faceted value histograms, by descending coverage.
    pub facets: Vec<Facet>,
    /// Per query keyword: how many hits matched it.
    pub keyword_hit_counts: Vec<usize>,
}

/// Computes group-bys and facets over a response's LCE hits.
pub fn analyze(
    index: &GksIndex,
    response: &Response,
    options: &AnalyticsOptions,
) -> ResponseAnalytics {
    let n = response.keywords().len();
    let mut keyword_hit_counts = vec![0usize; n];
    let mut by_type: FastMap<String, TypeGroup> = FastMap::default();
    // facet key: path names; value: (per-value counts, coverage)
    let mut facets: FastMap<Vec<String>, (FastMap<String, usize>, usize)> = FastMap::default();

    for hit in response.hits() {
        for (i, count) in keyword_hit_counts.iter_mut().enumerate() {
            if hit.keyword_mask & (1 << i) != 0 {
                *count += 1;
            }
        }
        if hit.kind != HitKind::Lce {
            continue;
        }
        let label = index.node_table().label_name(&hit.node).unwrap_or("?").to_string();
        let group = by_type.entry(label.clone()).or_insert_with(|| TypeGroup {
            label: label.clone(),
            hits: 0,
            rank_mass: 0.0,
        });
        group.hits += 1;
        group.rank_mass += hit.rank;

        // Facet contributions: one per attribute path, counting each value
        // once per hit.
        let mut seen_paths: Vec<Vec<String>> = Vec::new();
        for entry in index.entries(&hit.node).iter() {
            if entry.source == AttrSource::RepeatingText && !options.include_repeating_text {
                continue;
            }
            let mut path = Vec::with_capacity(entry.path.len() + 1);
            path.push(label.clone());
            path.extend(
                entry.path.iter().map(|&l| index.node_table().labels().name(l).to_string()),
            );
            let (values, coverage) = facets.entry(path.clone()).or_default();
            *values.entry(entry.value.to_string()).or_default() += 1;
            if !seen_paths.contains(&path) {
                *coverage += 1;
                seen_paths.push(path);
            }
        }
    }

    let mut by_type: Vec<TypeGroup> = by_type.into_values().collect();
    by_type.sort_by(|a, b| {
        b.rank_mass
            .partial_cmp(&a.rank_mass)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });

    let mut facet_list: Vec<Facet> = facets
        .into_iter()
        .map(|(path, (values, coverage))| {
            let mut values: Vec<FacetValue> =
                values.into_iter().map(|(value, count)| FacetValue { value, count }).collect();
            values.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.value.cmp(&b.value)));
            values.truncate(options.top_values);
            Facet { path, coverage, values }
        })
        .collect();
    facet_list.sort_by(|a, b| b.coverage.cmp(&a.coverage).then_with(|| a.path.cmp(&b.path)));
    facet_list.truncate(options.top_facets);

    ResponseAnalytics { by_type, facets: facet_list, keyword_hit_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::search::{search, SearchOptions};
    use gks_index::{Corpus, IndexOptions};

    fn setup() -> (GksIndex, Response) {
        let xml = r#"<dblp>
            <article><title>One</title><author>Ada Alpha</author><author>Bob Beta</author>
                <year>2001</year><journal>TODS</journal></article>
            <article><title>Two</title><author>Ada Alpha</author><author>Cy Gamma</author>
                <year>2001</year><journal>VLDBJ</journal></article>
            <inproceedings><title>Three</title><author>Ada Alpha</author><author>Di Delta</author>
                <year>2003</year><booktitle>EDBT</booktitle></inproceedings>
        </dblp>"#;
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = Query::parse(r#""Ada Alpha""#).unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        (ix, r)
    }

    #[test]
    fn groups_hits_by_entity_type() {
        let (ix, r) = setup();
        let a = analyze(&ix, &r, &AnalyticsOptions::default());
        let labels: Vec<(&str, usize)> =
            a.by_type.iter().map(|g| (g.label.as_str(), g.hits)).collect();
        assert!(labels.contains(&("article", 2)), "{labels:?}");
        assert!(labels.contains(&("inproceedings", 1)), "{labels:?}");
    }

    #[test]
    fn facets_histogram_attribute_values() {
        let (ix, r) = setup();
        let a = analyze(&ix, &r, &AnalyticsOptions::default());
        let year_facet =
            a.facets.iter().find(|f| f.path == ["article", "year"]).expect("year facet");
        assert_eq!(year_facet.coverage, 2);
        assert_eq!(year_facet.values[0], FacetValue { value: "2001".into(), count: 2 });
    }

    #[test]
    fn keyword_hit_counts_match_masks() {
        let (ix, r) = setup();
        let a = analyze(&ix, &r, &AnalyticsOptions::default());
        assert_eq!(a.keyword_hit_counts, vec![3], "Ada Alpha is in all three records");
    }

    #[test]
    fn top_values_truncates() {
        let (ix, r) = setup();
        let opts = AnalyticsOptions { top_values: 1, ..Default::default() };
        let a = analyze(&ix, &r, &opts);
        assert!(a.facets.iter().all(|f| f.values.len() <= 1));
    }

    #[test]
    fn repeating_text_facets_can_be_excluded() {
        let (ix, r) = setup();
        let with = analyze(&ix, &r, &AnalyticsOptions::default());
        let without = analyze(
            &ix,
            &r,
            &AnalyticsOptions { include_repeating_text: false, ..Default::default() },
        );
        let has_author_facet =
            |a: &ResponseAnalytics| a.facets.iter().any(|f| f.path.last().unwrap() == "author");
        assert!(has_author_facet(&with));
        assert!(!has_author_facet(&without));
    }

    #[test]
    fn empty_response_yields_empty_analytics() {
        let (ix, _) = setup();
        let q = Query::parse("zzz").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        let a = analyze(&ix, &r, &AnalyticsOptions::default());
        assert!(a.by_type.is_empty());
        assert!(a.facets.is_empty());
        assert_eq!(a.keyword_hit_counts, vec![0]);
    }
}
