//! Schema-level structural summary (the paper's stated future work).
//!
//! §2.2: "XML nodes are categorized at the instance level. … However, if a
//! `<Course>` node had just one student in its sub-tree, that instance would
//! have been stored as 'Connecting node' in the index. GKS can be easily
//! extended to take into account the XML schema to categorize the nodes.
//! This is part of our future work."
//!
//! This module implements that extension: a DataGuide-style summary that
//! aggregates every node instance under its *label path* (the element names
//! from the document root down to the node). Per path it records the
//! instance count, the instance-level category census, and child-count
//! statistics. [`SchemaSummary::harmonized_census`] then re-categorizes every
//! instance by its path's *dominant* category — so the single-author
//! `<article>`s that fell to CN at the instance level are counted as
//! entities, because the article *type* is an entity type.

use crate::builder::GksIndex;
use crate::categorize::NodeCategory;
use crate::fasthash::FastMap;
use crate::stats::CategoryCensus;

/// Aggregate statistics for one label path.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    /// Number of node instances with this label path.
    pub instances: u64,
    /// Instance-level category census.
    pub census: CategoryCensus,
    /// Sum of direct-child counts (for the average fan-out).
    pub total_children: u64,
    /// Maximum direct-child count seen.
    pub max_children: u32,
}

impl PathStats {
    /// The category most instances of this path fall into (ties broken in
    /// EN > RN > AN > CN order, favouring the more structured reading).
    pub fn dominant_category(&self) -> NodeCategory {
        let candidates = [
            (self.census.entity, NodeCategory::Entity),
            (self.census.repeating, NodeCategory::Repeating),
            (self.census.attribute, NodeCategory::Attribute),
            (self.census.connecting, NodeCategory::Connecting),
        ];
        // `max_by_key` keeps the *last* maximum, so iterate in reverse to
        // favour the earlier (more structured) category on ties, as
        // documented above. The default is unreachable: the array is
        // non-empty by construction.
        candidates
            .iter()
            .rev()
            .max_by_key(|(count, _)| *count)
            .map(|(_, cat)| *cat)
            .unwrap_or(NodeCategory::Connecting)
    }

    /// Average fan-out of instances.
    pub fn avg_children(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total_children as f64 / self.instances as f64
        }
    }
}

/// The structural summary: label path → aggregated statistics.
#[derive(Debug, Default)]
pub struct SchemaSummary {
    paths: FastMap<Vec<u32>, PathStats>,
    /// Label names, indexed by label id (copied from the index's interner).
    labels: Vec<String>,
}

impl SchemaSummary {
    /// Builds the summary from a finished index in one pass over the node
    /// table: the rows are in pre-order, so a row's label path is the open
    /// path cut to its depth plus its own label.
    pub fn from_index(index: &GksIndex) -> SchemaSummary {
        let table = index.node_table();
        let mut paths: FastMap<Vec<u32>, PathStats> = FastMap::default();
        let mut path_buf: Vec<u32> = Vec::new();
        for (depth, meta) in table.rows() {
            path_buf.truncate(depth as usize);
            path_buf.push(meta.label);
            let stats = paths.entry(path_buf.clone()).or_default();
            stats.instances += 1;
            stats.census.add(meta.flags.primary());
            stats.total_children += u64::from(meta.child_count);
            stats.max_children = stats.max_children.max(meta.child_count);
        }
        let labels = table.labels().names().to_vec();
        SchemaSummary { paths, labels }
    }

    /// Number of distinct label paths (the "schema size").
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Stats for one label path given as element names.
    pub fn get(&self, names: &[&str]) -> Option<&PathStats> {
        let ids: Option<Vec<u32>> = names
            .iter()
            .map(|n| self.labels.iter().position(|l| l == n).map(|i| i as u32))
            .collect();
        self.paths.get(&ids?)
    }

    /// Iterates `(path names, stats)` pairs, sorted by path for stable
    /// output.
    pub fn iter_sorted(&self) -> Vec<(Vec<&str>, &PathStats)> {
        let mut out: Vec<(Vec<&str>, &PathStats)> = self
            .paths
            .iter()
            .map(|(ids, stats)| {
                (ids.iter().map(|&i| self.labels[i as usize].as_str()).collect(), stats)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The schema-level census: every instance re-categorized as its path's
    /// dominant category. Compare with the instance-level census of
    /// [`crate::stats::IndexStats::census`] — the difference is exactly the
    /// irregular instances (single-author articles, one-student courses).
    pub fn harmonized_census(&self) -> CategoryCensus {
        let mut census = CategoryCensus::default();
        for stats in self.paths.values() {
            let dominant = stats.dominant_category();
            for _ in 0..stats.instances {
                census.add(dominant);
            }
        }
        census
    }

    /// Paths whose dominant category is Entity — the corpus's *entity
    /// types* (`/dblp/article`, `/mondial/country`, …).
    pub fn entity_paths(&self) -> Vec<Vec<&str>> {
        self.iter_sorted()
            .into_iter()
            .filter(|(_, s)| s.dominant_category() == NodeCategory::Entity)
            .map(|(p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::options::IndexOptions;

    /// Articles: two multi-author (EN) + one single-author (CN at instance
    /// level) — the §2.2 future-work scenario.
    const XML: &str = r#"<dblp>
        <article><title>A</title><author>X One</author><author>Y Two</author></article>
        <article><title>B</title><author>X One</author><author>Z Three</author></article>
        <article><title>C</title><author>W Solo</author></article>
    </dblp>"#;

    fn summary() -> SchemaSummary {
        let corpus = Corpus::from_named_strs([("d", XML)]).unwrap();
        let index = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        SchemaSummary::from_index(&index)
    }

    #[test]
    fn paths_aggregate_instances() {
        let s = summary();
        let article = s.get(&["dblp", "article"]).expect("article path");
        assert_eq!(article.instances, 3);
        assert_eq!(article.census.entity, 2, "two multi-author articles");
        assert_eq!(article.census.connecting, 1, "one single-author article");
        assert!(article.avg_children() > 2.0);
        let author = s.get(&["dblp", "article", "author"]).expect("author path");
        assert_eq!(author.instances, 5);
    }

    #[test]
    fn dominant_category_promotes_irregular_instances() {
        let s = summary();
        let article = s.get(&["dblp", "article"]).unwrap();
        assert_eq!(article.dominant_category(), NodeCategory::Entity);
        // Harmonized census counts all three articles as entities.
        let harmonized = s.harmonized_census();
        assert_eq!(harmonized.entity, 3);
        assert_eq!(harmonized.connecting, 1, "only the dblp root stays CN");
    }

    #[test]
    fn entity_paths_lists_entity_types() {
        let s = summary();
        let paths = s.entity_paths();
        assert_eq!(paths, vec![vec!["dblp", "article"]]);
    }

    #[test]
    fn unknown_paths_are_absent() {
        let s = summary();
        assert!(s.get(&["nope"]).is_none());
        assert!(s.get(&["dblp", "nope"]).is_none());
        assert!(!s.is_empty());
        assert!(s.len() >= 4, "dblp, article, title, author");
    }
}
