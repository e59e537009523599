//! Index statistics backing the paper's Tables 4 and 5.

use crate::categorize::NodeCategory;
use crate::fasthash::FastMap;

/// Node counts per category — one row of the paper's Table 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCensus {
    /// Attribute nodes (AN).
    pub attribute: u64,
    /// Repeating nodes (RN).
    pub repeating: u64,
    /// Entity nodes (EN).
    pub entity: u64,
    /// Connecting nodes (CN).
    pub connecting: u64,
}

impl CategoryCensus {
    /// Adds one node of the given primary category.
    pub fn add(&mut self, cat: NodeCategory) {
        match cat {
            NodeCategory::Attribute => self.attribute += 1,
            NodeCategory::Repeating => self.repeating += 1,
            NodeCategory::Entity => self.entity += 1,
            NodeCategory::Connecting => self.connecting += 1,
        }
    }

    /// Total nodes counted.
    pub fn total(&self) -> u64 {
        self.attribute + self.repeating + self.entity + self.connecting
    }

    /// Count for one category.
    pub fn get(&self, cat: NodeCategory) -> u64 {
        match cat {
            NodeCategory::Attribute => self.attribute,
            NodeCategory::Repeating => self.repeating,
            NodeCategory::Entity => self.entity,
            NodeCategory::Connecting => self.connecting,
        }
    }

    /// Merges another census into this one.
    pub fn merge(&mut self, other: &CategoryCensus) {
        self.attribute += other.attribute;
        self.repeating += other.repeating;
        self.entity += other.entity;
        self.connecting += other.connecting;
    }
}

/// Corpus- and index-level statistics gathered during the build pass.
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Documents indexed.
    pub doc_count: u64,
    /// Total element nodes (text elements included).
    pub total_nodes: u64,
    /// Primary-category census over all nodes (Table 5).
    pub census: CategoryCensus,
    /// Census per element label (the §7.2 per-element analysis, e.g.
    /// `<authors>` vs `<articles>` connecting-node counts).
    pub per_label: FastMap<String, CategoryCensus>,
    /// Maximum node depth seen ("XML Depth" of Table 4).
    pub max_depth: u32,
    /// Raw XML bytes indexed.
    pub raw_bytes: u64,
    /// Distinct normalized terms.
    pub distinct_terms: u64,
    /// Total postings across all lists.
    pub total_postings: u64,
    /// Sum of the depths of all postings — `avg_keyword_depth` is the
    /// "average keyword depth d" the paper reports for its response-time
    /// corpora (§7.1.2: 6.7–6.9 for NASA, 3.1–3.5 for SwissProt).
    pub posting_depth_sum: u64,
    /// Wall-clock build time in milliseconds ("Index Preparation Time").
    /// Set by the build and never persisted: 0 on a loaded index.
    pub build_millis: u64,
}

impl IndexStats {
    /// Average depth of a keyword posting.
    pub fn avg_keyword_depth(&self) -> f64 {
        if self.total_postings == 0 {
            0.0
        } else {
            self.posting_depth_sum as f64 / self.total_postings as f64
        }
    }
}

impl IndexStats {
    /// Merges per-document stats (used by the parallel builder).
    pub fn merge(&mut self, other: &IndexStats) {
        self.doc_count += other.doc_count;
        self.total_nodes += other.total_nodes;
        self.census.merge(&other.census);
        for (label, census) in &other.per_label {
            self.per_label.entry(label.clone()).or_default().merge(census);
        }
        self.max_depth = self.max_depth.max(other.max_depth);
        self.raw_bytes += other.raw_bytes;
        // Term/posting counters are corpus-global; the builder refreshes
        // them after merging, so they are not summed here.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_accumulates() {
        let mut c = CategoryCensus::default();
        c.add(NodeCategory::Attribute);
        c.add(NodeCategory::Attribute);
        c.add(NodeCategory::Entity);
        assert_eq!(c.attribute, 2);
        assert_eq!(c.entity, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(NodeCategory::Repeating), 0);
    }

    #[test]
    fn census_merge() {
        let mut a = CategoryCensus { attribute: 1, repeating: 2, entity: 3, connecting: 4 };
        let b = CategoryCensus { attribute: 10, repeating: 20, entity: 30, connecting: 40 };
        a.merge(&b);
        assert_eq!(a.total(), 110);
    }

    #[test]
    fn stats_merge_keeps_max_depth_and_sums() {
        let mut a =
            IndexStats { max_depth: 3, total_nodes: 10, doc_count: 1, ..Default::default() };
        let b = IndexStats { max_depth: 7, total_nodes: 5, doc_count: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.max_depth, 7);
        assert_eq!(a.total_nodes, 15);
        assert_eq!(a.doc_count, 3);
    }
}
