//! The GKS indexing engine (paper §2.2, §2.4).
//!
//! Indexing is "a onetime activity" performed "in a single pass over the
//! data" that exploits the pre-order arrival of XML nodes. For a corpus of
//! XML documents this crate produces a [`GksIndex`] holding:
//!
//! * an **inverted index** mapping each normalized text keyword (and element
//!   tag name) to the document-ordered list of Dewey ids containing it;
//! * the **node table** — the paper's `entityHash` and `elementHash` — with
//!   each node's category flags and direct-child count (the child counts
//!   drive the potential-flow ranking of §5);
//! * the **attribute store**: for every entity node, the text of its
//!   qualifying attribute nodes together with the element path from the
//!   entity down to each attribute — the raw material of DI discovery (§2.3,
//!   §6.2);
//! * **statistics** (node-category census, depth, sizes) backing the paper's
//!   Tables 4 and 5.
//!
//! Node categorization (attribute / repeating / entity / connecting, §2.2)
//! happens at the *instance* level during the same single pass; see
//! [`categorize`] for the exact rules and the interpretation choices they
//! embody.

pub mod attrstore;
pub mod builder;
pub mod categorize;
pub mod corpus;
pub mod delta;
pub mod doctor;
pub mod error;
pub mod fasthash;
pub mod node_table;
pub mod options;
pub mod persist;
pub mod postings;
pub mod schema;
pub mod shard;
pub mod stats;

pub use attrstore::{AttrIds, AttrSource, AttrStore, AttrView, Entries};
pub use builder::GksIndex;
pub use categorize::{NodeCategory, NodeFlags};
pub use corpus::Corpus;
pub use delta::{
    audit_manifest, commit_delta, compact, index_corpus, index_directory, maintain, plan_delta,
    CommitStats, CompactStats, DeltaPlan, MaintenanceOutcome, ManifestViolation,
};
pub use doctor::Violation;
pub use error::IndexError;
pub use node_table::{NodeMeta, NodeTable};
pub use options::IndexOptions;
pub use persist::{section_sizes, IndexFormat, SectionSizes};
pub use postings::PostingStore;
pub use schema::{PathStats, SchemaSummary};
pub use shard::{
    is_manifest_file, split_corpus, DocEntry, ShardEntry, ShardKind, ShardManifest, ShardView,
    Tombstone, DEAD_DOC,
};
pub use stats::{CategoryCensus, IndexStats};
