//! Table 4: data size, index size, XML depth, index preparation time per
//! dataset — and the claim that "index preparation time increases linearly
//! with the data size".

use std::time::Instant;

use gks_datagen::Dataset;
use gks_index::{Corpus, GksIndex, IndexOptions};

use crate::table::TextTable;

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    }
}

/// Scales chosen to keep the paper's *relative* dataset ordering (SIGMOD
/// smallest … DBLP largest) while staying laptop-friendly.
pub fn scales() -> [(Dataset, usize); 7] {
    [
        (Dataset::SigmodRecord, 40),
        (Dataset::Mondial, 120),
        (Dataset::Plays, 12),
        (Dataset::TreeBank, 600),
        (Dataset::SwissProt, 1500),
        (Dataset::ProteinSequence, 4000),
        (Dataset::Dblp, 25_000),
    ]
}

/// Runs the experiment.
pub fn run() -> String {
    let mut t = TextTable::new(&[
        "Data Set",
        "Data Size",
        "Index Size",
        "XML Depth",
        "Prep Time",
        "Entities",
    ]);
    let dir = std::env::temp_dir().join("gks-table4");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let mut linear_check = String::new();
    for (ds, scale) in scales() {
        let xml = ds.generate(scale, 2016);
        let corpus = Corpus::from_named_strs([(ds.name(), xml)]).expect("corpus");
        let start = Instant::now();
        let index = GksIndex::build(&corpus, IndexOptions::default()).expect("index");
        let build = start.elapsed();
        let path = dir.join(format!("{}.gksix", ds.name().replace(' ', "_")));
        let index_size = index.save(&path).expect("save");
        std::fs::remove_file(&path).ok();
        t.row(&[
            ds.name().to_string(),
            human(corpus.total_bytes() as u64),
            human(index_size),
            index.stats().max_depth.to_string(),
            format!("{:.2}s", build.as_secs_f64()),
            index.stats().census.entity.to_string(),
        ]);
    }

    // Linearity: DBLP at 1×, 2×, 4× scale.
    let mut base_time = 0.0;
    let mut base_bytes = 0u64;
    for (i, factor) in [1usize, 2, 4].into_iter().enumerate() {
        let xml = Dataset::Dblp.generate(6000 * factor, 7);
        let corpus = Corpus::from_named_strs([("dblp", xml)]).expect("corpus");
        let start = Instant::now();
        let _ = GksIndex::build(&corpus, IndexOptions::default()).expect("index");
        let secs = start.elapsed().as_secs_f64();
        if i == 0 {
            base_time = secs;
            base_bytes = corpus.total_bytes() as u64;
        }
        linear_check.push_str(&format!(
            "  {}x data ({}) -> {:.2}s ({:.2}x base time)\n",
            factor,
            human(corpus.total_bytes() as u64),
            secs,
            secs / base_time
        ));
        let _ = base_bytes;
    }

    format!(
        "== Table 4: index size and preparation time ==\n{}\n\
         linearity check (DBLP, paper: \"index preparation time increases linearly\"):\n{}",
        t.render(),
        linear_check
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_size_comparable_to_data_size() {
        // Table 4's key property: the index is no larger than the raw data
        // (0.8–1.0× in the paper).
        let xml = Dataset::Dblp.generate(2000, 3);
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        let index = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let bytes = index.to_bytes_v3().unwrap().len() as f64;
        let raw = corpus.total_bytes() as f64;
        assert!(bytes < raw * 1.0, "index {bytes} vs raw {raw}");
        assert!(bytes > raw * 0.2, "index {bytes} vs raw {raw}");
    }
}
