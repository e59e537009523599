//! One module per paper table/figure. Each `run()` returns the rendered
//! experiment output; the `experiments` binary prints them.

pub mod ablation;
pub mod analyzer;
pub mod di_quality;
pub mod feedback;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod hybrid;
pub mod lemma3;
pub mod quality;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod table7;
pub mod table8;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "table4",
    "fig8",
    "fig9",
    "fig10",
    "table5",
    "table7",
    "table8",
    "feedback",
    "hybrid",
    "lemma3",
    "ablation",
    "quality",
    "analyzer",
    "di_quality",
];

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "table1" => table1::run(),
        "table4" => table4::run(),
        "table5" => table5::run(),
        "fig8" => fig8::run(),
        "fig9" => fig9::run(),
        "fig10" => fig10::run(),
        "table7" => table7::run(),
        "table8" => table8::run(),
        "feedback" => feedback::run(),
        "hybrid" => hybrid::run(),
        "lemma3" => lemma3::run(),
        "ablation" => ablation::run(),
        "quality" => quality::run(),
        "analyzer" => analyzer::run(),
        "di_quality" => di_quality::run(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `experiments --list` prints [`ALL`]: what regenerates a paper table or
    /// figure or a quality number, and nothing `perf/` measures instead.
    #[test]
    fn list_is_exactly_the_paper_and_quality_experiments() {
        assert_eq!(
            ALL.join(" "),
            "table1 table4 fig8 fig9 fig10 table5 table7 table8 feedback hybrid lemma3 \
             ablation quality analyzer di_quality"
        );
        for gone in ["pipeline", "serving", "connections", "index-tier"] {
            assert!(run(gone).is_none(), "{gone} is superseded by perf/");
        }
    }
}
