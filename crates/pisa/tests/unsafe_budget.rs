//! The `unsafe` budget: the compiled engine and the SoA lane buffer are
//! the only places this crate uses `unsafe`, and the number of sites in
//! each may only go down. The sharded dispatcher keeps its entry at zero
//! so it cannot grow one back unnoticed. A change that needs a new site
//! has to raise the budget here, in review, next to the CI job that runs
//! those modules under AddressSanitizer.

use std::path::Path;

/// Non-comment `unsafe` sites (blocks, `unsafe fn`, `unsafe impl`) per
/// source file. Lower an entry when a change removes sites.
const BUDGET: [(&str, usize); 3] = [("compile.rs", 13), ("phv.rs", 4), ("shard.rs", 0)];

/// Occurrences of the `unsafe` keyword outside `//` comments.
fn unsafe_sites(source: &str) -> usize {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    source
        .lines()
        .map(|line| {
            let code = line.split("//").next().unwrap_or("");
            code.match_indices("unsafe")
                .filter(|&(at, word)| {
                    let before = code[..at].chars().next_back();
                    let after = code[at + word.len()..].chars().next();
                    !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
                })
                .count()
        })
        .sum()
}

#[test]
fn unsafe_sites_stay_within_budget() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (file, budget) in BUDGET {
        let source = std::fs::read_to_string(src.join(file)).expect("source file readable");
        let sites = unsafe_sites(&source);
        assert!(
            sites <= budget,
            "{file} has {sites} `unsafe` sites, over its budget of {budget}"
        );
    }
}

#[test]
fn comments_and_identifiers_do_not_count() {
    let source = "// unsafe in a comment\n\
                  /// SAFETY: unsafe here too\n\
                  let unsafe_ptr = 1; // unsafe\n\
                  unsafe { f() }\n\
                  unsafe fn g() {}\n";
    assert_eq!(unsafe_sites(source), 2);
}
