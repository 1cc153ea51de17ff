//! Docs integrity: every relative markdown link in the repo's
//! documentation resolves to a real file. Docs rot silently — a moved
//! handbook or a renamed design doc breaks readers long before anyone
//! notices — so CI runs this as its docs-integrity step.

use std::path::{Path, PathBuf};

/// The documentation set under the link contract: the top-level docs
/// plus everything in `docs/`.
fn doc_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    files.extend(docs);
    files
}

/// Extracts the `](target)` part of every inline markdown link in
/// `text`, skipping images' byte offset handling by just matching the
/// closing-paren delimiter (no doc in this repo nests parens in URLs).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("](") {
        rest = &rest[at + 2..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].trim().to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    out
}

#[test]
fn every_relative_doc_link_resolves() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("doc has a parent dir");
        for target in link_targets(&text) {
            // External links and pure in-page anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            // A relative target may carry a fragment: strip it; the
            // file part is what must exist on disk.
            let path_part = target.split('#').next().expect("split yields one part");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no relative links found — the extractor is broken");
    assert!(broken.is_empty(), "broken relative doc links:\n  {}", broken.join("\n  "));
}

/// The handbook set is part of the repo's contract: auto-discovery
/// over `docs/` keeps links honest only for pages that exist, so pin
/// the pages other docs and CI steps rely on by name.
#[test]
fn required_handbook_pages_exist_and_are_scanned() {
    let files = doc_files();
    for page in ["PIPELINE.md", "DYNAMICS.md", "REPLAY.md", "BENCHMARKS.md", "TESTING.md"] {
        assert!(
            files.iter().any(|p| p.file_name().is_some_and(|f| f == page)),
            "docs/{page} is missing from the scanned documentation set"
        );
    }
}

/// The timeline schema block in docs/DYNAMICS.md is the one place a
/// reader learns what every `dyn*.csv` column is, so it must list
/// exactly the columns `Timeline::header()` writes, in order.
#[test]
fn dynamics_timeline_schema_block_matches_the_csv_header() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/DYNAMICS.md");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let intro = "one row in the timeline CSV, whose schema is:";
    let after = &text[text.find(intro).expect("DYNAMICS.md introduces the schema block")..];
    let open = after.find("```\n").expect("the schema block opens") + 4;
    let len = after[open..].find("```").expect("the schema block closes");
    let documented: Vec<String> = after[open..open + len]
        .split(',')
        .map(|c| c.trim().to_string())
        .collect();
    assert_eq!(documented, dynamics::Timeline::header());
}
