//! Docs integrity: every relative markdown link in the repo's
//! documentation resolves to a real file, and so does every repo path
//! the docs cite in backticks; every crate path and type name they
//! cite names something the sources define. Docs rot silently — a
//! moved handbook, a renamed design doc or a deleted crate breaks
//! readers long before anyone notices — so CI runs this as its
//! docs-integrity step.

use std::collections::{BTreeMap, BTreeSet};
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

/// Roots of the repo paths the docs cite in backticks.
const PATH_ROOTS: [&str; 6] = ["crates/", "results/", "docs/", "tests/", "perfbench/", "vendored/"];

/// The contents of every inline code span in `text`. A prose span may
/// wrap onto the next line. Unlabelled and `text` fences (DESIGN.md's
/// workspace tree is one) are read one line at a time; code fences
/// (`rust`, `sh`, `bash`, `json`) are skipped.
fn code_spans(text: &str) -> Vec<String> {
    let spans = |s: &str| s.split('`').skip(1).step_by(2).map(str::to_string).collect::<Vec<_>>();
    let mut prose = String::new();
    let mut out = Vec::new();
    let mut fence: Option<&str> = None;
    for line in text.lines() {
        if let Some(info) = line.trim_start().strip_prefix("```") {
            fence = if fence.is_some() { None } else { Some(info.trim()) };
        } else {
            match fence {
                None => {
                    prose.push_str(line);
                    prose.push('\n');
                }
                Some("" | "text") => out.extend(spans(line)),
                Some(_) => {}
            }
        }
    }
    out.extend(spans(&prose));
    out
}

/// The first word of every inline code span in `text` that starts
/// with one of [`PATH_ROOTS`].
fn cited_paths(text: &str) -> Vec<String> {
    code_spans(text)
        .iter()
        .filter_map(|span| span.split_whitespace().next())
        .filter(|word| PATH_ROOTS.iter().any(|r| word.starts_with(r)))
        .map(str::to_string)
        .collect()
}

/// Whether a cited path exists under `root`. For a glob such as
/// `crates/*/tests/`, the directory above its first `*` must exist.
fn cited_path_exists(root: &Path, path: &str) -> bool {
    let literal = match path.find('*') {
        Some(star) => &path[..path[..star].rfind('/').map_or(0, |slash| slash + 1)],
        None => path,
    };
    root.join(literal).exists()
}

/// Every backticked repo path in the docs (`crates/…`, `results/…`,
/// …) exists, so a deleted crate or artifact cannot stay cited.
/// ROADMAP.md is left out: it names files that are planned, not built.
#[test]
fn every_backticked_repo_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for file in doc_files().into_iter().filter(|f| !f.ends_with("ROADMAP.md")) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for path in cited_paths(&text) {
            checked += 1;
            if !cited_path_exists(root, &path) {
                missing.push(format!("{} -> {path}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no backticked repo paths found — the extractor is broken");
    assert!(missing.is_empty(), "docs cite missing repo paths:\n  {}", missing.join("\n  "));
}

/// The workspace crates as `(import name, directory)`, read from the
/// root manifest's `[workspace.dependencies]` path entries, so a crate
/// added there is covered without editing this test.
fn workspace_crates(root: &Path) -> Vec<(String, PathBuf)> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read Cargo.toml");
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| {
            let (key, rest) = l.split_once(" = ")?;
            let dir = rest.split("path = \"").nth(1)?.split('"').next()?;
            dir.starts_with("crates/").then(|| (key.trim().replace('-', "_"), root.join(dir)))
        })
        .collect()
}

/// Every identifier word in the `.rs` files under `dir`, recursively.
fn source_words(dir: &Path, words: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("readable source entry").path();
        if path.is_dir() {
            source_words(&path, words);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            words.extend(
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty())
                    .map(str::to_string),
            );
        }
    }
}

/// Every `a::b::c` path inside the inline code spans of `text`.
fn cited_rust_paths(text: &str) -> Vec<String> {
    code_spans(text)
        .iter()
        .flat_map(|span| span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':')))
        .filter(|token| token.contains("::"))
        .map(str::to_string)
        .collect()
}

/// Every backticked `crate::…::name` path in the docs whose first
/// segment is a workspace crate names something that crate's `src/`
/// still spells: its last segment appears there as a word. This is a
/// cheap name check, not name resolution — it cannot tell which module
/// holds the word — but it catches a cited function or type that was
/// renamed or deleted, or never existed.
#[test]
fn every_backticked_crate_path_names_a_word_of_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = workspace_crates(root);
    assert!(crates.len() > 10, "too few workspace crates parsed: {crates:?}");
    let mut words: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (name, dir) in &crates {
        source_words(&dir.join("src"), words.entry(name).or_default());
    }
    let mut stale = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for path in cited_rust_paths(&text) {
            let segments: Vec<&str> = path.split("::").collect();
            let (Some(known), Some(&last)) = (words.get(segments[0]), segments.last()) else {
                continue;
            };
            if last.is_empty() {
                continue;
            }
            checked += 1;
            if !known.contains(last) {
                stale.push(format!("{} -> {path}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no backticked crate paths found — the extractor is broken");
    assert!(
        stale.is_empty(),
        "docs cite names their crate does not have:\n  {}",
        stale.join("\n  ")
    );
}

/// Names the docs and comments cite that no workspace source defines:
/// std types and traits, the `Self` of an `impl`, and JavaScript's
/// `Date`.
const FOREIGN_TYPES: [&str; 12] = [
    "Arc", "BTreeMap", "Date", "DefaultHasher", "Display", "Err", "HashMap", "HashSet",
    "Iterator", "Mutex", "RandomState", "Self",
];

/// Splits Rust source into identifier and single-punctuation tokens,
/// dropping comments, string and char literals (whose braces would
/// otherwise confuse the enum-body walk below).
fn rust_tokens(src: &str) -> Vec<String> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                i += 1;
            }
            i += 2;
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c == '\'' {
            // A char literal ('x', '\'', '\u{..}'); otherwise a lifetime.
            let escaped = chars.get(i + 1) == Some(&'\\');
            let body = i + if escaped { 3 } else { 2 };
            match chars.get(body..).and_then(|r| r.iter().take(8).position(|&d| d == '\'')) {
                Some(k) if escaped || k == 0 => i = body + k + 1,
                _ => i += 1,
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else {
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
            i += 1;
        }
    }
    out
}

/// Every struct, enum, union, trait, type alias and enum variant name
/// defined in the `.rs` files under `dir`, recursively, into `names`,
/// and every identifier of their code (comments and literals left
/// out) into `idents`.
fn defined_type_names(dir: &Path, names: &mut BTreeSet<String>, idents: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("readable source entry").path();
        if path.is_dir() {
            defined_type_names(&path, names, idents);
            continue;
        }
        if !path.extension().is_some_and(|e| e == "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let toks = rust_tokens(&text);
        let ident = |t: &&String| t.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        idents.extend(toks.iter().filter(ident).cloned());
        for (i, tok) in toks.iter().enumerate() {
            if !["struct", "enum", "union", "trait", "type"].contains(&tok.as_str()) {
                continue;
            }
            let Some(name) = toks.get(i + 1) else { continue };
            names.insert(name.clone());
            if tok != "enum" {
                continue;
            }
            // Variants: identifiers at brace depth 1 of the enum body
            // that open the body or follow a comma or an attribute.
            let Some(open) = toks[i..].iter().position(|t| t == "{" || t == ";") else { continue };
            let mut depth = 0i32;
            for j in i + open..toks.len() {
                match toks[j].as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    t if depth == 1
                        && t.starts_with(|c: char| c.is_ascii_uppercase())
                        && ["{", ",", "]"].contains(&toks[j - 1].as_str()) =>
                    {
                        names.insert(t.to_string());
                    }
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            }
        }
    }
}

/// The inline code spans of the `//`, `///` and `//!` comments of the
/// `.rs` files under `dir`, recursively, each with its file. A run of
/// comment lines is read as one text, so a span may wrap onto the next
/// comment line but never past a line of code.
fn comment_spans(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("readable source entry").path();
        if path.is_dir() {
            comment_spans(&path, out);
            continue;
        }
        if !path.extension().is_some_and(|e| e == "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let mut block = String::new();
        for line in text.lines().chain([""]) {
            if let Some(comment) = line.trim_start().strip_prefix("//") {
                block.push_str(comment.trim_start_matches(['/', '!']));
                block.push('\n');
            } else if !block.is_empty() {
                out.extend(code_spans(&block).into_iter().map(|s| (path.clone(), s)));
                block.clear();
            }
        }
    }
}

/// The leading name of an inline code span that cites a type: a
/// CamelCase identifier, alone (`Type`) or qualified (`Type::name`).
fn cited_type(span: &str) -> Option<&str> {
    let span = span.trim();
    let name = span.split("::").next()?;
    let camel = name.starts_with(|c: char| c.is_ascii_uppercase())
        && name.chars().all(|c| c.is_ascii_alphanumeric())
        && name.chars().any(|c| c.is_ascii_lowercase());
    (camel && (span == name || span[name.len()..].starts_with("::"))).then_some(name)
}

/// Every type the docs cite in backticks, bare (`Type`) or qualified
/// (`Type::member`), is defined somewhere in the repo's Rust sources or
/// is a std (or JavaScript) name of [`FOREIGN_TYPES`], and a qualified
/// citation's `member` is an identifier of that code (a comment does
/// not count), so a deleted or renamed type, method or variant cannot
/// stay cited. The qualified citations in the comments of the crates'
/// sources are held to the same check. Like the crate-path check, the
/// member test is a name check, not name resolution.
/// ROADMAP.md is left out: it names types that are planned or gone on
/// purpose.
#[test]
fn every_backticked_type_name_is_defined() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defined: BTreeSet<String> = FOREIGN_TYPES.iter().map(|s| s.to_string()).collect();
    let mut idents = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "vendored", "perfbench/src"] {
        defined_type_names(&root.join(dir), &mut defined, &mut idents);
    }
    assert!(defined.contains("DynamicsEngine") && defined.contains("SiteDown"), "parser broken");
    let mut cited: Vec<(PathBuf, String)> = Vec::new();
    for file in doc_files().into_iter().filter(|f| !f.ends_with("ROADMAP.md")) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        cited.extend(code_spans(&text).into_iter().map(|s| (file.clone(), s)));
    }
    let from_docs = cited.len();
    for (_, dir) in workspace_crates(root) {
        comment_spans(&dir.join("src"), &mut cited);
    }
    let mut unknown = Vec::new();
    let (mut checked, mut members, mut comment_members) = (0usize, 0usize, 0usize);
    for (i, (file, span)) in cited.iter().enumerate() {
        let Some(name) = cited_type(span) else { continue };
        let member = span.trim()[name.len()..]
            .strip_prefix("::")
            .and_then(|rest| rest.split(|c: char| !(c.is_alphanumeric() || c == '_')).next())
            .filter(|m| !m.is_empty());
        if i >= from_docs {
            // Comments are checked for their qualified citations only.
            if member.is_none() {
                continue;
            }
            comment_members += 1;
        } else {
            checked += 1;
            members += usize::from(member.is_some());
        }
        if !defined.contains(name) || member.is_some_and(|m| !idents.contains(m)) {
            unknown.push(format!("{} -> {}", file.display(), span.trim()));
        }
    }
    assert!(checked > 100, "only {checked} backticked type names found — the extractor is broken");
    assert!(members > 40, "only {members} backticked `Type::member` spans found");
    assert!(comment_members > 100, "only {comment_members} `Type::member` spans in comments");
    assert!(
        unknown.is_empty(),
        "docs cite undefined types or members:\n  {}",
        unknown.join("\n  ")
    );
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

/// The event table in docs/DYNAMICS.md §1 is where scenario authors
/// learn the event vocabulary, so its first column must name exactly
/// the `RoutingEvent` variants, and the sentence introducing it must
/// count them.
#[test]
fn dynamics_event_table_matches_routing_event() {
    use dynamics::RoutingEvent as E;
    use topology::{Asn, SiteId};
    let (site, asn) = (SiteId(0), Asn(1));
    let all = [
        E::SiteDown(site),
        E::SiteUp(site),
        E::PeeringDown(asn),
        E::PeeringUp(asn),
        E::DrainStart { site, stage_ms: 1.0, stages: 1, hold_ms: 1.0 },
        E::DrainStage { site, gen: 0 },
        E::DrainEnd { site, gen: 0 },
        E::RingPromote { to: 0 },
        E::RingDemote { to: 0 },
        E::DemandScale { center: geo::GeoPoint::new(0.0, 0.0), radius_km: 1.0, factor: 1.0 },
        E::CapacityScale { site, factor: 1.0 },
        E::LoadTick,
    ];
    // Exhaustive on purpose: a new variant stops this compiling until
    // it has a slot above, and each slot holds its own variant.
    for (i, ev) in all.iter().enumerate() {
        let slot = match ev {
            E::SiteDown(_) => 0,
            E::SiteUp(_) => 1,
            E::PeeringDown(_) => 2,
            E::PeeringUp(_) => 3,
            E::DrainStart { .. } => 4,
            E::DrainStage { .. } => 5,
            E::DrainEnd { .. } => 6,
            E::RingPromote { .. } => 7,
            E::RingDemote { .. } => 8,
            E::DemandScale { .. } => 9,
            E::CapacityScale { .. } => 10,
            E::LoadTick => 11,
        };
        assert_eq!(slot, i, "{ev:?} sits in the wrong slot");
    }
    let names: Vec<String> = all
        .iter()
        .map(|ev| format!("{ev:?}").chars().take_while(char::is_ascii_alphanumeric).collect())
        .collect();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/DYNAMICS.md");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let intro = " event kinds exist:";
    let at = text.find(intro).expect("DYNAMICS.md counts the event kinds");
    let count_word = text[..at].rsplit(char::is_whitespace).next().expect("a count word");
    const WORDS: [&str; 21] = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
        "eighteen", "nineteen", "twenty",
    ];
    assert_eq!(
        count_word.to_lowercase(),
        WORDS[all.len()],
        "DYNAMICS.md counts {count_word} event kinds"
    );
    let documented: Vec<String> = text[at..]
        .lines()
        .skip_while(|l| !l.starts_with("| `"))
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let first = row.split('|').nth(1).expect("a first column");
            first.trim().trim_matches('`').to_string()
        })
        .collect();
    assert_eq!(documented, names);
}
