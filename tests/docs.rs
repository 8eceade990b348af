//! Lints the prose documentation: every relative markdown link in
//! `README.md` and `docs/*.md` must point at a file (or directory) that
//! exists in the repository, and the three architecture/reference docs the
//! README promises must actually be there and linked. A knob census holds
//! the crates and the docs to no environment variable at all; a statics
//! census beside it lists the process-globals the crates may hold, a
//! thread census the one module that starts threads, and a filter census
//! holds the scalar filter walk to the tests.
//!
//! Absolute `http(s)://` links are out of scope (no network in CI or this
//! container); intra-crate rustdoc links are checked separately by the
//! `cargo doc -D warnings` CI job.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files the checker lints: the README plus everything
/// directly under `docs/`.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory must exist");
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Extracts the `(target)` of every inline markdown link `[text](target)`
/// in `text`, skipping fenced code blocks (protocol examples contain
/// bracketed JSON that is not a link).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A link target is the parenthesized span immediately after a
            // closing bracket: ...](target)
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                if let Some(end) = line[i + 2..].find(')') {
                    out.push(line[i + 2..i + 2 + end].to_string());
                    i += 2 + end;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// True for link targets the filesystem check does not apply to.
fn external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn no_dangling_relative_links() {
    let mut dangling: Vec<String> = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).unwrap();
        let base = file.parent().unwrap();
        for target in link_targets(&text) {
            if external(&target) || target.is_empty() {
                continue;
            }
            // Strip a trailing #fragment; the file part must exist.
            let path_part = target.split('#').next().unwrap();
            if path_part.is_empty() {
                continue;
            }
            let resolved = base.join(path_part);
            if !resolved.exists() {
                dangling.push(format!(
                    "{}: [..]({target}) -> {}",
                    file.strip_prefix(repo_root()).unwrap().display(),
                    resolved.display()
                ));
            }
        }
    }
    assert!(dangling.is_empty(), "dangling relative links:\n{}", dangling.join("\n"));
}

/// The README must link out to each of the three reference docs, and the
/// docs must cross-link without rot.
#[test]
fn readme_links_the_reference_docs() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let targets: BTreeSet<String> = link_targets(&readme)
        .into_iter()
        .map(|t| t.split('#').next().unwrap().to_string())
        .collect();
    for doc in ["docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/TUNING.md"] {
        assert!(Path::new(&root.join(doc)).exists(), "{doc} is missing — the README promises it");
        assert!(targets.contains(doc), "README.md does not link to {doc}");
    }
}

/// Every re-anchor renumbers the ROADMAP, so a doc that cites "ROADMAP
/// item N" goes stale without anyone touching it: docs name the idea
/// instead. Whitespace is collapsed first, so a citation wrapped across
/// lines is caught too.
#[test]
fn docs_cite_no_roadmap_item_numbers() {
    let mut citations = Vec::new();
    for path in doc_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let words: Vec<&str> = text.split_whitespace().collect();
        for w in words.windows(3) {
            if w[0].ends_with("ROADMAP")
                && w[1] == "item"
                && w[2].starts_with(|c: char| c.is_ascii_digit())
            {
                citations.push(format!("{}: {}", path.display(), w.join(" ")));
            }
        }
    }
    assert!(citations.is_empty(), "ROADMAP item numbers cited:\n{}", citations.join("\n"));
}

/// Requires every needle in its document and every named test file to exist.
fn assert_documented(needles: &[(&str, &[&str])], tests: &[&str]) {
    let root = repo_root();
    for (doc, needles) in needles {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for needle in *needles {
            assert!(text.contains(needle), "{doc} must mention {needle}");
        }
    }
    for test in tests {
        assert!(root.join(test).exists(), "the docs name {test}");
    }
}

/// The reply path's contract is written down where clients and
/// maintainers look for it, and the tests the docs name exist.
#[test]
fn the_reply_path_is_documented() {
    assert_documented(
        &[
            ("docs/PROTOCOL.md", &["ascending byte order", "byte-stable", "reply_goldens.rs"]),
            (
                "docs/ARCHITECTURE.md",
                &[
                    "`JsonWriter`",
                    "handle_line_into",
                    "start-of-reply mark",
                    "one socket write",
                    "reply_goldens.rs",
                    "tests/reply_path_prop.rs",
                ],
            ),
        ],
        &["crates/server/tests/reply_goldens.rs", "tests/reply_path_prop.rs"],
    );
}

/// The durable-append design is written down where operators, clients
/// and maintainers look for it, and the suite the docs name exists.
#[test]
fn durable_appends_are_documented() {
    assert_documented(
        &[
            (
                "docs/PROTOCOL.md",
                &["`segment_appends`", "`segment_bytes`", "`compactions`", "data records appended"],
            ),
            (
                "docs/TUNING.md",
                &["t<id>.tbl", "`DBWT` header", "`segment_appends`", "`compactions`"],
            ),
            (
                "docs/ARCHITECTURE.md",
                &[
                    "`DBWA`",
                    "whole-file write",
                    "torn tail",
                    "compaction",
                    "tests/append_segment_prop.rs",
                ],
            ),
        ],
        &["tests/append_segment_prop.rs"],
    );
}

/// Where condition bitmaps live, how they are bounded and what a restart
/// restores are written down too.
#[test]
fn snapshot_owned_bitmaps_are_documented() {
    assert_documented(
        &[
            ("docs/PROTOCOL.md", &["`retained`", "`retained_bytes`", "version 6"]),
            ("docs/TUNING.md", &["CONDITION_BITMAP_BUDGET_BYTES", "32 MiB", "`retained_bytes`"]),
            (
                "docs/ARCHITECTURE.md",
                &[
                    "What a restart restores",
                    "`Table::condition_bitmaps`",
                    "tests/bitmap_lifetime.rs",
                ],
            ),
        ],
        &["tests/bitmap_lifetime.rs", "crates/server/tests/one_explain_path.rs"],
    );
}

/// Calls `visit` with the path and text of every `.rs` file under
/// `crates/*/src`.
fn for_each_crate_source(visit: &mut dyn FnMut(&Path, &str)) {
    fn walk(dir: &Path, visit: &mut dyn FnMut(&Path, &str)) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, visit);
            } else if path.extension().is_some_and(|e| e == "rs") {
                visit(&path, &std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    for krate in std::fs::read_dir(repo_root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            walk(&src, visit);
        }
    }
}

/// The statics census: outside `#[cfg(test)]` modules the crates hold the
/// identity-stamp counter and the two condition-bitmap statistics
/// counters, so state that makes one explain depend on what else ran in
/// the process cannot appear unnoticed, and passing the counters
/// explicitly has a number to drive to one.
#[test]
fn process_global_statics_are_exactly_the_known_three() {
    let mut statics = Vec::new();
    for_each_crate_source(&mut |_, text| {
        // Unit-test modules close their files.
        for line in text.split("#[cfg(test)]").next().unwrap().lines() {
            let item =
                line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some(declared) = item.strip_prefix("static ") {
                let name = declared.trim_start_matches("mut ").split(':').next().unwrap();
                statics.push(name.trim().to_string());
            }
        }
    });
    statics.sort();
    let known = ["GLOBAL_BITMAP_HITS", "GLOBAL_BITMAP_MISSES", "NEXT_STAMP"];
    assert_eq!(statics, known, "non-test `static` items under crates/*/src");
}

/// The one-filter-path census: outside `#[cfg(test)]` modules nothing
/// calls the scalar filter walk, so a whole-clause twin of the compiled
/// filter cannot come back; the error-message walk steps through rows by
/// `Expr::matches` and returns none.
#[test]
fn non_test_code_never_calls_the_scalar_filter_walk() {
    let callers = non_test_sources_where(&|code| {
        let calls =
            |name: &str| code.matches(name).count() - code.matches(&format!("fn {name}")).count();
        calls("filter_scalar(") + calls("scalar_rows(") > 0
    });
    assert!(callers.is_empty(), "non-test scalar filter walks under crates/*/src: {callers:?}");
}

/// Every `DBWIPES_[A-Z_]+` name occurring in `text`.
fn knob_names(text: &str) -> BTreeSet<String> {
    const PREFIX: &str = "DBWIPES_";
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at + PREFIX.len()..];
        let len = tail.bytes().take_while(|b| b.is_ascii_uppercase() || *b == b'_').count();
        if len > 0 {
            names.insert(format!("{PREFIX}{}", &tail[..len]));
        }
        rest = &tail[len..];
    }
    names
}

/// The knob census: the crates read no environment variable — every
/// setting is a flag or a config field — and no reference doc names one,
/// so a knob cannot come back on one side only.
#[test]
fn environment_knobs_in_code_and_docs_are_the_same_set() {
    let root = repo_root();
    let (mut visited, mut in_code) = (BTreeSet::new(), BTreeSet::new());
    for_each_crate_source(&mut |path, text| {
        visited.insert(path.strip_prefix(&root).unwrap().to_path_buf());
        in_code.extend(knob_names(text));
        if text.contains("env::var") {
            in_code.insert(format!("env::var in {}", path.display()));
        }
    });
    for file in ["crates/core/src/lib.rs", "crates/server/src/executor.rs"] {
        assert!(visited.contains(Path::new(file)), "the census did not visit {file}");
    }
    assert!(in_code.is_empty(), "crates/*/src reads the environment: {in_code:?}");

    for doc in ["docs/TUNING.md", "docs/PROTOCOL.md", "README.md", "docs/ARCHITECTURE.md"] {
        let named = knob_names(&std::fs::read_to_string(root.join(doc)).unwrap());
        assert!(named.is_empty(), "{doc} names knobs the code does not read: {named:?}");
    }
}

/// The files under `crates/*/src` whose code outside `#[cfg(test)]`
/// modules (unit-test modules close their files) satisfies `hit`.
fn non_test_sources_where(hit: &dyn Fn(&str) -> bool) -> BTreeSet<PathBuf> {
    let root = repo_root();
    let mut found = BTreeSet::new();
    for_each_crate_source(&mut |path, text| {
        if hit(text.split("#[cfg(test)]").next().unwrap()) {
            found.insert(path.strip_prefix(&root).unwrap().to_path_buf());
        }
    });
    found
}

/// The thread census: outside `#[cfg(test)]` modules only the executor
/// starts threads, so a request runs on the worker that took its
/// connection and a stage's wall time is its cost.
#[test]
fn non_test_threads_are_started_only_by_the_executor() {
    let starters = non_test_sources_where(&|code| {
        ["thread::scope", "thread::spawn", "thread::Builder"].iter().any(|s| code.contains(s))
    });
    let executor = PathBuf::from("crates/server/src/executor.rs");
    assert_eq!(starters, BTreeSet::from([executor]), "non-test thread starts under crates/*/src");
}

/// The field names of a `{:?}` rendering: every identifier followed by
/// `": "`, nested structs' and list elements' fields included.
fn debug_field_names(rendered: &str) -> BTreeSet<String> {
    rendered
        .split(": ")
        .filter_map(|before| {
            let start = before
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(0, |at| at + 1);
            let name = &before[start..];
            (!name.is_empty()).then(|| name.to_string())
        })
        .collect()
}

/// The explain-knob census: the fields `ExplainConfig` renders (the
/// configuration every memoised `debug` is keyed on) are exactly the rows
/// of TUNING.md's "Explain configuration" table, and each row names who
/// turns that field — so a field nothing turns cannot be added quietly.
#[test]
fn explain_config_fields_and_the_tuning_table_are_the_same_set() {
    let rendered = format!("{:?}", dbwipes::core::ExplainConfig::standard());
    let in_code = debug_field_names(&rendered);
    assert!(in_code.contains("enumerator") && in_code.contains("weight_error"), "{in_code:?}");

    let tuning = std::fs::read_to_string(repo_root().join("docs/TUNING.md")).unwrap();
    let section = tuning
        .split("\n## ")
        .find(|s| s.starts_with("Explain configuration\n"))
        .expect("docs/TUNING.md has an `## Explain configuration` section");
    const TURNERS: &[&str] = &["E6a", "E6b", "E8", "property test", "benchmark"];
    let mut documented = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`');
        let turned_by = cells.get(3).copied().unwrap_or("");
        assert!(
            TURNERS.iter().any(|t| turned_by.contains(t)),
            "row `{name}` must say who turns it (one of {TURNERS:?}): {row}"
        );
        assert!(documented.insert(name.to_string()), "row `{name}` appears twice");
    }
    assert_eq!(in_code, documented, "ExplainConfig fields (left) vs docs/TUNING.md rows");
}

/// Every `--flag` token in `text`: a `--` followed by lowercase letters
/// and dashes.
fn flag_names(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .map(str::to_string)
        .collect()
}

/// The flag census: the `"--…" =>` arms `dbwipes-server` matches on, the
/// flags its usage line prints and the rows of TUNING.md's "Server flags"
/// table are one set — so a flag cannot appear or vanish on one side only.
#[test]
fn server_flags_in_code_and_docs_are_the_same_set() {
    let root = repo_root();
    let source =
        std::fs::read_to_string(root.join("crates/server/src/bin/dbwipes-server.rs")).unwrap();
    let matched: BTreeSet<String> = source
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix('"'))
        .filter_map(|arm| arm.split_once("\" =>").map(|(flag, _)| flag.to_string()))
        // `"--help" | "-h" =>` is not a single-flag arm.
        .filter(|flag| flag.starts_with("--") && flag_names(flag).contains(flag))
        .collect();
    assert!(matched.contains("--listen") && matched.contains("--workers"), "{matched:?}");

    let usage = source.split("\"usage: ").nth(1).expect("the binary prints a usage line");
    let usage = flag_names(usage.split("\")").next().unwrap());
    assert_eq!(matched, usage, "matched flags (left) vs the usage line");

    let tuning = std::fs::read_to_string(root.join("docs/TUNING.md")).unwrap();
    let section = tuning
        .split("\n## ")
        .find(|s| s.starts_with("Server flags\n"))
        .expect("docs/TUNING.md has an `## Server flags` section");
    let mut documented = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `--")) {
        let flag = row[3..].split(['`', ' ']).next().unwrap();
        assert!(documented.insert(flag.to_string()), "row `{flag}` appears twice");
    }
    assert_eq!(matched, documented, "matched flags (left) vs docs/TUNING.md's Server flags rows");
}
