//! The parts of the workspace lint policy that rustc and clippy cannot
//! express, checked over source text. Everything else is a compiler or
//! clippy lint; `docs/static-analysis.md` maps every rule to its check.
//!
//! * Every `SeqCst` in library code carries an `// ordering:` rationale,
//!   trailing or in a comment block ending within [`LOOKBACK`] lines
//!   above it; so does every `Relaxed` in the audited lock-free files.
//! * The hot-path modules hold no `assert!`/`assert_eq!`/`assert_ne!`
//!   outside their tests (`debug_assert*` compiles out and stays legal),
//!   and keep their clippy `#![deny(...)]` panic header.
//! * `#[allow(unsafe_code)]` appears only at the [`UNSAFE_ISLANDS`], and
//!   every other crate root pins `#![forbid(unsafe_code)]`, so moving the
//!   fence is a reviewed edit to that one list.
//!
//! Text before `//` counts as code. `#[cfg(test)]` items are skipped,
//! through the `}` at the attribute's own indentation.

use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const LOOKBACK: usize = 4;
/// What every crate root without an unsafe island carries.
const FORBID: &str = "#![forbid(unsafe_code)]";

/// Each audited unsafe island: the file and the item its
/// `#[allow(unsafe_code)]` sits on.
const UNSAFE_ISLANDS: &[(&str, &str)] = &[
    ("crates/index/src/lib.rs", "mod simd;"),
    ("crates/obs/src/alloc.rs", "unsafe impl GlobalAlloc for PecanAlloc {"),
    ("crates/obs/src/clock.rs", "mod imp {"),
    ("crates/obs/src/span.rs", "mod names {"),
    ("crates/serve/src/http/mod.rs", "pub(crate) mod sys;"),
];

/// The seqlock rings and histogram publish paths: each `Relaxed` here
/// must name its pairing site.
const RELAXED_AUDITED: &[&str] =
    &["crates/obs/src/span.rs", "crates/obs/src/hist.rs", "crates/serve/src/obs/recorder.rs"];

/// Modules where a panic takes a worker or the event loop down mid-request.
const HOT_PATH: &[&str] = &[
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/http/event_loop.rs",
    "crates/obs/src/span.rs",
    "crates/obs/src/hist.rs",
    "crates/serve/src/obs/recorder.rs",
];

/// `(line index, code part)` of every line outside `#[cfg(test)]` items.
fn live_lines(src: &str) -> Vec<(usize, &str)> {
    // Inside a test item: the line that closes it, or "" right after the
    // attribute, before the item's first line is seen.
    let mut skip_to: Option<String> = None;
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim_start();
        if let Some(end) = &skip_to {
            if line == end || (end.is_empty() && t.ends_with(';')) {
                skip_to = None;
            } else if end.is_empty() {
                skip_to = Some(format!("{}}}", &line[..line.len() - t.len()]));
            }
        } else if t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test") {
            skip_to = Some(String::new());
        } else {
            out.push((i, line.find("//").map_or(line, |c| &line[..c])));
        }
    }
    out
}

/// Lines (1-based) using `word` without an `// ordering:` rationale.
fn unjustified(src: &str, word: &str) -> Vec<usize> {
    let lines: Vec<&str> = src.lines().collect();
    let comment_only = |j: usize| lines[j].trim_start().starts_with("//");
    let noted = |j: usize| lines[j].find("//").is_some_and(|c| lines[j][c..].contains("ordering:"));
    let justified = |at: usize| {
        (0..=at)
            .rev()
            .take_while(|&j| at - j <= LOOKBACK || (comment_only(j) && comment_only(j + 1)))
            .any(noted)
    };
    let live = live_lines(src).into_iter();
    live.filter(|&(i, code)| code.contains(word) && !justified(i)).map(|(i, _)| i + 1).collect()
}

/// Lines (1-based) with a release-mode `assert!`, `assert_eq!` or `assert_ne!`.
fn release_asserts(src: &str) -> Vec<usize> {
    let is_assert = |code: &str| {
        ["assert!", "assert_eq!", "assert_ne!"].iter().any(|m| {
            code.match_indices(m)
                .any(|(at, _)| !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
    };
    live_lines(src).into_iter().filter(|&(_, code)| is_assert(code)).map(|(i, _)| i + 1).collect()
}

/// The item under each attribute that names `unsafe_code`, other than
/// the crate-root `#![forbid(unsafe_code)]`.
fn opt_ins(src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let opt_in = |l: &str| l.contains("unsafe_code") && !l.starts_with("//") && !l.contains('"');
    let item_after = |i: usize| {
        let rest = lines[i + 1..].iter().find(|l| !l.starts_with('#') && !l.starts_with(')'));
        rest.map_or(String::new(), |l| l.to_string())
    };
    (0..lines.len()).filter(|&i| opt_in(lines[i]) && lines[i] != FORBID).map(item_after).collect()
}

/// Workspace-relative paths of every `.rs` file under `dirs`.
fn rust_files(dirs: &[&str]) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(Path::new(ROOT).join(dir)).expect("readable dir").flatten() {
            let rel = dir.join(entry.file_name());
            if entry.path().is_dir() {
                walk(&rel, out);
            } else if rel.extension().is_some_and(|e| e == "rs") {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut out = Vec::new();
    dirs.iter().for_each(|d| walk(Path::new(d), &mut out));
    out
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn every_policy_path_exists() {
    let islands = UNSAFE_ISLANDS.iter().map(|(p, _)| p);
    for p in islands.chain(RELAXED_AUDITED).chain(HOT_PATH) {
        assert!(Path::new(ROOT).join(p).is_file(), "policy names a missing file: {p}");
    }
}

#[test]
fn library_atomics_carry_ordering_rationales() {
    let mut bad = Vec::new();
    for path in rust_files(&["src", "crates"]) {
        if !(path.starts_with("src/") || path.contains("/src/")) || path.contains("/bin/") {
            continue;
        }
        let src = read(&path);
        let audited = RELAXED_AUDITED.contains(&path.as_str());
        for word in ["SeqCst", "Relaxed"].into_iter().filter(|&w| w == "SeqCst" || audited) {
            bad.extend(unjustified(&src, word).into_iter().map(|l| format!("{path}:{l}: {word}")));
        }
    }
    assert!(bad.is_empty(), "atomics without an `// ordering:` comment:\n{}", bad.join("\n"));
}

#[test]
fn hot_paths_have_no_release_asserts_and_keep_their_panic_lints() {
    for path in HOT_PATH {
        let src = read(path);
        assert_eq!(release_asserts(&src), Vec::<usize>::new(), "{path}: use debug_assert!");
        let header: Vec<&str> = src.lines().filter(|l| l.starts_with("#![deny(")).collect();
        let header = header.join(" ").replace(['(', ')', ','], " ");
        for l in ["unwrap_used", "expect_used", "panic", "todo", "unimplemented", "unreachable"] {
            let lint = format!("clippy::{l}");
            assert!(header.split(' ').any(|w| w == lint), "{path}: no #![deny({lint})]");
        }
    }
}

#[test]
fn unsafe_is_allowed_only_on_the_listed_islands() {
    let mut found = Vec::new();
    for path in rust_files(&["src", "crates", "tests", "examples", "shims"]) {
        let src = read(&path);
        found.extend(opt_ins(&src).into_iter().map(|item| (path.clone(), item)));
        let krate = path.split("src/").next();
        let island_crate = UNSAFE_ISLANDS.iter().any(|(p, _)| p.split("src/").next() == krate);
        if path.ends_with("src/lib.rs") && !island_crate {
            assert!(src.lines().any(|l| l == FORBID), "{path}: no {FORBID}");
        }
    }
    found.sort();
    let listed: Vec<_> =
        UNSAFE_ISLANDS.iter().map(|&(p, i)| (p.to_string(), i.to_string())).collect();
    assert_eq!(found, listed, "unsafe opt-ins differ from UNSAFE_ISLANDS");
}

#[test]
fn fixture_unjustified_seqcst_is_rejected() {
    let bare = "fn f(a: &AtomicBool) {\n    a.load(Ordering::SeqCst);\n}\n";
    assert_eq!(unjustified(bare, "SeqCst"), vec![2]);
    let noted = "fn f(a: &AtomicBool) {\n    // ordering: SeqCst — total order with B\n    a.load(Ordering::SeqCst);\n}\n";
    assert!(unjustified(noted, "SeqCst").is_empty());
}

#[test]
fn fixture_relaxed_without_pairing_note_is_rejected() {
    let bare = "fn f(a: &AtomicU64) {\n    // seqlock read\n    a.load(Ordering::Relaxed);\n}\n";
    assert_eq!(unjustified(bare, "Relaxed"), vec![3]);
    let in_tests =
        "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
    assert!(unjustified(in_tests, "Relaxed").is_empty());
}

#[test]
fn fixture_assert_outside_tests_is_rejected() {
    let src = "fn f(a: u32) {\n    debug_assert!(a > 0);\n    assert_eq!(a, 1);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { assert!(true); }\n}\nfn g() { assert!(false) }\n";
    assert_eq!(release_asserts(src), vec![3, 9]);
}

#[test]
fn fixture_extra_unsafe_opt_in_is_rejected() {
    let src = "#![forbid(unsafe_code)]\n// allow(unsafe_code) in prose\n#[allow(unsafe_code)]\n#[cfg(unix)]\nmod extra;\n";
    let found = opt_ins(src);
    assert_eq!(found, vec!["mod extra;"]);
    assert!(!UNSAFE_ISLANDS.iter().any(|&(_, item)| item == found[0]));
}
