//! Claims-to-oracle traceability: scan the workspace for `verifies!`
//! attestations and join them against the claims registry
//! (`resilim_core::claims`, DESIGN.md §13).
//!
//! The contract: every registered claim must be attested by at least
//! one artifact (a test or a check oracle), and every attestation must
//! name a registered claim. `resilim trace-matrix`
//! renders the join as a Markdown matrix (committed as
//! `docs/TRACEABILITY.md`) or JSON, and exits non-zero when the
//! contract is broken — so deleting a proof, renaming a claim, or
//! fat-fingering an id fails CI instead of silently eroding coverage.
//!
//! The scan is purely textual and deterministic: one line per
//! invocation, comment lines ignored, files visited in sorted order.
//! The registry source itself (`crates/core/src/claims.rs`) is
//! excluded — its macro-smoke tests exercise the macro, they do not
//! verify paper claims.

use resilim_core::claims::{self, Claim};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::path::Path;

/// The textual marker the scanner looks for. Split so this file's own
/// source never matches it.
const MARKER: &str = concat!("verifies", "!(");

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "shims", "docs", ".github"];

/// Files excluded from the scan (repo-relative, `/`-separated): the
/// registry itself, whose macro-smoke tests are not attestations.
const SKIP_FILES: &[&str] = &["crates/core/src/claims.rs"];

/// What kind of artifact attests a claim, inferred from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A unit, integration, or property test.
    Test,
    /// A `resilim check` oracle (`crates/check/src`).
    Oracle,
}

impl ArtifactKind {
    /// Stable lower-case name (matrix rendering, JSON).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Test => "test",
            ArtifactKind::Oracle => "oracle",
        }
    }

    fn of_path(rel: &str) -> ArtifactKind {
        if rel.starts_with("crates/check/src") {
            ArtifactKind::Oracle
        } else {
            ArtifactKind::Test
        }
    }
}

/// One `verifies!` invocation found in the source tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// The claim id named by the invocation (may be unregistered —
    /// that is exactly what the matrix flags as dangling).
    pub claim_id: String,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the invocation.
    pub line: usize,
    /// Name of the enclosing `fn` (`?` if none found).
    pub function: String,
    /// Artifact kind, inferred from the path.
    pub kind: ArtifactKind,
}

/// One row of the traceability matrix: a registered claim and the
/// artifacts attesting it (deduplicated per enclosing function,
/// ordered by path).
#[derive(Debug, Clone)]
struct MatrixRow {
    /// The claim.
    claim: &'static Claim,
    /// Its attestations (empty = the claim is unverified).
    attestations: Vec<Attestation>,
}

/// The claims-to-artifacts join.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// One row per registered claim, in registry order.
    rows: Vec<MatrixRow>,
    /// Attestations naming an id absent from the registry.
    pub dangling: Vec<Attestation>,
}

/// Scan `root` (a workspace checkout) for `verifies!` attestations.
///
/// Deterministic: directories are visited in sorted order and every
/// attestation records its file, line, and enclosing function. Lines
/// whose first token is a comment are ignored, so prose *about* the
/// macro never registers as an attestation.
pub fn scan_attestations(root: &Path) -> std::io::Result<Vec<Attestation>> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        if SKIP_FILES.contains(&rel.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel))?;
        scan_file(&rel, &text, &mut out);
    }
    Ok(out)
}

fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rust_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

fn scan_file(rel: &str, text: &str, out: &mut Vec<Attestation>) {
    let lines: Vec<&str> = text.lines().collect();
    let kind = ArtifactKind::of_path(rel);
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let Some(pos) = line.find(MARKER) else {
            continue;
        };
        let after = &line[pos + MARKER.len()..];
        let Some(close) = after.find(')') else {
            continue; // multi-line invocation: not a supported marker
        };
        let function = enclosing_fn(&lines[..i]);
        for id in after[..close].split(',') {
            let id = id.trim();
            if !id.is_empty() && is_ident(id) {
                out.push(Attestation {
                    claim_id: id.to_string(),
                    file: rel.to_string(),
                    line: i + 1,
                    function: function.clone(),
                    kind,
                });
            }
        }
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The name of the nearest `fn` declared above the invocation.
fn enclosing_fn(lines_above: &[&str]) -> String {
    for line in lines_above.iter().rev() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if let Some(pos) = trimmed.find("fn ") {
            // Reject e.g. a stray "fn " inside a string by requiring the
            // preceding text to be declaration-ish (empty or modifiers).
            let before = &trimmed[..pos];
            if !before.is_empty() && !before.trim_end().ends_with(|c: char| c.is_alphanumeric()) {
                continue;
            }
            let name: String = trimmed[pos + 3..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return name;
            }
        }
    }
    "?".to_string()
}

/// Join attestations against the claims registry.
pub fn build_matrix(attestations: Vec<Attestation>) -> Matrix {
    let mut rows: Vec<MatrixRow> = claims::ALL
        .iter()
        .map(|claim| MatrixRow {
            claim,
            attestations: Vec::new(),
        })
        .collect();
    let mut dangling = Vec::new();
    for att in attestations {
        match rows.iter_mut().find(|r| r.claim.id == att.claim_id) {
            Some(row) => row.attestations.push(att),
            None => dangling.push(att),
        }
    }
    for row in &mut rows {
        row.attestations
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        // One entry per attesting function: the matrix traces artifacts,
        // not invocation sites, so line churn cannot cause drift.
        row.attestations
            .dedup_by(|a, b| a.file == b.file && a.function == b.function);
    }
    dangling.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Matrix { rows, dangling }
}

impl Matrix {
    /// Claims with no attesting artifact.
    pub fn unverified(&self) -> Vec<&'static Claim> {
        self.rows
            .iter()
            .filter(|r| r.attestations.is_empty())
            .map(|r| r.claim)
            .collect()
    }

    /// Whether every claim is attested and no attestation dangles.
    pub fn is_clean(&self) -> bool {
        self.unverified().is_empty() && self.dangling.is_empty()
    }

    /// Total attestations kept in the matrix (post-dedup).
    fn attestation_count(&self) -> usize {
        self.rows.iter().map(|r| r.attestations.len()).sum()
    }

    /// Render the committed Markdown matrix (`docs/TRACEABILITY.md`).
    ///
    /// Byte-deterministic for a given source tree; intentionally free
    /// of line numbers so moving code within a file cannot cause drift.
    pub fn render_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str("# Traceability matrix\n\n");
        md.push_str(
            "Every claim in the claims registry (`crates/core/src/claims.rs`) \
             mapped to the artifacts that attest it with the `verifies!` macro.\n\n\
             Generated by `resilim trace-matrix --write docs/TRACEABILITY.md`. \
             Do not edit by hand: CI regenerates this file and fails on drift, \
             on any unverified claim, and on any attestation naming an \
             unregistered claim.\n\n",
        );
        let _ = writeln!(
            md,
            "{} claims, {} attesting artifacts.\n",
            self.rows.len(),
            self.attestation_count()
        );
        md.push_str("| claim | kind | attested by |\n|---|---|---|\n");
        for row in &self.rows {
            let attested: Vec<String> = row
                .attestations
                .iter()
                .map(|a| format!("`{}::{}` ({})", a.file, a.function, a.kind.name()))
                .collect();
            let cell = if attested.is_empty() {
                "**UNVERIFIED**".to_string()
            } else {
                attested.join("<br>")
            };
            let _ = writeln!(
                md,
                "| {} | {} | {} |",
                row.claim.id,
                row.claim.kind.name(),
                cell
            );
        }
        md.push_str("\n## Claim statements\n\n");
        for row in &self.rows {
            let _ = writeln!(md, "- **{}** — {}", row.claim.id, row.claim.statement);
        }
        if !self.dangling.is_empty() {
            md.push_str("\n## Dangling attestations\n\n");
            for att in &self.dangling {
                let _ = writeln!(
                    md,
                    "- `{}` named by `{}::{}` is not a registered claim",
                    att.claim_id, att.file, att.function
                );
            }
        }
        md
    }

    /// Render the matrix as a JSON document (`--json`).
    pub fn render_json(&self) -> String {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                let atts: Vec<Value> = row
                    .attestations
                    .iter()
                    .map(|a| {
                        json!({
                            "file": a.file.as_str(),
                            "function": a.function.as_str(),
                            "kind": a.kind.name(),
                        })
                    })
                    .collect();
                json!({
                    "id": row.claim.id,
                    "kind": row.claim.kind.name(),
                    "statement": row.claim.statement,
                    "verified": !row.attestations.is_empty(),
                    "attested_by": Value::Array(atts),
                })
            })
            .collect();
        let dangling: Vec<Value> = self
            .dangling
            .iter()
            .map(|a| {
                json!({
                    "claim_id": a.claim_id.as_str(),
                    "file": a.file.as_str(),
                    "function": a.function.as_str(),
                })
            })
            .collect();
        let doc = json!({
            "claims": Value::Array(rows),
            "dangling": Value::Array(dangling),
            "clean": self.is_clean(),
        });
        let mut s = serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string());
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf()
    }

    fn live_scan() -> Vec<Attestation> {
        scan_attestations(&workspace_root()).expect("scan")
    }

    #[test]
    fn scan_finds_attestations_across_layers() {
        let atts = live_scan();
        let has = |file: &str, id: &str, kind: ArtifactKind| {
            atts.iter()
                .any(|a| a.file == file && a.claim_id == id && a.kind == kind)
        };
        assert!(has(
            "crates/core/src/sampling.rs",
            "EQ7",
            ArtifactKind::Test
        ));
        assert!(has(
            "crates/core/tests/proofs.rs",
            "INV_MERGE",
            ArtifactKind::Test
        ));
        assert!(has(
            "crates/check/src/oracles.rs",
            "EQ7",
            ArtifactKind::Oracle
        ));
        // The registry's own macro-smoke tests are excluded.
        assert!(!atts.iter().any(|a| a.file == "crates/core/src/claims.rs"));
        // Every attestation carries a real enclosing function.
        assert!(atts.iter().all(|a| a.function != "?"));
    }

    #[test]
    fn live_tree_matrix_is_clean() {
        let matrix = build_matrix(live_scan());
        assert_eq!(
            matrix.unverified(),
            Vec::<&Claim>::new(),
            "unverified claims"
        );
        assert_eq!(matrix.dangling, Vec::new(), "dangling attestations");
        assert!(matrix.is_clean());
        for row in &matrix.rows {
            assert!(
                !row.attestations.is_empty(),
                "claim {} has no attestation",
                row.claim.id
            );
        }
    }

    #[test]
    fn deleting_a_claims_attestations_breaks_the_matrix() {
        // The acceptance criterion: remove every artifact attesting one
        // claim and the matrix must flag it.
        let pruned: Vec<Attestation> = live_scan()
            .into_iter()
            .filter(|a| a.claim_id != "FIG8")
            .collect();
        let matrix = build_matrix(pruned);
        let unverified = matrix.unverified();
        assert_eq!(unverified.len(), 1);
        assert_eq!(unverified[0].id, "FIG8");
        assert!(!matrix.is_clean());
        assert!(matrix.render_markdown().contains("**UNVERIFIED**"));
    }

    #[test]
    fn dangling_attestation_is_detected() {
        let mut atts = live_scan();
        atts.push(Attestation {
            claim_id: "EQ99".to_string(),
            file: "crates/fake/src/lib.rs".to_string(),
            line: 1,
            function: "bogus".to_string(),
            kind: ArtifactKind::Test,
        });
        let matrix = build_matrix(atts);
        assert!(!matrix.is_clean());
        assert_eq!(matrix.dangling.len(), 1);
        assert_eq!(matrix.dangling[0].claim_id, "EQ99");
        assert!(matrix.render_markdown().contains("Dangling attestations"));
    }

    #[test]
    fn scanner_parses_lists_and_skips_comments() {
        let src = format!(
            "fn covers_two() {{\n    {m}A1, B2);\n}}\n\
             // {m}NOPE);\nfn other() {{\n    let x = 1;\n    {m}C3,);\n}}\n",
            m = MARKER
        );
        let mut out = Vec::new();
        scan_file("crates/foo/src/lib.rs", &src, &mut out);
        let ids: Vec<(&str, &str)> = out
            .iter()
            .map(|a| (a.claim_id.as_str(), a.function.as_str()))
            .collect();
        assert_eq!(
            ids,
            vec![("A1", "covers_two"), ("B2", "covers_two"), ("C3", "other")]
        );
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn markdown_and_json_are_deterministic_and_complete() {
        let matrix = build_matrix(live_scan());
        let md = matrix.render_markdown();
        let md2 = build_matrix(live_scan()).render_markdown();
        assert_eq!(md, md2);
        for claim in claims::ALL {
            assert!(md.contains(&format!("| {} |", claim.id)), "{}", claim.id);
        }
        let j = matrix.render_json();
        assert!(j.contains("\"clean\": true"));
        let parsed: serde_json::Value = serde_json::from_str(&j).expect("valid json");
        drop(parsed);
    }

    #[test]
    fn dedup_is_per_function_not_per_line() {
        let atts = vec![
            Attestation {
                claim_id: "EQ1".into(),
                file: "a.rs".into(),
                line: 3,
                function: "f".into(),
                kind: ArtifactKind::Test,
            },
            Attestation {
                claim_id: "EQ1".into(),
                file: "a.rs".into(),
                line: 9,
                function: "f".into(),
                kind: ArtifactKind::Test,
            },
            Attestation {
                claim_id: "EQ1".into(),
                file: "a.rs".into(),
                line: 20,
                function: "g".into(),
                kind: ArtifactKind::Test,
            },
        ];
        let matrix = build_matrix(atts);
        let row = matrix.rows.iter().find(|r| r.claim.id == "EQ1").unwrap();
        assert_eq!(row.attestations.len(), 2);
    }
}
