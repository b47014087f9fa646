//! The workspace's `forbid(unsafe_code)` lives in one place: the root
//! manifest's `[workspace.lints.rust]` table. A crate only gets it by
//! opting in with `[lints] workspace = true`, so a member that forgets the
//! opt-in would compile with no `forbid` at all. These tests read the
//! manifests and refuse that.

use std::fs;
use std::path::Path;

/// The `key = value` lines of each `[section]` of a manifest, in order.
/// Enough TOML for the tables checked here: comments, blank lines and
/// multi-line arrays are kept out of the key lines.
fn sections(manifest: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = vec![(String::new(), Vec::new())];
    for line in manifest.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            out.push((name.trim().to_string(), Vec::new()));
        } else if let Some((_, lines)) = out.last_mut() {
            lines.push(line.to_string());
        }
    }
    out
}

/// `true` iff section `name` of `manifest` holds the line `key = value`.
fn sets(manifest: &str, name: &str, key: &str, value: &str) -> bool {
    sections(manifest)
        .iter()
        .filter(|(section, _)| section == name)
        .flat_map(|(_, lines)| lines)
        .filter_map(|line| line.split_once('='))
        .any(|(k, v)| k.trim() == key && v.trim() == value)
}

/// The paths in the root manifest's `[workspace] members` array.
fn members(root_manifest: &str) -> Vec<String> {
    let (_, lines) = sections(root_manifest)
        .into_iter()
        .find(|(section, _)| section == "workspace")
        .expect("root manifest has a [workspace] table");
    let mut list = String::new();
    let mut inside = false;
    for line in lines {
        if line.starts_with("members") {
            inside = true;
        }
        if inside {
            list.push_str(&line);
            if line.contains(']') {
                break;
            }
        }
    }
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn the_workspace_forbids_unsafe_code() {
    let root = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert!(
        sets(&root, "workspace.lints.rust", "unsafe_code", "\"forbid\""),
        "the root Cargo.toml must set unsafe_code = \"forbid\" under [workspace.lints.rust]"
    );
}

#[test]
fn every_first_party_manifest_inherits_the_workspace_lints() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = read(&dir.join("Cargo.toml"));
    let first_party: Vec<String> = members(&root)
        .into_iter()
        .filter(|m| !m.starts_with("vendor/"))
        .collect();
    assert!(
        first_party.iter().any(|m| m == "crates/service"),
        "expected the first-party crates in [workspace] members, found {first_party:?}"
    );
    assert!(
        sets(&root, "lints", "workspace", "true"),
        "the root package's Cargo.toml lacks `[lints] workspace = true`"
    );
    for member in first_party {
        let manifest = read(&dir.join(&member).join("Cargo.toml"));
        assert!(
            sets(&manifest, "lints", "workspace", "true"),
            "{member}/Cargo.toml lacks `[lints] workspace = true`, so it compiles without the workspace's forbid(unsafe_code)"
        );
    }
}
