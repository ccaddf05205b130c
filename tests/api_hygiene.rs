//! Source-level enforcement of the `WlmBuilder` facade: outside `wlm-core`
//! (where `ManagerConfig` lives as the internal representation), nothing
//! may construct a `ManagerConfig` struct literal. Everything builds through
//! the typed facade (`WorkloadManager` has no public constructor).

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_sources(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn manager_config_literals_only_exist_inside_wlm_core() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    assert!(sources.len() > 20, "the scan must see the whole workspace");

    let mut offenders = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(&root).expect("path under workspace root");
        if rel.starts_with("crates/core/src") {
            continue; // the internal representation is allowed at home
        }
        let text = fs::read_to_string(&path).expect("readable source file");
        // Split literals so this file does not flag itself.
        let banned = [
            concat!("ManagerConfig", " {"),
            concat!("ManagerConfig", "::default()"),
        ];
        for (i, line) in text.lines().enumerate() {
            if banned.iter().any(|b| line.contains(b)) {
                offenders.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "construct managers through wlm_core::api::WlmBuilder; raw ManagerConfig \
         construction found at:\n{}",
        offenders.join("\n")
    );
}
