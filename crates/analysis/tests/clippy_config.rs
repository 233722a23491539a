//! clippy reads only the nearest `clippy.toml` above each crate and never
//! merges two, so a crate-level copy would silently replace the root bans
//! for that crate. The root file must therefore be the only one, apart
//! from `third_party/clippy.toml`, which exempts the vendored shims.

use std::path::{Path, PathBuf};

fn find_configs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("workspace directory is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            let skipped = name == "target" || name.starts_with('.');
            if !skipped && path != root.join("third_party") {
                find_configs(&path, root, out);
            }
        } else if name == "clippy.toml" || name == ".clippy.toml" {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
}

#[test]
fn root_clippy_toml_is_the_only_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root resolves");
    let mut configs = Vec::new();
    find_configs(&root, &root, &mut configs);
    assert_eq!(
        configs,
        vec![PathBuf::from("clippy.toml")],
        "a crate-level config shadows the root"
    );
    let base = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml is readable");
    for banned in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(base.contains(banned), "the root config must ban {banned}");
    }
}
