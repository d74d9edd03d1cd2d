//! The crate graph is layered. Every `crates/*/Cargo.toml` is read with
//! its `[dev-dependencies]` — a `--locked` build cannot see dev-only
//! edges — and the graph must have no cycle, and no crate but the
//! `aep-bench` harness may depend on the `aep-dse` explorer.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

type Graph = BTreeMap<String, Vec<String>>;

/// The text of every workspace crate's manifest.
fn manifests() -> Vec<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut texts: Vec<String> = fs::read_dir(crates)
        .expect("crates/ is listable")
        .filter_map(|entry| fs::read_to_string(entry.ok()?.path().join("Cargo.toml")).ok())
        .collect();
    texts.sort();
    texts
}

/// A manifest's `[package]` name and every key of its dependency tables
/// (`aep-x.workspace = true` and `aep-x = { … }` alike).
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let (mut section, mut name, mut deps) = ("", None, Vec::new());
    for line in text.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = Some(value.trim().trim_matches('"').to_owned()),
            "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]" => {
                deps.push(key.split('.').next().unwrap_or(key).to_owned());
            }
            _ => {}
        }
    }
    (name.expect("every manifest names its package"), deps)
}

/// Each workspace crate and the workspace crates it depends on.
fn graph(manifests: &[String]) -> Graph {
    let parsed: Vec<(String, Vec<String>)> = manifests.iter().map(|m| parse_manifest(m)).collect();
    let names: BTreeSet<&String> = parsed.iter().map(|(name, _)| name).collect();
    parsed
        .iter()
        .map(|(name, deps)| {
            let local = deps.iter().filter(|d| names.contains(d)).cloned();
            (name.clone(), local.collect())
        })
        .collect()
}

/// A dependency cycle, as the path that closes it, if the graph has one.
fn find_cycle(graph: &Graph) -> Option<Vec<String>> {
    fn visit(
        node: &str,
        graph: &Graph,
        path: &mut Vec<String>,
        done: &mut BTreeSet<String>,
    ) -> Option<Vec<String>> {
        if let Some(at) = path.iter().position(|n| n == node) {
            let mut cycle = path[at..].to_vec();
            cycle.push(node.to_owned());
            return Some(cycle);
        }
        if done.contains(node) {
            return None;
        }
        path.push(node.to_owned());
        for dep in &graph[node] {
            if let Some(cycle) = visit(dep, graph, path, done) {
                return Some(cycle);
            }
        }
        path.pop();
        done.insert(node.to_owned());
        None
    }
    let mut done = BTreeSet::new();
    graph
        .keys()
        .find_map(|node| visit(node, graph, &mut Vec::new(), &mut done))
}

#[test]
fn the_crate_graph_has_no_cycle() {
    let graph = graph(&manifests());
    assert!(graph.len() >= 13, "read only {} manifests", graph.len());
    if let Some(cycle) = find_cycle(&graph) {
        panic!("dependency cycle: {}", cycle.join(" -> "));
    }
}

#[test]
fn only_the_harness_depends_on_the_explorer() {
    let dependents: Vec<String> = graph(&manifests())
        .into_iter()
        .filter(|(_, deps)| deps.iter().any(|d| d == "aep-dse"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(dependents, ["aep-bench"]);
}

#[test]
fn a_planted_dev_dependency_cycle_is_caught() {
    let planted: Vec<String> = manifests()
        .into_iter()
        .map(|m| {
            if parse_manifest(&m).0 == "aep-core" {
                m + "\n[dev-dependencies]\naep-check.workspace = true\n"
            } else {
                m
            }
        })
        .collect();
    let cycle = find_cycle(&graph(&planted)).expect("the planted cycle is found");
    assert!(cycle.contains(&"aep-core".to_owned()), "{cycle:?}");
    assert!(cycle.contains(&"aep-check".to_owned()), "{cycle:?}");
}
